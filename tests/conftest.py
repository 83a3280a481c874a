"""Shared scenario builders for the test suite, and the frame-by-frame builders
that the array-backed ones are checked against."""

from __future__ import annotations

import numpy as np
import pytest

from noisebench import (
    GroundTruth,
    NoiseSource,
    ScenarioConfig,
    SubbandSignal,
    build_scenario,
    dft,
    power_matrix,
)
from noisebench.scenario import _frame_amplitudes, _noise_series

N_BINS = 512
N_FRAMES = 100
BAND = (256, 384)  # third of four subbands, fully occupied


def reference_config(seed: int = 0, n_frames: int = N_FRAMES,
                     target_snr_db: float = 0.0) -> ScenarioConfig:
    """Four equal subbands, third one fully occupied at the target SNR."""
    return ScenarioConfig(
        n_bins=N_BINS,
        n_frames=n_frames,
        noise=NoiseSource(kind="white-gaussian", seed=seed),
        reference_noise_power_mw=1.0,
        signals=(SubbandSignal(subband_index=2, occupancy_fraction=1.0,
                               target_snr_db=target_snr_db),),
        name="ism-reference",
    )


def noise_only_config(seed: int = 0, n_frames: int = N_FRAMES) -> ScenarioConfig:
    return ScenarioConfig(
        n_bins=N_BINS,
        n_frames=n_frames,
        noise=NoiseSource(kind="white-gaussian", seed=seed),
        reference_noise_power_mw=1.0,
        name="noise-only",
    )


@pytest.fixture(scope="session")
def reference_block():
    block, truth = build_scenario(reference_config(seed=7))
    return block, truth, power_matrix(block)


@pytest.fixture(scope="session")
def noise_block():
    block, truth = build_scenario(noise_only_config(seed=11))
    return block, truth, power_matrix(block)


def build_scenario_per_frame(config: ScenarioConfig) -> tuple[np.ndarray, GroundTruth]:
    """Oracle for build_scenario: one FFT and one signal pass per frame."""
    n, m = config.n_bins, config.n_frames
    samples = _noise_series(config).samples
    spectral = [np.fft.fft(samples[i * n:(i + 1) * n]) for i in range(m)]
    mask = np.zeros((m, n), dtype=bool)
    snr_db = np.full(m, -np.inf)
    root_n = np.sqrt(n)
    for f in range(m):
        signal_power = 0.0
        for lo, hi, a_sqrt_mw in _frame_amplitudes(config, f):
            spectral[f][lo:hi] += a_sqrt_mw * root_n
            mask[f, lo:hi] = True
            signal_power += a_sqrt_mw**2 * (hi - lo) / n
        if signal_power > 0:
            snr_db[f] = 10.0 * np.log10(signal_power / config.reference_noise_power_mw)
    truth = GroundTruth(
        noise_power_mw=np.full(m, config.reference_noise_power_mw),
        true_snr_db=snr_db,
        signal_bin_mask=mask,
    )
    return np.stack(spectral), truth


def counting_block_per_frame(n_frames: int, n_bins: int) -> np.ndarray:
    """Oracle for bench._counting_block: one draw pair and one dft per frame."""
    rng = np.random.Generator(np.random.Philox(key=12345))
    rows = []
    for i in range(n_frames):
        t = (rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)) / np.sqrt(2)
        rows.append(dft(t, frame_index=i).bins)
    return np.stack(rows)


def complex_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def white_frame(rng: np.random.Generator, n: int, power: float = 1.0) -> np.ndarray:
    return np.sqrt(power / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
