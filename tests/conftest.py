"""Shared scenario builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from noisebench import (
    NoiseSource,
    ResourceBlock,
    ScenarioConfig,
    SpectralFrame,
    SubbandSignal,
    build_scenario,
    power_matrix,
)

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


def window_block(block: ResourceBlock, lo: int, hi: int) -> ResourceBlock:
    """Frames lo..hi-1 of a block as a block of their own, re-indexed from 0."""
    return ResourceBlock(frames=tuple(
        SpectralFrame(bins=block.frames[f].bins, frame_index=f - lo)
        for f in range(lo, hi)
    ))


def complex_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def white_frame(rng: np.random.Generator, n: int, power: float = 1.0) -> np.ndarray:
    return np.sqrt(power / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
