"""Scenario helpers shared by the test suite, and the frame-by-frame and
window-by-window implementations that the array-backed ones are checked against."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from noisebench import (
    GroundTruth,
    NoiseSource,
    PowerSpectrum,
    ScenarioConfig,
    SpectralFrame,
    SubbandSignal,
    build_scenario,
    power_matrix,
    power_spectrum,
)
from noisebench import bench, estimators
from noisebench.errors import DegenerateSpectrumError, ZeroPowerError, raise_first_status
from noisebench.scenario import (
    SurrogateNoiseParams,
    _frame_amplitudes,
    _synthetic_samples,
    scenario_config_from_dict,
    time_series_of,
    write_iq_trace,
)

N_BINS = 512
N_FRAMES = 100
BAND = (256, 384)  # third of four subbands, fully occupied
# White Gaussian noise: the surrogate with no impulses and no tilt.
WHITE = SurrogateNoiseParams(impulse_rate=0.0)


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


SWITCH_FRAMES = 300


@pytest.fixture(scope="session")
def switching_trace_config(tmp_path_factory) -> Path:
    """Run config over an impulsive surrogate trace in which a transmitter
    switches from subband 1 to subband 3 at the midpoint (10 dB, half occupancy).

    Blind MMSE with 100-frame windows fails on it with a non-positive
    estimate at window 52, the first whose last frame follows the switch.
    """
    work = tmp_path_factory.mktemp("switching")
    trace = work / "noise.iq"
    noise = scenario_config_from_dict({
        "n_bins": N_BINS, "n_frames": SWITCH_FRAMES, "signals": [],
        "noise": {"kind": "surrogate-industrial", "seed": 0,
                  "params": {"impulse_rate": 0.002, "impulse_amplitude_factor": 8.0,
                             "spectral_tilt_db_per_decade": -3.0}},
    })
    write_iq_trace(trace, time_series_of(build_scenario(noise)[0]))
    half = SWITCH_FRAMES // 2
    path = work / "run.json"
    path.write_text(json.dumps({
        "name": "switching", "n_bins": N_BINS, "n_frames": SWITCH_FRAMES,
        "noise": {"kind": "trace-file", "path": str(trace)},
        "signals": [
            {"subband_index": 1, "occupancy_fraction": 0.5, "target_snr_db": 10.0,
             "frame_end": half},
            {"subband_index": 3, "occupancy_fraction": 0.5, "target_snr_db": 10.0,
             "frame_start": half},
        ],
    }))
    return path


def oracle_noise_stream(config: ScenarioConfig) -> np.ndarray:
    """The scenario's N*M noise samples at the reference mean power, built apart
    from scenario._noise_series: the synthesis, or the trace's float32 (I, Q)
    pairs as read from the file, cut to the samples used, then scaled to the
    reference over those samples alone."""
    total = config.n_bins * config.n_frames
    src = config.noise
    if src.kind == "trace-file":
        words = np.fromfile(src.path, dtype="<f4")[:2 * total]
        samples = np.empty(words.size // 2, dtype=np.complex128)
        samples.real, samples.imag = words[0::2], words[1::2]
    else:
        params = src.params if src.kind == "surrogate-industrial" else WHITE
        samples = _synthetic_samples(total, params, src.seed)
    power = np.abs(samples) ** 2
    return samples * np.sqrt(config.reference_noise_power_mw / np.mean(power))


def build_scenario_per_frame(config: ScenarioConfig) -> tuple[np.ndarray, GroundTruth]:
    """Oracle for build_scenario: one FFT and one signal pass per frame, on the noise
    stream of :func:`oracle_noise_stream`."""
    n, m = config.n_bins, config.n_frames
    samples = oracle_noise_stream(config)
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
    """The whole counting block, one draw pair and one FFT per frame.

    Oracle for bench._counting_frame, which is its last row.
    """
    rng = np.random.Generator(np.random.Philox(key=12345))
    rows = []
    for _ in range(n_frames):
        t = (rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)) / np.sqrt(2)
        rows.append(np.fft.fft(t))
    return np.stack(rows)


def counting_power(n: int) -> PowerSpectrum:
    """Power spectrum of the counting frame of size n, as bench.count_ops_table builds it."""
    return power_spectrum(SpectralFrame(bench._counting_frame(n), n - 1))


def counting_frames_walk(sizes) -> dict[int, np.ndarray]:
    """Counting frame of each distinct size from one walk of the stream from its start.

    Oracle for bench._counting_frame, which resumes near each frame instead:
    every normal before the largest frame is drawn, in ascending size, through
    one 65,536-normal buffer, and each frame is the DFT of its 2n normals.
    """
    rng = np.random.Generator(np.random.Philox(key=12345))
    skip = np.empty(65_536)
    drawn = 0
    frames = {}
    for n in sorted(set(sizes)):
        start = 2 * n * (n - 1)
        while drawn < start:
            step = min(start - drawn, skip.size)
            rng.standard_normal(out=skip[:step])
            drawn += step
        draws = rng.standard_normal((2, n))
        drawn += 2 * n
        frames[n] = np.fft.fft((draws[0] + 1j * draws[1]) / np.sqrt(2))
    return frames


def counting_resume_points(count: int, draw: int) -> tuple[tuple[int, ...], float]:
    """The Philox word at which normals 0, draw, ..., (count - 1) draw of the
    counting stream start, and the normal drawn at the last of them.

    Oracle for bench._RESUME_WORDS and bench._RESUME_CHECK.  The word count is
    read off the bit generator's state: the counter steps before each block
    of four words, and buffer_pos words of the current block are used.
    """
    bits = np.random.Philox(key=12345)
    rng = np.random.Generator(bits)
    skip = np.empty(draw)
    words = []
    for j in range(count):
        if j:
            rng.standard_normal(out=skip)
        state = bits.state
        words.append(4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4)
    return tuple(words), float(rng.standard_normal())


def resume_table_literal(words, check: float) -> str:
    """The bench.py source of a resume table, eight words a line."""
    rows = ["    " + ", ".join(map(str, words[i:i + 8])) + "," for i in range(0, len(words), 8)]
    return "_RESUME_WORDS = (\n" + "\n".join(rows) + f"\n)\n_RESUME_CHECK = {check!r}\n"


def raised(output: tuple, method: str | None = None, **fields):
    """An engine's arrays, its statuses last, after raising its first failing entry's
    error as the callers do: the estimates (the first array) fill the messages of
    ``method``, and ``fields`` the rest.  Returns the first array, or all but the
    statuses when there are more."""
    *arrays, status = output
    if method is not None:
        fields.update(method=method, value=arrays[0])
    raise_first_status(status, **fields)
    return arrays[0] if len(arrays) == 1 else tuple(arrays)


def cbe_raised(gram: np.ndarray, n_bins: int, window: int, counts: np.ndarray, *args):
    """:func:`estimators.cbe_fit_windows` with its statuses raised as ``bench`` raises them."""
    output = estimators.cbe_fit_windows(gram, n_bins, window, counts, *args)
    return raised(output, "cbe", tolerance=output[1][:, 0], signal_count=counts, frames=window)


def mmse_fit_per_window(spectral: np.ndarray) -> SimpleNamespace:
    """Oracle for estimators.mmse_fit_windows: one window's blind MMSE fit from its own
    rows, its value_mw and diagnostics.

    Direct mean and variance sums, lags by np.correlate and the residual by
    matmul_toeplitz.  The Toeplitz attempts go through estimators._try_toeplitz,
    so a test that patches it reaches both implementations.  Each failing
    check raises the error the engine's status raises.
    """
    m, n = spectral.shape
    if m < 3:
        raise ValueError("need at least 3 frames")
    x = spectral / np.sqrt(n)
    x = x - x[:m - 1].mean(axis=0, keepdims=True)
    power = x.real**2 + x.imag**2
    variance = power[:m - 1].sum(axis=0) / (m - 1)
    r0 = float(variance @ variance) / n
    if r0 == 0.0:
        raise ZeroPowerError("all-zero residual block; nothing to estimate")
    r = np.correlate(variance, variance, mode="full")[n - 1:] / n
    column = r.copy()
    column[0] = 2.0 * r[0]
    w = estimators._try_toeplitz(column, r)
    if w is None:
        column[0] = 2.0 * r[0] + 1e-6 * r[0]
        w = estimators._try_toeplitz(column, r)
        if w is None:
            raise DegenerateSpectrumError("MMSE weight system is singular even after ridge")
    residual = scipy.linalg.matmul_toeplitz((column, column), w) - r
    weight_sum = float(w.sum())
    if weight_sum == 0.0:
        raise ZeroPowerError("MMSE weights sum to zero")
    weights = w / weight_sum
    estimate = float(weights @ power[m - 1])
    if estimate <= 0:
        raise ZeroPowerError(f"MMSE produced a non-positive estimate ({estimate})")
    if not np.isfinite(estimate):
        raise ZeroPowerError(f"mmse: estimate must be finite and positive, got {estimate}")
    return SimpleNamespace(value_mw=estimate, diagnostics={
        "raw_weight_sum": weight_sum,
        "weight_max": float(np.abs(weights).max()),
        "system_residual": float(np.linalg.norm(residual) / np.linalg.norm(r)),
    })


def cbe_fit_naive(cov: np.ndarray, n_bins: int, signal_count: int,
                  grid_size: int = 100) -> SimpleNamespace:
    """Oracle for estimators.cbe_fit_windows: one window's Marchenko-Pastur fit.

    The symmetrised window covariance, its eigvalsh spectrum (descending,
    clipped at zero), a linspace grid of candidate powers (a single candidate
    when the range collapses), mp_cdf at the noise eigenvalues and the argmin
    of the root-sum-square misfits.  The guards are left to the engine.
    """
    m, s = cov.shape[0], signal_count
    lam = np.clip(np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))[::-1], 0.0, None)
    edge = (1.0 - np.sqrt(m / n_bins)) ** 2
    sigma_min = float(lam[-1] / (edge + estimators._mp_edge_offset(m, n_bins)))
    sigma_max = float(max(sigma_min, lam[s] / edge))
    if sigma_min == sigma_max:
        grid = np.array([sigma_min])
    else:
        grid = np.linspace(sigma_min, sigma_max, grid_size)
    noise = lam[s:][::-1]
    ecdf = np.arange(1, m - s + 1) / (m - s)
    diff = ecdf - estimators.mp_cdf(noise / grid[:, None], (m - s) / n_bins, 1.0)
    distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return SimpleNamespace(value_mw=float(grid[np.argmin(distances)]), grid=grid,
                           distances=distances)


def complex_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def white_frame(rng: np.random.Generator, n: int, power: float = 1.0) -> np.ndarray:
    return np.sqrt(power / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, above what was traced when it started."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak - before
