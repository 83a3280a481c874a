"""Benchmark harness: frame-by-frame method evaluation, accuracy/stability metrics,
operation counting and CSV report emission.

Methods produce per-frame series.  ML is evaluated on every frame; the
windowed methods (MVU, AIC, CBE, MMSE) slide a trailing window of
``window_frames`` over the scenario, one step per frame, and report at the
window's last frame.  The SNR attached to each entry applies the excess-power
definition with the numerator measured on that frame's whole-band mean power.

Separation inputs follow each strategy's working regime: ideal and Fisher
masks are per frame, while the ROF mask is computed on the trailing window's
averaged periodogram (per-frame spectra fluctuate too much for the erosion
bandwidth search at low SNR).

All methods of one seed share a context: the scenario's resource block (one
(M, N) spectral array), its power matrix, a mask cache and, for CBE, one Gram
matrix.  Ideal and Fisher separation run once over the whole power matrix
(Fisher as one sorted scan per chunk of frames) and leave each frame's
noise-bin power sum and count, so ML divides two arrays and MVU folds the
sums of each window.  The erosion cascades of a method's ROF windows run
batched, one stack of averaged spectra at a time; CBE reads each window as a
slice of the Gram matrix; MMSE evaluates every window of the seed in one
batched pass over the spectral array (sliding window sums, FFT lags, one
Levinson solve per window).  The SNR of every entry comes from one array
expression.  With timing on, each method's evaluation is timed inside the
same per-seed loop and summed over seeds.

Operation counts are the paper's complexity model, kept in one place:
:func:`count_ops` books each method's closed forms in the block size.  The
estimators book nothing; the few data-dependent terms are read off uncounted
decisions on one counting frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np

from . import estimators as est
from . import separation as sep
from .errors import DegenerateSpectrumError
from .opcount import OpCounter, OpCounts
from .scenario import GroundTruth, ScenarioConfig, build_scenario, with_seed
from .spectral import PowerSpectrum, SpectralFrame, power_matrix, power_spectrum

ESTIMATOR_NAMES = ("ML", "MVU", "AIC", "CBE", "MMSE")
SEPARATION_NAMES = ("none", "ideal", "fisher", "rof")
DEFAULT_WINDOW_FRAMES = 100
ROF_CHUNK = 32  # averaged window spectra per batched erosion cascade


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark entry: an estimator, its separation strategy, and overrides.

    Recognized params: window_frames, lambda1_pct, lambda2_fraction,
    occupied_fraction, occupancy_from ("truth" or "aic"), grid_size, blind.
    """

    estimator: str
    separation: str = "none"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.separation not in SEPARATION_NAMES:
            raise ValueError(f"unknown separation {self.separation!r}")
        if self.estimator in ("ML", "MVU") and self.separation == "none":
            raise ValueError(f"{self.estimator} requires a separation strategy")
        if self.estimator in ("AIC", "CBE", "MMSE") and self.separation != "none":
            raise ValueError(f"{self.estimator} performs its own separation")

    @property
    def label(self) -> str:
        if self.separation == "none":
            return self.estimator
        return f"{self.estimator}({self.separation})"


@dataclass(frozen=True)
class EstimateSeries:
    """Per-frame estimates and SNR mapping of one method on one seeded scenario."""

    scenario_id: str
    seed: int
    method: str
    separation: str
    frame_index: np.ndarray
    noise_power_est_mw: np.ndarray
    noise_power_true_mw: np.ndarray
    snr_est_db: np.ndarray
    snr_true_db: np.ndarray

    def __post_init__(self):
        size = self.frame_index.size
        for name in ("noise_power_est_mw", "noise_power_true_mw", "snr_est_db", "snr_true_db"):
            if getattr(self, name).size != size:
                raise ValueError("series arrays must share one length")

    def __len__(self) -> int:
        return self.frame_index.size


@dataclass(frozen=True)
class BenchmarkReport:
    """Aggregated accuracy/stability metrics and operation counts for one method."""

    scenario_id: str
    method: str
    separation: str
    seed_count: int
    rmse_db: float
    std_dev_db: float
    mean_bias_db: float
    ops: OpCounts
    wall_time_ms: float = 0.0


def rmse_db(series: EstimateSeries, truth: GroundTruth) -> float:
    """Root-mean-square SNR error over frames with finite true SNR."""
    true_db = truth.true_snr_db[series.frame_index]
    keep = np.isfinite(true_db)
    if not keep.any():
        raise ValueError("no frames with finite true SNR to compare against")
    err = series.snr_est_db[keep] - true_db[keep]
    return float(np.sqrt(np.mean(err**2)))


def mean_bias_db(series: EstimateSeries, truth: GroundTruth) -> float:
    """Mean signed SNR error over frames with finite true SNR."""
    true_db = truth.true_snr_db[series.frame_index]
    keep = np.isfinite(true_db)
    if not keep.any():
        raise ValueError("no frames with finite true SNR to compare against")
    return float(np.mean(series.snr_est_db[keep] - true_db[keep]))


def sample_std(values: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) of a dB series."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least 2 entries")
    return float(np.std(values, ddof=1))


def std_dev_db(series: EstimateSeries) -> float:
    """Sample standard deviation of the estimated-SNR series about its own mean."""
    finite = series.snr_est_db[np.isfinite(series.snr_est_db)]
    return sample_std(finite)


def _rof_params(method: MethodSpec) -> sep.RofParams:
    return sep.RofParams(
        lambda1_pct=method.params.get("lambda1_pct", 5.0),
        lambda2_fraction=method.params.get("lambda2_fraction", 0.05),
    )


class _MaskProvider:
    """Per-seed cache of separation masks over one scenario's power matrix.

    Ideal and Fisher separation run once per seed over the whole matrix (the
    ground-truth mask, :func:`separation.fisher_signal_rows`); what the
    estimators need of them, each frame's noise-bin power sum and count, is
    kept per kind.  ROF masks are cached per trailing window and threshold
    set, so every method with the same ROF parameters reuses one computation
    per window.
    """

    def __init__(self, power: np.ndarray, truth: GroundTruth):
        self.power = power
        self.truth = truth
        self._noise_sums: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._window_cache: dict[tuple[int, int, sep.RofParams], sep.SeparationMask] = {}

    def frame_noise(self, kind: str, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Noise-bin power sums and counts of frames lo..hi-1 under their own masks.

        Raises DegenerateSpectrumError if one of those frames is all signal.
        """
        if kind not in self._noise_sums:
            if kind == "ideal":
                signal = self.truth.signal_bin_mask
            elif kind == "fisher":
                signal = sep.fisher_signal_rows(self.power)[0]
            else:
                raise ValueError(f"no per-frame mask for {kind!r}")
            noise = ~signal
            # compress keeps each row contiguous, so its sum is the same
            # pairwise sum as that of the frame's noise bins alone.
            sums = np.array([np.compress(keep, row).sum() for keep, row in zip(noise, self.power)])
            self._noise_sums[kind] = (sums, np.count_nonzero(noise, axis=1))
        sums, counts = self._noise_sums[kind]
        if not counts[lo:hi].all():
            raise DegenerateSpectrumError("mask classifies every bin as signal")
        return sums[lo:hi], counts[lo:hi]

    def prefill_rof(self, bounds: list[tuple[int, int]], params: sep.RofParams) -> None:
        """Build the ROF masks of the uncached windows [lo, hi) in batched cascades.

        A window whose mask cannot be built (all-zero average, every bin
        signal) is left uncached: requesting it recomputes it alone and
        raises there, in window order.
        """
        missing = [(lo, hi) for lo, hi in bounds if (lo, hi, params) not in self._window_cache]
        for start in range(0, len(missing), ROF_CHUNK):
            chunk = missing[start:start + ROF_CHUNK]
            spectra = np.stack([self.power[lo:hi].mean(axis=0) for lo, hi in chunk])
            for (lo, hi), spectrum, drops in zip(chunk, spectra,
                                                 sep.rof_energy_drops_rows(spectra)):
                if not spectrum.any():
                    continue
                try:
                    mask = sep.rof_separate(PowerSpectrum(spectrum, hi - 1), params, drops=drops)
                except DegenerateSpectrumError:
                    continue
                self._window_cache[(lo, hi, params)] = mask

    def rof_window_mask(self, lo: int, hi: int, params: sep.RofParams) -> sep.SeparationMask:
        key = (lo, hi, params)
        if key not in self._window_cache:
            averaged = PowerSpectrum(self.power[lo:hi].mean(axis=0), hi - 1)
            self._window_cache[key] = sep.rof_separate(averaged, params)
        return self._window_cache[key]


class _SeedContext:
    """One seeded scenario and the quantities every method evaluated on it shares."""

    def __init__(self, config: ScenarioConfig, seed: int):
        self.block, self.truth = build_scenario(with_seed(config, seed))
        self.power = power_matrix(self.block)
        self.frame_mean = self.power.mean(axis=1)
        self.masks = _MaskProvider(self.power, self.truth)
        self._gram: np.ndarray | None = None

    @property
    def gram(self) -> np.ndarray:
        """G = X X^H / N^2 over all frames; a window's covariance is G[lo:hi, lo:hi]."""
        if self._gram is None:
            self._gram = est.sample_covariance(self.block)
        return self._gram


def _occupancy(method: MethodSpec, truth: GroundTruth, frame: int,
               window_power: np.ndarray) -> float:
    explicit = method.params.get("occupied_fraction")
    if explicit is not None:
        return float(explicit)
    if method.params.get("occupancy_from") == "aic":
        window_pg = PowerSpectrum(window_power.mean(axis=0), frame)
        n_min = est.aic_estimate(window_pg, len(window_power)).diagnostics["n_min"]
        return n_min / window_pg.n_bins
    return truth.occupied_fraction(frame)


def _evaluate_method(method: MethodSpec, ctx: _SeedContext, scenario_id: str,
                     seed: int, last_only: bool = False) -> EstimateSeries:
    """One method's series on a seed; with last_only, its entry at the last frame alone."""
    power, truth, masks = ctx.power, ctx.truth, ctx.masks
    n_frames = power.shape[0]
    window = int(method.params.get("window_frames", min(n_frames, DEFAULT_WINDOW_FRAMES)))
    window = max(1, min(window, n_frames))
    rof = _rof_params(method)

    # ML reports at every frame, the windowed methods once their window is full.
    if last_only:
        first = n_frames - 1
    else:
        first = 0 if method.estimator == "ML" else window - 1
    frames = np.arange(first, n_frames)
    start = max(0, first - window + 1)  # the first frame any entry reads
    if method.separation in ("ideal", "fisher"):
        if method.estimator == "ML":
            values = est.ml_fit_frames(*masks.frame_noise(method.separation, first, n_frames))
        else:
            sums, counts = masks.frame_noise(method.separation, start, n_frames)
            values = est.mvu_fit_windows(sums, counts, window)
    elif method.estimator == "MMSE":
        fits = est.mmse_fit_windows(ctx.block.spectral[start:], window,
                                    blind=bool(method.params.get("blind", True)))
        values = np.array([fit.value_mw for fit in fits])
    else:
        bounds = [(max(0, f - window + 1), f + 1) for f in range(first, n_frames)]
        if method.separation == "rof":
            masks.prefill_rof(bounds, rof)
        if method.estimator == "ML":
            sums, counts = np.empty(len(bounds)), np.empty(len(bounds), dtype=np.int64)
            for i, (lo, hi) in enumerate(bounds):
                noise = masks.rof_window_mask(lo, hi, rof).noise_bins
                sums[i] = np.compress(noise, power[hi - 1]).sum()
                counts[i] = np.count_nonzero(noise)
            values = est.ml_fit_frames(sums, counts)
        else:
            values = np.array([_window_value(method, ctx, lo, hi, rof) for lo, hi in bounds])

    return EstimateSeries(
        scenario_id=scenario_id, seed=seed,
        method=method.estimator, separation=method.separation,
        frame_index=frames,
        noise_power_est_mw=values,
        noise_power_true_mw=truth.noise_power_mw[frames],
        snr_est_db=est.snr_db_from_powers(ctx.frame_mean[frames], values),
        snr_true_db=truth.true_snr_db[frames],
    )


def _window_value(method: MethodSpec, ctx: _SeedContext, lo: int, hi: int,
                  rof: sep.RofParams) -> float:
    """MVU(rof), AIC or CBE estimate of the window of frames lo..hi-1."""
    power, f = ctx.power, hi - 1
    if method.estimator == "MVU":
        noise = ctx.masks.rof_window_mask(lo, hi, rof).noise_bins
        # compress keeps rows contiguous, so each row sum is the same
        # pairwise sum as the frame's own (a boolean column index would lay
        # the copy out column-major).
        sums = np.compress(noise, power[lo:hi], axis=1).sum(axis=1)
        return est.mvu_fit(sums, np.full(hi - lo, np.count_nonzero(noise))).value_mw
    if method.estimator == "AIC":
        return est.aic_estimate(PowerSpectrum(power[lo:hi].mean(axis=0), f), hi - lo).value_mw
    fraction = _occupancy(method, ctx.truth, f, power[lo:hi])
    return est.cbe_fit(ctx.gram[lo:hi, lo:hi], power.shape[1], fraction,
                       grid_size=int(method.params.get("grid_size", 100))).value_mw


def _run_seeds(config: ScenarioConfig, methods: list[MethodSpec], seeds: list[int]
               ) -> tuple[list[EstimateSeries], dict[int, GroundTruth], dict[str, float]]:
    """Series, ground truth per seed, and each method's evaluation time in ms.

    A method's time is summed over seeds.  It excludes building the seed's
    context but includes the shared masks or Gram matrix it is first to need.
    """
    if not methods:
        raise ValueError("need at least one method")
    if not seeds:
        raise ValueError("need at least one seed")
    out: list[EstimateSeries] = []
    truths: dict[int, GroundTruth] = {}
    wall = dict.fromkeys((m.label for m in methods), 0.0)
    for seed in seeds:
        ctx = _SeedContext(config, seed)
        for m in methods:
            start = time.perf_counter()
            out.append(_evaluate_method(m, ctx, config.name, seed))
            wall[m.label] += 1e3 * (time.perf_counter() - start)
        truths[seed] = ctx.truth
    return out, truths, wall


def run_scenario(config: ScenarioConfig, methods: list[MethodSpec],
                 seeds: list[int]) -> list[EstimateSeries]:
    """Evaluate every method over every seeded realization of the scenario.

    Seeds run one after another and results are ordered by (seed, method)
    position.  Threads do not pay here: the per-seed work is many small
    numpy calls that hold the interpreter lock, and a seed pool ran the
    reference matrix slower than a serial loop on a two-core machine.
    """
    return _run_seeds(config, methods, seeds)[0]


def last_window_estimate(config: ScenarioConfig, method: MethodSpec,
                         seed: int) -> EstimateSeries:
    """The method's one-entry series at the scenario's last frame.

    Only the window ending there is evaluated (ideal and Fisher masks still
    cover the whole seed, which costs one batched pass).  The entry is the
    last entry of the full series; for MMSE up to rounding, because its lone
    window is not evaluated inside the batched chunk that holds it there.
    """
    return _evaluate_method(method, _SeedContext(config, seed), config.name, seed,
                            last_only=True)


def ground_truths(config: ScenarioConfig, seeds: list[int]) -> dict[int, GroundTruth]:
    """Ground truth per seed; builds each seeded scenario in full."""
    return {s: build_scenario(with_seed(config, s))[1] for s in seeds}


def _metric_or_nan(metric, *args) -> float:
    try:
        return metric(*args)
    except ValueError:
        return float("nan")


def build_reports(config: ScenarioConfig, methods: list[MethodSpec],
                  series: list[EstimateSeries], truths: dict[int, GroundTruth],
                  wall_times_ms: dict[str, float] | None = None) -> list[BenchmarkReport]:
    """Per-method aggregation: seed-averaged RMSE/stability plus operation counts.

    truths maps every seed in series to its ground truth.  wall_times_ms is
    opt-in; by default the column is written as 0.0 so that identical runs
    emit byte-identical reports.
    """
    reports = []
    for method in methods:
        own = [s for s in series
               if s.method == method.estimator and s.separation == method.separation]
        if not own:
            continue
        rmses, stds, biases = [], [], []
        for s in own:
            truth = truths[s.seed]
            # Scenarios without signal have no finite true SNR; the SNR-error
            # metrics are undefined there and reported as NaN.
            rmses.append(_metric_or_nan(rmse_db, s, truth))
            biases.append(_metric_or_nan(mean_bias_db, s, truth))
            stds.append(_metric_or_nan(std_dev_db, s))
        reports.append(BenchmarkReport(
            scenario_id=config.name,
            method=method.estimator,
            separation=method.separation,
            seed_count=len(own),
            rmse_db=float(np.mean(rmses)),
            std_dev_db=float(np.mean(stds)),
            mean_bias_db=float(np.mean(biases)),
            ops=count_ops(method, config.n_bins).counts,
            wall_time_ms=(wall_times_ms or {}).get(method.label, 0.0),
        ))
    return reports


def run_benchmark(config: ScenarioConfig, methods: list[MethodSpec], seeds: list[int],
                  timing: bool = False) -> tuple[list[EstimateSeries], list[BenchmarkReport]]:
    """Full pass: series for every (method, seed) plus aggregated reports.

    With timing, each report carries its method's evaluation time summed over
    seeds (scenario builds excluded); without, the column stays 0.0.
    """
    series, truths, wall = _run_seeds(config, methods, seeds)
    reports = build_reports(config, methods, series, truths,
                            wall_times_ms=wall if timing else None)
    return series, reports


# --- operation counting ------------------------------------------------------


@lru_cache(maxsize=4)
def _counting_frame(n: int) -> np.ndarray:
    """DFT of the last frame of an n-frame, n-bin unit-power white block; read-only.

    Frame i of that block is the DFT of 2n standard normals from a fixed
    Philox key (n real parts, then n imaginary parts) over sqrt(2).  The
    n - 1 earlier frames are drawn 64 at a time into one buffer and dropped;
    only the last one is transformed.
    """
    rng = np.random.Generator(np.random.Philox(key=12345))
    skip = np.empty((min(n - 1, 64), 2 * n))
    for lo in range(0, n - 1, len(skip)):
        rng.standard_normal(out=skip[:n - 1 - lo])
    draws = rng.standard_normal((2, n))
    frame = np.fft.fft((draws[0] + 1j * draws[1]) / np.sqrt(2))
    frame.setflags(write=False)
    return frame


def _book_rof(ops: OpCounter, power: PowerSpectrum, params: sep.RofParams) -> sep.SeparationMask:
    n = power.n_bins
    mask = sep.rof_separate(power, params)
    # Per window size k = 2..n: n comparisons, an (n-1)-addition energy sum,
    # and one subtraction plus two multiplications for its drop.
    ops.cmp(n * (n - 1))
    ops.add(n * (n - 1))
    ops.mul(2 * (n - 1))
    # Bandwidth search: the curve's argmax, then one comparison per walk step.
    walk = mask.aux["K"] - (int(np.argmax(mask.aux["d_curve"])) + 2)
    ops.cmp(n - 1 + walk)
    ops.add(3 * n)  # running sum updates and forward differences
    ops.mul(n)
    ops.cmp(2 * n)  # sign tests and run-width checks
    return mask


def _book_fisher(ops: OpCounter, power: PowerSpectrum) -> sep.SeparationMask:
    n = power.n_bins
    amplitude = np.sqrt(power.power)
    ops.transcend(n)
    ops.cmp(int(n * np.log2(n)))  # sorting the amplitudes
    if amplitude.min() < amplitude.max():
        # The direct scan: scoring one split is ~4N operations and N-3 splits
        # are scanned.  A constant spectrum stops before the scan.
        ops.add(4 * n * (n - 3))
        ops.mul(6 * (n - 3))
        ops.cmp(n - 3)
    return sep.fisher_separate(power)


def _book_aic(ops: OpCounter, power: PowerSpectrum) -> None:
    n = power.n_bins
    ops.mul(n)  # running periodogram average update
    ops.add(n)
    n_min = est.aic_estimate(power, n).diagnostics["n_min"]
    ops.cmp(int(n * np.log2(n)))  # sorting the bins
    # The per-order direct evaluation: a t-bin tail costs 2(t-1) additions,
    # t+4 multiplications and t+2 transcendentals, summed over t = 1..n.
    ops.add(n * (n - 1))
    ops.mul(n * (n + 1) // 2 + 4 * n)
    ops.transcend(n * (n + 1) // 2 + 2 * n)
    ops.cmp(n - 1)  # the minimizing order
    ops.add(n - n_min)  # mean of the bins below it


def _book_cbe(ops: OpCounter, m: int, occupied_fraction: float, grid_size: int) -> None:
    """Covariance of m frames of 2m bins, its eigensolve and the grid fit."""
    n = 2 * m
    s = int(round(m * occupied_fraction))
    if not 0.0 <= occupied_fraction < 1.0 or s >= m or grid_size < 2:
        raise ValueError(f"CBE at {m} frames needs 0 <= occupied_fraction < 1 with a noise "
                         f"group left and grid_size >= 2, got {occupied_fraction} and {grid_size}")
    with ops.stage("covariance-matmul"):
        ops.mul(m * m * n)
        ops.add(m * m * (n - 1))
    with ops.stage("eigensolve"):
        ops.mul(4 * m**3 // 3)
        ops.add(4 * m**3 // 3)
    cells = grid_size * (m - s)  # every candidate power against every noise eigenvalue
    with ops.stage("mp-fit"):
        ops.transcend(cells)
        ops.add(3 * cells)
        ops.mul(2 * cells)
        ops.cmp(grid_size)


def _book_mmse(ops: OpCounter, n: int, blind: bool) -> None:
    """One window of n frames of n bins; the weight system is n x n."""
    if blind:
        ops.add(2 * n * n)  # reference mean, subtracted from every frame
        ops.mul(n)
    ops.mul(2 * n * (n - 1) + n)  # subcarrier variances
    ops.add(n * (n - 1))
    ops.mul(n * (n + 1) // 2 + n)  # frequency-lag autocorrelation
    ops.add(n * (n + 1) // 2)
    ops.mul(2 * n * n)  # Levinson recursion on a symmetric Toeplitz system
    ops.add(2 * n * n)
    ops.mul(3 * n)  # normalized weights applied to the last frame's powers
    ops.add(n)


def _counting_power(n: int) -> PowerSpectrum:
    return power_spectrum(SpectralFrame(_counting_frame(n), n - 1))


def count_ops(method: MethodSpec, n: int) -> OpCounter:
    """Scalar operations of one estimation pass at block size n: the complexity model.

    Every method is charged in closed form on an n-frame block: ML, MVU, AIC
    and MMSE at n bins, CBE at 2n bins because the Marchenko-Pastur edge
    formulas degenerate on square blocks (the covariance matrix it
    decomposes is n x n either way).  Only the final frame's transform is
    booked: the model charges one FFT per batch of N new samples.  The few
    data-dependent terms (the ROF bandwidth walk at the method's own
    thresholds, whether Fisher's spectrum is constant, the ML/MVU noise-bin
    count and AIC's selected order) are read off uncounted decisions on one
    counting frame, the last frame of a fixed white block; CBE, MMSE and
    ideal separation draw no frame.  CBE's Marchenko-Pastur fit is charged
    for ``grid_size`` candidates, also where an estimate's candidate range
    collapses to a single point.
    """
    if n < 16:
        raise ValueError("operation counting needs n >= 16")
    ops = OpCounter()
    bins = 2 * n if method.estimator == "CBE" else n
    ops.fft(bins)
    ops.mul(3 * bins)  # power spectrum: two squarings per bin, then the 1/N scaling
    ops.add(bins)
    if method.estimator == "CBE":
        _book_cbe(ops, n, float(method.params.get("occupied_fraction", 0.25)),
                  int(method.params.get("grid_size", 100)))
    elif method.estimator == "MMSE":
        _book_mmse(ops, n, bool(method.params.get("blind", True)))
    elif method.estimator == "AIC":
        _book_aic(ops, _counting_power(n))
    else:
        noise = n
        if method.separation == "rof":
            mask = _book_rof(ops, _counting_power(n), _rof_params(method))
            noise = int(np.count_nonzero(mask.noise_bins))
        elif method.separation == "fisher":
            noise = int(np.count_nonzero(_book_fisher(ops, _counting_power(n)).noise_bins))
        ops.add(noise - 1)  # mean over the noise bins
        ops.mul(1)
        if method.estimator == "MVU":
            ops.add(n)  # fold the frame into the block's running noise mean
    return ops


# --- CSV emission -------------------------------------------------------------

SERIES_COLUMNS = (
    "scenario_id", "seed", "method", "separation", "frame_index",
    "noise_power_est_mw", "noise_power_true_mw", "snr_est_db", "snr_true_db",
)
REPORT_COLUMNS = (
    "scenario_id", "method", "separation", "seed_count", "rmse_db", "std_dev_db",
    "mean_bias_db", "ops_add", "ops_mul", "ops_cmp", "ops_transcendental", "wall_time_ms",
)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def write_series_csv(path: str | Path, series: list[EstimateSeries]) -> None:
    """Per-frame series rows, sorted by (method, separation, seed, frame)."""
    rows = []
    for s in sorted(series, key=lambda s: (s.method, s.separation, s.seed)):
        for i in range(len(s)):
            rows.append((
                s.scenario_id, s.seed, s.method, s.separation, int(s.frame_index[i]),
                float(s.noise_power_est_mw[i]), float(s.noise_power_true_mw[i]),
                float(s.snr_est_db[i]), float(s.snr_true_db[i]),
            ))
    _write_csv(path, SERIES_COLUMNS, rows)


def write_report_csv(path: str | Path, reports: list[BenchmarkReport]) -> None:
    """Aggregated report rows, sorted by (method, separation)."""
    rows = []
    for r in sorted(reports, key=lambda r: (r.method, r.separation)):
        rows.append((
            r.scenario_id, r.method, r.separation, r.seed_count, r.rmse_db,
            r.std_dev_db, r.mean_bias_db, r.ops.adds, r.ops.muls, r.ops.cmps,
            r.ops.transcendental, r.wall_time_ms,
        ))
    _write_csv(path, REPORT_COLUMNS, rows)


def _write_csv(path: str | Path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
