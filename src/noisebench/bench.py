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
matrix.  The mask cache builds one stack of trailing-window averages per
window length, which ROF masks, AIC and CBE's AIC occupancy all read, and
holds, per separation in use, one row per frame: the mask that applies at
that frame and the frame's noise-bin power sum and count.  Rows are
separated on first request, one batched engine call on a slice of their
input (Fisher as one sorted scan, ROF as one erosion cascade and one
vectorised decision per chunk), so ML divides two arrays for every
separation; MVU folds the sums of each window (ideal, Fisher) or its frames'
sums under its ROF mask.  Every method ends in one call of an array engine
of :mod:`estimators` over all its windows, which chunks its rows itself, and
no per-window estimate object is built: AIC scores rows of the averages
stack, CBE fits the Gram matrix's diagonal blocks with one signal count per
window, MMSE runs batched sliding sums, FFT lags and conjugate-gradient solves.
The SNR of every entry comes from one array expression.  With timing on, each
method's evaluation is timed inside the same per-seed loop and summed over seeds.

Operation counts are the paper's complexity model, kept in one place:
:func:`count_ops` books each method's closed forms in the block size.  The
estimators book nothing; the few data-dependent terms are read off uncounted
decisions on one counting frame, a slice of one shared white stream.
:func:`count_ops_table` books a whole size sweep from one walk of that stream.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from numbers import Integral
from pathlib import Path
from types import MappingProxyType
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
METHOD_PARAMS = frozenset({"window_frames", "lambda1_pct", "lambda2_fraction", "occupied_fraction",
                           "occupancy_from", "grid_size", "blind"})


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark entry: an estimator, its separation strategy, and overrides.

    ``params`` may set any of ``METHOD_PARAMS``; another key, an
    ``occupancy_from`` other than "truth" or "aic", an ``occupied_fraction``
    outside [0, 1), a ``window_frames`` that is not an integer >= 1, a
    ``grid_size`` that is not an integer >= 2 (a bool is neither), a
    ``blind`` that is not a bool, or ROF thresholds that ``RofParams``
    rejects raises ValueError.  The spec keeps a read-only copy of the params
    it checked, so setting a key afterwards raises TypeError.  Specs hash by
    estimator and separation, so they can key a dict; equality also compares
    the params.
    """

    estimator: str
    separation: str = "none"
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.estimator not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.separation not in SEPARATION_NAMES:
            raise ValueError(f"unknown separation {self.separation!r}")
        if self.estimator in ("ML", "MVU") and self.separation == "none":
            raise ValueError(f"{self.estimator} requires a separation strategy")
        if self.estimator in ("AIC", "CBE", "MMSE") and self.separation != "none":
            raise ValueError(f"{self.estimator} performs its own separation")
        unknown = set(self.params) - METHOD_PARAMS
        if unknown:
            raise ValueError(f"unknown method param(s): {', '.join(sorted(unknown))}")
        if self.params.get("occupancy_from", "truth") not in ("truth", "aic"):
            raise ValueError(f"occupancy_from must be 'truth' or 'aic', "
                             f"got {self.params['occupancy_from']!r}")
        fraction = self.params.get("occupied_fraction")
        if fraction is not None and not 0.0 <= fraction < 1.0:
            raise ValueError("occupied_fraction must lie in [0, 1)")
        for name, least in (("window_frames", 1), ("grid_size", 2)):
            value = self.params.get(name, least)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not isinstance(self.params.get("blind", True), bool):
            raise ValueError(f"blind must be a bool, got {self.params['blind']!r}")
        _rof_params(self)

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


def _snr_errors(series: EstimateSeries) -> np.ndarray:
    """Estimated minus true SNR over the series' entries with finite true SNR."""
    keep = np.isfinite(series.snr_true_db)
    if not keep.any():
        raise ValueError("no frames with finite true SNR to compare against")
    return series.snr_est_db[keep] - series.snr_true_db[keep]


def rmse_db(series: EstimateSeries) -> float:
    """Root-mean-square SNR error over entries with finite true SNR."""
    return float(np.sqrt(np.mean(_snr_errors(series) ** 2)))


def mean_bias_db(series: EstimateSeries) -> float:
    """Mean signed SNR error over entries with finite true SNR."""
    return float(np.mean(_snr_errors(series)))


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
    """The method's ROF thresholds; those it does not set keep RofParams' defaults."""
    return sep.RofParams(**{f.name: method.params[f.name] for f in fields(sep.RofParams)
                            if f.name in method.params})


class _MaskProvider:
    """Per-seed cache of window averages and separation masks over one power matrix.

    ``window_means(window)`` is the (M, N) stack whose row f is the mean
    spectrum of the trailing window of at most ``window`` frames ending at f,
    built once per window length.  A separation is keyed ``"ideal"``,
    ``"fisher"`` or ``("rof", window, RofParams)``.  Row f of its cache is the
    noise mask that applies at frame f: the frame's own for ideal and Fisher,
    that of the trailing window ending at f (row f of the window averages)
    for ROF.  Every request asks for a suffix of the rows; the cached rows of
    a key are one suffix too, and the rows between the two are separated in
    one batched pass on a slice of their input.  Each frame's noise-bin power
    sum and count are kept next to its mask, so methods sharing a separation
    share one computation.
    """

    def __init__(self, power: np.ndarray, truth: GroundTruth):
        self.power = power
        self.truth = truth
        self._means: dict[int, np.ndarray] = {}
        self._rows: dict[Any, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}

    def window_means(self, window: int) -> np.ndarray:
        """Read-only (M, N) stack of trailing-window mean spectra, built on first use."""
        if window not in self._means:
            means = np.empty(self.power.shape)
            for f, row in enumerate(means):
                np.mean(self.power[max(0, f - window + 1):f + 1], axis=0, out=row)
            means.setflags(write=False)
            self._means[window] = means
        return self._means[window]

    def noise_rows(self, key, lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Noise masks of rows lo..M-1, and each frame's noise-bin power sum and count.

        Raises DegenerateSpectrumError if one of those rows is all signal; the
        rows that request separated are then not cached.
        """
        m, n = self.power.shape
        start, noise, sums, counts = self._rows.get(key) or (
            m, np.empty((m, n), dtype=bool), np.empty(m), np.empty(m, dtype=np.int64))
        if lo < start:
            noise[lo:start] = ~self._signal_rows(key, lo, start)
            counts[lo:start] = np.count_nonzero(noise[lo:start], axis=1)
            if not counts[lo:start].all():
                raise DegenerateSpectrumError("mask classifies every bin as signal")
            # compress keeps each row contiguous, so its sum is the same
            # pairwise sum as that of the frame's noise bins alone.
            sums[lo:start] = [np.compress(keep, row).sum()
                              for keep, row in zip(noise[lo:start], self.power[lo:start])]
            self._rows[key] = (lo, noise, sums, counts)
        return noise[lo:], sums[lo:], counts[lo:]

    def _signal_rows(self, key, lo: int, hi: int) -> np.ndarray:
        if key == "ideal":
            return self.truth.signal_bin_mask[lo:hi]
        if key == "fisher":
            return sep.fisher_signal_rows(self.power[lo:hi])[0]
        _, window, params = key
        return sep.rof_signal_rows(self.window_means(window)[lo:hi], params)


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


def _signal_counts(method: MethodSpec, ctx: _SeedContext, frames: np.ndarray,
                   window: int) -> np.ndarray:
    """CBE's signal count S = round(window * fraction) per window: the fraction is the
    method's ``occupied_fraction``, AIC's order over the bin count, or ground truth at
    the window's last frame."""
    explicit = method.params.get("occupied_fraction")
    if explicit is not None:
        fractions = np.full(frames.size, float(explicit))
    elif method.params.get("occupancy_from") == "aic":
        fractions = est.aic_fit_rows(ctx.masks.window_means(window)[frames],
                                     window)[1] / ctx.power.shape[1]
    else:
        fractions = ctx.truth.signal_bin_mask[frames].mean(axis=1)
    return np.rint(window * fractions).astype(np.int64)


def _evaluate_method(method: MethodSpec, ctx: _SeedContext, scenario_id: str,
                     seed: int, last_only: bool = False) -> EstimateSeries:
    """One method's series on a seed; with last_only, its entry at the last frame alone."""
    power, truth, masks = ctx.power, ctx.truth, ctx.masks
    n_frames = power.shape[0]
    window = min(method.params.get("window_frames", DEFAULT_WINDOW_FRAMES), n_frames)

    # ML reports at every frame, the windowed methods once their window is full.
    if last_only:
        first = n_frames - 1
    else:
        first = 0 if method.estimator == "ML" else window - 1
    frames = np.arange(first, n_frames)
    key = ("rof", window, _rof_params(method)) if method.separation == "rof" else method.separation
    if method.estimator == "ML":
        values = est.ml_fit_frames(*masks.noise_rows(key, first)[1:])
    elif method.separation == "rof":
        # MVU; every window is full here, and the mask of the window ending
        # at f applies to all of its frames.
        noise, _, counts = masks.noise_rows(key, first)
        sums = np.stack([np.compress(keep, power[f - window + 1:f + 1], axis=1).sum(axis=1)
                         for f, keep in zip(frames, noise)])
        values = est.mvu_fit_rows(sums, np.broadcast_to(counts[:, None], sums.shape))
    elif method.estimator == "MVU":
        values = est.mvu_fit_windows(*masks.noise_rows(key, first - window + 1)[1:], window)
    elif method.estimator == "MMSE":
        values = est.mmse_fit_windows(ctx.block.spectral[first - window + 1:], window,
                                      blind=method.params.get("blind", est.MMSE_BLIND))[0]
    elif method.estimator == "AIC":
        # Every window is full here, so each holds ``window`` frames.
        values = est.aic_fit_rows(masks.window_means(window)[first:], window)[0]
    else:
        lo = first - window + 1
        values = est.cbe_fit_windows(ctx.gram[lo:, lo:], power.shape[1], window,
                                     _signal_counts(method, ctx, frames, window),
                                     method.params.get("grid_size", est.CBE_GRID_SIZE))[0]

    return EstimateSeries(
        scenario_id=scenario_id, seed=seed,
        method=method.estimator, separation=method.separation,
        frame_index=frames,
        noise_power_est_mw=values,
        noise_power_true_mw=truth.noise_power_mw[frames],
        snr_est_db=est.snr_db_from_powers(ctx.frame_mean[frames], values),
        snr_true_db=truth.true_snr_db[frames],
    )


def _run_seeds(config: ScenarioConfig, methods: list[MethodSpec], seeds: list[int]
               ) -> tuple[list[EstimateSeries], dict[str, float]]:
    """Series, and each method's evaluation time in ms.

    A method's time is summed over seeds.  It excludes building the seed's
    context but includes the shared masks or Gram matrix it is first to need.
    """
    if not methods:
        raise ValueError("need at least one method")
    if not seeds:
        raise ValueError("need at least one seed")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ValueError(f"seed {repeated} is given more than once")
    out: list[EstimateSeries] = []
    wall = dict.fromkeys((m.label for m in methods), 0.0)
    for seed in seeds:
        ctx = _SeedContext(config, seed)
        for m in methods:
            start = time.perf_counter()
            out.append(_evaluate_method(m, ctx, config.name, seed))
            wall[m.label] += 1e3 * (time.perf_counter() - start)
    return out, wall


def run_scenario(config: ScenarioConfig, methods: list[MethodSpec],
                 seeds: list[int]) -> list[EstimateSeries]:
    """Evaluate every method over every seeded realization of the scenario.

    Seeds run one after another and results are ordered by (seed, method)
    position.  Threads do not pay here: the per-seed work is many small
    numpy calls that hold the interpreter lock, and a seed pool ran the
    reference matrix slower than a serial loop on a two-core machine.  A
    second BLAS thread does not pay either, so ``noisebench`` calls run
    numpy's OpenBLAS on one thread (``cli.main``); called directly, this
    function uses whatever BLAS thread count the caller has set.
    """
    return _run_seeds(config, methods, seeds)[0]


def last_window_estimate(config: ScenarioConfig, method: MethodSpec,
                         seed: int) -> EstimateSeries:
    """The method's one-entry series at the scenario's last frame.

    Only the window ending there is evaluated, and ideal and Fisher separate
    only the frames it reads: the last frame for ML, the window's frames for
    MVU.  ROF and AIC still average the windows ending at every frame, the
    one stack the cache builds per window length.  The entry is the last entry of the full series; for MMSE up to
    rounding, because its lone window is not evaluated inside the batched
    chunk that holds it there.
    """
    return _evaluate_method(method, _SeedContext(config, seed), config.name, seed,
                            last_only=True)


def ground_truths(config: ScenarioConfig, seeds: list[int]) -> dict[int, GroundTruth]:
    """Ground truth per seed; builds each seeded scenario in full."""
    return {s: build_scenario(with_seed(config, s))[1] for s in seeds}


def _metric_or_nan(metric, series: EstimateSeries) -> float:
    try:
        return metric(series)
    except ValueError:
        return float("nan")


def build_reports(config: ScenarioConfig, methods: list[MethodSpec],
                  series: list[EstimateSeries],
                  wall_times_ms: dict[str, float] | None = None) -> list[BenchmarkReport]:
    """Per-method aggregation: seed-averaged RMSE/stability plus operation counts.

    The metrics read each series alone, its true SNR included.  wall_times_ms
    is opt-in; by default the column is written as 0.0 so that identical runs
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
            # Scenarios without signal have no finite true SNR; the SNR-error
            # metrics are undefined there and reported as NaN.
            rmses.append(_metric_or_nan(rmse_db, s))
            biases.append(_metric_or_nan(mean_bias_db, s))
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
    series, wall = _run_seeds(config, methods, seeds)
    reports = build_reports(config, methods, series, wall_times_ms=wall if timing else None)
    return series, reports


# --- operation counting ------------------------------------------------------


_COUNTING_KEY = 12345  # Philox key of the counting stream
_COUNTING_DRAW = 65_536  # normals per draw while walking past the stream's unused part


def _counting_frames(sizes) -> dict[int, np.ndarray]:
    """Counting frame of each distinct size, from one walk of the counting stream.

    The counting stream is the standard normals of ``Philox(key=12345)``.
    Frame n is the last frame of an n-frame, n-bin unit-power white block
    drawn from it, frame by frame: the DFT of normals [2n(n - 1), 2n^2) (n
    real parts, then n imaginary parts) over sqrt(2), read-only.  These
    ranges are disjoint and lie later for larger n, so one walk in ascending
    size serves every size, drawing 2 max(n)^2 normals in all.  The normal
    sampler takes a variable number of words per draw, so Philox cannot skip
    ahead: the normals between two frames are drawn into one fixed buffer and
    dropped.
    """
    rng = np.random.Generator(np.random.Philox(key=_COUNTING_KEY))
    skip = np.empty(_COUNTING_DRAW)
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
        frame = np.fft.fft((draws[0] + 1j * draws[1]) / np.sqrt(2))
        frame.setflags(write=False)
        frames[n] = frame
    return frames


@lru_cache(maxsize=4)
def _counting_frame(n: int) -> np.ndarray:
    """The counting frame of size n (see :func:`_counting_frames`), memoised.

    ``run`` and ``estimate`` count their methods at one size per call, so a
    small memo serves them; ``noisebench ops`` walks the stream once per call
    through :func:`count_ops_table` instead and leaves this memo alone.
    """
    return _counting_frames((n,))[n]


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
    mask = sep.fisher_separate(power)
    ops.transcend(n)
    ops.cmp(int(n * np.log2(n)))  # sorting the amplitudes
    if mask.aux["split"] is not None:
        # The direct scan: scoring one split is ~4N operations and N-3 splits
        # are scanned.  A spectrum without a split (a constant one) stops before it.
        ops.add(4 * n * (n - 3))
        ops.mul(6 * (n - 3))
        ops.cmp(n - 3)
    return mask


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
    if s >= m or grid_size < 2:
        raise ValueError(f"CBE at {m} frames needs a noise group left and grid_size >= 2, "
                         f"got occupied_fraction {occupied_fraction} and grid_size {grid_size}")
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


def _counting_power(n: int, frames: dict[int, np.ndarray] | None = None) -> PowerSpectrum:
    """Power spectrum of the counting frame of size n: from ``frames`` if given, else the memo."""
    frame = _counting_frame(n) if frames is None else frames[n]
    return power_spectrum(SpectralFrame(frame, n - 1))


def _reads_counting_frame(method: MethodSpec) -> bool:
    return method.estimator == "AIC" or method.separation in ("rof", "fisher")


def count_ops(method: MethodSpec, n: int, *,
              frames: dict[int, np.ndarray] | None = None) -> OpCounter:
    """Scalar operations of one estimation pass at block size n: the complexity model.

    Every method is charged in closed form on an n-frame block: ML, MVU, AIC
    and MMSE at n bins, CBE at 2n bins because the Marchenko-Pastur edge
    formulas degenerate on square blocks (the covariance matrix it
    decomposes is n x n either way).  Only the final frame's transform is
    booked: the model charges one FFT per batch of N new samples.  The few
    data-dependent terms (the ROF bandwidth walk at the method's own
    thresholds, whether Fisher's spectrum is constant, the ML/MVU noise-bin
    count and AIC's selected order) are read off uncounted decisions on the
    counting frame of size n, a slice of one shared white stream (see
    :func:`_counting_frames`); CBE, MMSE and ideal separation read no frame.
    The frame comes from ``frames`` (the frames of one stream walk, keyed by
    size) when given, else from the per-process memo.  CBE's
    Marchenko-Pastur fit is charged for ``grid_size`` candidates, which is
    what the fit evaluates: a collapsed candidate range is ``grid_size``
    equal candidates.
    """
    if n < 16:
        raise ValueError("operation counting needs n >= 16")
    ops = OpCounter()
    power = _counting_power(n, frames) if _reads_counting_frame(method) else None
    bins = 2 * n if method.estimator == "CBE" else n
    ops.fft(bins)
    ops.mul(3 * bins)  # power spectrum: two squarings per bin, then the 1/N scaling
    ops.add(bins)
    if method.estimator == "CBE":
        _book_cbe(ops, n, method.params.get("occupied_fraction", 0.25),
                  method.params.get("grid_size", est.CBE_GRID_SIZE))
    elif method.estimator == "MMSE":
        _book_mmse(ops, n, method.params.get("blind", est.MMSE_BLIND))
    elif method.estimator == "AIC":
        _book_aic(ops, power)
    else:
        noise = n
        if method.separation == "rof":
            mask = _book_rof(ops, power, _rof_params(method))
            noise = int(np.count_nonzero(mask.noise_bins))
        elif method.separation == "fisher":
            noise = int(np.count_nonzero(_book_fisher(ops, power).noise_bins))
        ops.add(noise - 1)  # mean over the noise bins
        ops.mul(1)
        if method.estimator == "MVU":
            ops.add(n)  # fold the frame into the block's running noise mean
    return ops


def count_ops_table(methods: list[MethodSpec], sizes: list[int]) -> list[list[OpCounter]]:
    """:func:`count_ops` of every method at every size, one row per method.

    Row i holds ``methods[i]``'s counters in the order of ``sizes``, a
    repeated size included.  The counting frames of all sizes come
    from one walk of the counting stream, O(max(sizes)^2) normals, made only
    if a method reads a frame; the per-process memo of :func:`_counting_frame`
    is neither read nor filled.
    """
    if not sizes:
        raise ValueError("need at least one size")
    if min(sizes) < 16:
        raise ValueError("operation counting needs n >= 16")
    frames = _counting_frames(sizes) if any(map(_reads_counting_frame, methods)) else {}
    return [[count_ops(method, n, frames=frames) for n in sizes] for method in methods]


# --- CSV emission -------------------------------------------------------------

SERIES_COLUMNS = (
    "scenario_id", "seed", "method", "separation", "frame_index",
    "noise_power_est_mw", "noise_power_true_mw", "snr_est_db", "snr_true_db",
)
REPORT_COLUMNS = (
    "scenario_id", "method", "separation", "seed_count", "rmse_db", "std_dev_db",
    "mean_bias_db", "ops_add", "ops_mul", "ops_cmp", "ops_transcendental", "wall_time_ms",
)


# One format per table: strings as they are, integers with %d, floats with
# %.9g (so inf, -inf and nan print as such).
_SERIES_ROW = "%s,%d,%s,%s,%d,%.9g,%.9g,%.9g,%.9g\n"
_REPORT_ROW = "%s,%s,%s,%d,%.9g,%.9g,%.9g,%d,%d,%d,%d,%.9g\n"


def write_series_csv(path: str | Path, series: list[EstimateSeries]) -> None:
    """Per-frame series rows, sorted by (method, separation, seed, frame)."""
    lines = []
    for s in sorted(series, key=lambda s: (s.method, s.separation, s.seed)):
        head = (s.scenario_id, s.seed, s.method, s.separation)
        lines.extend(_SERIES_ROW % (head + row) for row in zip(
            s.frame_index.tolist(), s.noise_power_est_mw.tolist(),
            s.noise_power_true_mw.tolist(), s.snr_est_db.tolist(), s.snr_true_db.tolist(),
        ))
    _write_csv(path, SERIES_COLUMNS, lines)


def write_report_csv(path: str | Path, reports: list[BenchmarkReport]) -> None:
    """Aggregated report rows, sorted by (method, separation)."""
    lines = [
        _REPORT_ROW % (
            r.scenario_id, r.method, r.separation, r.seed_count, r.rmse_db,
            r.std_dev_db, r.mean_bias_db, r.ops.adds, r.ops.muls, r.ops.cmps,
            r.ops.transcendental, r.wall_time_ms,
        )
        for r in sorted(reports, key=lambda r: (r.method, r.separation))
    ]
    _write_csv(path, REPORT_COLUMNS, lines)


def _write_csv(path: str | Path, columns: tuple[str, ...], lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)
