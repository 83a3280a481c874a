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

All methods of one seed share one context object: the scenario's resource
block (one (M, N) spectral array), its power matrix and, for CBE, one Gram
matrix built on first use.  The context builds one stack of trailing-window
averages per window length, which ROF masks, AIC and CBE's AIC occupancy all
read, and holds, per separation in use, one row per frame: the mask that
applies at that frame and the frame's noise-bin power sum and count.  Rows are
separated on first request, one batched engine call on a slice of their
input (Fisher as one sorted scan, ROF as one erosion cascade and one
vectorised decision per chunk), so ML divides two arrays for every
separation.  MVU's windows are built here alone: a sliding view of the
per-frame sums (ideal, Fisher) or the window's frames summed under its ROF
mask, gathered once per run of windows that share a mask; one
``mvu_fit_rows`` call folds them.
Every method ends in one call of an array engine of :mod:`estimators` over
all its windows, which chunks its rows itself, and no per-window estimate
object is built: AIC scores rows of the averages stack (one fit per window
length, which CBE's AIC occupancy reads too), CBE fits the Gram matrix's
diagonal blocks with one signal count per window, MMSE runs batched sliding
sums, FFT lags and conjugate-gradient solves.  The engines and the separated
rows return a status per entry, and the evaluation raises the first failing
entry's error (:func:`~noisebench.errors.raise_first_status`).
The SNR of every entry comes from one array expression.  With timing on, each
method's evaluation is timed inside the same per-seed loop and summed over seeds.

Operation counts are the paper's complexity model, kept in one table:
:func:`count_ops_table` books each method's closed forms at each block size,
and :func:`count_ops` is its one-cell case.  The estimators book nothing; the
few data-dependent terms are read off uncounted decisions of the array
engines on one counting frame per size, a slice of one shared white stream.
A built-in table of resume points lets each size start near its frame
instead of walking the stream from its start.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from numbers import Integral, Real
from pathlib import Path
from types import MappingProxyType
from typing import Any

import numpy as np

from . import estimators as est
from . import separation as sep
from .errors import Status, raise_first_status
from .opcount import OpCounter, OpCounts
from .scenario import GroundTruth, ScenarioConfig, build_scenario, check_seed, with_seed
from .spectral import PowerSpectrum, ResourceBlock, SpectralFrame, power_matrix, power_spectrum

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
    or ROF threshold that is not a real number (a bool is none), an
    ``occupied_fraction`` outside [0, 1), a ``window_frames`` that is not an
    integer >= 1, a ``grid_size`` that is not an integer >= 2 (a bool is
    neither), a ``blind`` that is not a bool, or ROF thresholds that
    ``RofParams`` rejects raises ValueError.  The spec keeps a read-only copy
    of the params it checked, so setting a key afterwards raises TypeError.
    Specs hash by estimator and separation, so they can key a dict; equality
    also compares the params.
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
        for name in ("lambda1_pct", "lambda2_fraction", "occupied_fraction"):
            value = self.params.get(name, 0.0)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.params.get("occupied_fraction", 0.0) < 1.0:
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


class _SeedContext:
    """One seeded scenario and the quantities every method evaluated on it shares.

    ``block`` and ``truth`` are the built scenario; ``power`` is the block's
    power matrix and ``frame_mean`` each frame's whole-band mean power.
    ``window_means(window)`` is the (M, N) stack whose row f is the mean
    spectrum of the trailing window of at most ``window`` frames ending at f,
    built once per window length.  ``aic_rows(window, first)`` keeps AIC's
    estimates and orders of that stack from row ``first`` on, which AIC and
    CBE's AIC occupancy both read.  A separation is keyed ``"ideal"``,
    ``"fisher"`` or ``("rof", window, RofParams)``.  Row f of its cache is the
    noise mask that applies at frame f: the frame's own for ideal and Fisher,
    that of the trailing window ending at f (row f of the window averages)
    for ROF.  Every request asks for a suffix of the rows; the cached rows of
    a key are one suffix too, and the rows between the two are separated in
    one batched pass on a slice of their input.  Each frame's noise-bin power
    sum and count are kept next to its mask, so methods sharing a separation
    share one computation.  ``gram``, which only CBE reads, is built on first use.
    """

    def __init__(self, block: ResourceBlock, truth: GroundTruth):
        self.block, self.truth = block, truth
        self.power = power_matrix(block)
        self.frame_mean = self.power.mean(axis=1)
        self._means: dict[int, np.ndarray] = {}
        self._aic: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._rows: dict[Any, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}

    @cached_property
    def gram(self) -> np.ndarray:
        """G = X X^H / N^2 over all frames; a window's covariance is G[lo:hi, lo:hi]."""
        return est.sample_covariance(self.block)

    def window_means(self, window: int) -> np.ndarray:
        """Read-only (M, N) stack of trailing-window mean spectra, built on first use."""
        if window not in self._means:
            means = np.empty(self.power.shape)
            for f, row in enumerate(means):
                np.mean(self.power[max(0, f - window + 1):f + 1], axis=0, out=row)
            means.setflags(write=False)
            self._means[window] = means
        return self._means[window]

    def aic_rows(self, window: int, first: int) -> tuple[np.ndarray, np.ndarray]:
        """AIC's estimates and orders of rows first..M-1 of the window averages, each
        averaging ``window`` frames, fitted on first use."""
        if (window, first) not in self._aic:
            self._aic[window, first] = est.aic_fit_rows(self.window_means(window)[first:],
                                                        window)[:2]
        return self._aic[window, first]

    def noise_rows(self, key, lo: int) -> tuple[np.ndarray, ...]:
        """Noise masks of rows lo..M-1, each frame's noise-bin power sum and count,
        and each row's status: ROF's, else MASK_ALL_SIGNAL for a mask without noise.

        The sums are gathered by count group (:func:`_noise_sums`), each the
        same bits as the pairwise sum of that frame's noise bins alone.  When
        a row fails, the rows that request separated get no sums and are not cached.
        """
        m, n = self.power.shape
        start, noise, sums, counts = self._rows.get(key) or (
            m, np.empty((m, n), dtype=bool), np.empty(m), np.empty(m, dtype=np.int64))
        status = np.zeros(m - lo, dtype=np.int8)
        if lo < start:
            rows, new = slice(lo, start), status[:start - lo]
            signal, new[:] = self._signal_rows(key, lo, start)
            noise[rows] = ~signal
            counts[rows] = np.count_nonzero(noise[rows], axis=1)
            new[(new == Status.OK) & (counts[rows] == 0)] = Status.MASK_ALL_SIGNAL
            if not new.any():
                sums[rows] = _noise_sums(self.power[rows], noise[rows], counts[rows])
                self._rows[key] = (lo, noise, sums, counts)
        return noise[lo:], sums[lo:], counts[lo:], status

    def _signal_rows(self, key, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | Status]:
        if key == "ideal":
            return self.truth.signal_bin_mask[lo:hi], Status.OK
        if key == "fisher":
            return sep.fisher_signal_rows(self.power[lo:hi])[0], Status.OK
        _, window, params = key
        signal, _, _, status = sep.rof_signal_rows(self.window_means(window)[lo:hi], params)
        return signal, status


_NOISE_SUM_CHUNK = 64  # frames whose noise-bin sums are gathered together


def _noise_sums(power: np.ndarray, noise: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's sum of power over its noise bins, ``counts`` of them.

    Rows are summed ``_NOISE_SUM_CHUNK`` at a time.  Within a chunk, the g rows
    with c noise bins are gathered by one boolean index into a C-contiguous
    (g, c) array and summed along its rows.  numpy sums each contiguous row of
    that array pairwise, exactly as it sums the frame's c noise bins alone
    (``np.compress(keep, row).sum()``), so every sum is the same bits.

    Each distinct count of a chunk costs about nine numpy calls, so this is
    faster than the per-row loop only while a chunk holds few counts.  Ideal
    masks of a fixed band give one; the Fisher masks of the long-stream traces
    gave one to four (median two) and the reference scenario's ideal, Fisher
    and ROF masks one to twelve, where these sums took a fifth to a third of
    the per-row loop's time.  A chunk of 64 distinct counts of scattered bins
    takes about twice the loop's time.
    """
    sums = np.empty(counts.size)
    for lo in range(0, counts.size, _NOISE_SUM_CHUNK):
        chunk = counts[lo:lo + _NOISE_SUM_CHUNK]
        # A set, not np.unique: numpy's first unique call keeps about 0.5 MB
        # allocated for the rest of the process.
        for count in set(chunk.tolist()):
            rows = lo + np.flatnonzero(chunk == count)
            sums[rows] = power[rows][noise[rows]].reshape(rows.size, count).sum(axis=1)
    return sums


def _masked_window_sums(power: np.ndarray, noise: np.ndarray, window: int) -> np.ndarray:
    """(W, window) noise-bin power sums of each window's frames under that window's mask.

    Window j covers rows j..j+window-1 of ``power`` and has mask ``noise[j]``.
    Consecutive windows with one mask form a run: the run's frames are
    gathered by one ``np.compress`` and summed along the rows, and each
    window's sums are its slice of them.  Every row of the gathered array is
    contiguous and sums pairwise as one window's gather sums it, so each sum
    has the bits of ``np.compress(noise[j], power[j:j + window], axis=1).sum(axis=1)``.
    The ROF masks of the reference scenario form 13 to 31 runs over its 151
    windows (seeds 0-5).
    """
    sums = np.empty((len(noise), window))
    changes = np.flatnonzero((noise[1:] != noise[:-1]).any(axis=1)) + 1
    bounds = [0, *changes.tolist(), len(noise)]
    view = np.lib.stride_tricks.sliding_window_view
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        frames = np.compress(noise[lo], power[lo:hi + window - 1], axis=1).sum(axis=1)
        sums[lo:hi] = view(frames, window)
    return sums


def _signal_counts(method: MethodSpec, ctx: _SeedContext, frames: np.ndarray,
                   window: int) -> np.ndarray:
    """CBE's signal count S = round(window * fraction) per window: the fraction is the
    method's ``occupied_fraction``, AIC's order over the bin count, or ground truth at
    the window's last frame.  ``frames``, the windows' last frames, run from
    ``frames[0]`` to the scenario's last frame."""
    explicit = method.params.get("occupied_fraction")
    if explicit is not None:
        fractions = np.full(frames.size, float(explicit))
    elif method.params.get("occupancy_from") == "aic":
        fractions = ctx.aic_rows(window, frames[0])[1] / ctx.power.shape[1]
    else:
        fractions = ctx.truth.signal_bin_mask[frames].mean(axis=1)
    return np.rint(window * fractions).astype(np.int64)


def _evaluate_method(method: MethodSpec, ctx: _SeedContext, scenario_id: str,
                     seed: int, last_only: bool = False) -> EstimateSeries:
    """One method's series on a seed; with last_only, its entry at the last frame alone."""
    power, truth = ctx.power, ctx.truth
    n_frames = power.shape[0]
    window = min(method.params.get("window_frames", DEFAULT_WINDOW_FRAMES), n_frames)

    # ML reports at every frame, the windowed methods once their window is full.
    if last_only:
        first = n_frames - 1
    else:
        first = 0 if method.estimator == "ML" else window - 1
    frames = np.arange(first, n_frames)
    key = ("rof", window, _rof_params(method)) if method.separation == "rof" else method.separation
    figures = {}  # message fields besides the estimates
    if method.estimator in ("ML", "MVU"):
        # Every MVU window is full here.  ROF's mask of the window ending at f
        # applies to all of its frames; an ideal or Fisher mask to its own frame.
        own_rows = method.estimator == "ML" or method.separation == "rof"
        noise, sums, counts, status = ctx.noise_rows(key, first if own_rows else first - window + 1)
        raise_first_status(status)  # a degenerate mask raises before the first estimate
    if method.estimator == "ML":
        values, status = est.ml_fit_frames(sums, counts)
    elif method.estimator == "MVU":
        if method.separation == "rof":
            sums = _masked_window_sums(power[first - window + 1:], noise, window)
            counts = np.broadcast_to(counts[:, None], sums.shape)
        else:
            view = np.lib.stride_tricks.sliding_window_view
            sums, counts = view(sums, window), view(counts, window)
        values, status = est.mvu_fit_rows(sums, counts)
    elif method.estimator == "MMSE":
        values, *_, status = est.mmse_fit_windows(ctx.block.spectral[first - window + 1:], window,
                                                  blind=method.params.get("blind", est.MMSE_BLIND))
    elif method.estimator == "AIC":
        # Every window is full here, so each holds ``window`` frames.  AIC never fails.
        values = ctx.aic_rows(window, first)[0]
        status = np.zeros(values.size, dtype=np.int8)
    else:
        lo = first - window + 1
        counts = _signal_counts(method, ctx, frames, window)
        values, grids, _, status = est.cbe_fit_windows(
            ctx.gram[lo:, lo:], power.shape[1], window, counts,
            method.params.get("grid_size", est.CBE_GRID_SIZE))
        figures = {"signal_count": counts, "frames": window, "tolerance": grids[:, 0]}
    raise_first_status(status, method=method.estimator.lower(), value=values, **figures)

    return EstimateSeries(
        scenario_id=scenario_id, seed=seed,
        method=method.estimator, separation=method.separation,
        frame_index=frames,
        noise_power_est_mw=values,
        noise_power_true_mw=truth.noise_power_mw[frames],
        snr_est_db=est.snr_db_from_powers(ctx.frame_mean[frames], values),
        snr_true_db=truth.true_snr_db[frames],
    )


def _seed_series(config: ScenarioConfig, methods: list[MethodSpec], seed: int
                 ) -> tuple[list[EstimateSeries], list[float]]:
    """One seed's series, one per method, and each method's evaluation time in ms."""
    ctx = _SeedContext(*build_scenario(with_seed(config, seed)))
    series, times = [], []
    for m in methods:
        start = time.perf_counter()
        series.append(_evaluate_method(m, ctx, config.name, seed))
        times.append(1e3 * (time.perf_counter() - start))
    return series, times


def _seed_workers(n_seeds: int) -> int:
    """Worker processes for n_seeds seeds: one per seed and usable CPU, at most two.

    Where the usable CPUs cannot be read (no ``os.sched_getaffinity``, as on
    macOS, whose system libraries are not safe to use after a fork), one.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(2, cpus, n_seeds)


# The job of a forked worker, set by its initializer in the worker alone: the
# config and methods reach it through the fork, never pickled (a MethodSpec's
# params are a MappingProxyType, which pickle rejects).
_worker_job: tuple[ScenarioConfig, list[MethodSpec]] | None = None


def _start_worker(config: ScenarioConfig, methods: list[MethodSpec]) -> None:
    global _worker_job
    _worker_job = config, methods


def _worker_seed(seed: int) -> tuple[list[EstimateSeries], list[float]]:
    return _seed_series(*_worker_job, seed)


def _seed_results(config: ScenarioConfig, methods: list[MethodSpec], seeds: list[int]
                  ) -> list[tuple[list[EstimateSeries], list[float]]]:
    """``_seed_series`` of each seed, in seed order.

    With more than one worker (``_seed_workers``) and the "fork" start method,
    the seeds run in a pool of forked workers: only seeds and results cross
    the pipe, and the results are read in seed order, so the first failing
    seed raises its own exception here, as the serial loop would.  The pool
    is closed, its workers ended, before this returns or raises.
    """
    workers = _seed_workers(len(seeds))
    if workers > 1:
        import multiprocessing  # here, so that importing the package does not load it

        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(
                    workers, _start_worker, (config, methods)) as pool:
                return list(pool.imap(_worker_seed, seeds))
    return [_seed_series(config, methods, seed) for seed in seeds]


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
    for seed in seeds:
        check_seed(seed)
    _reject_repeats(seeds, "seed")
    out: list[EstimateSeries] = []
    wall = dict.fromkeys((m.label for m in methods), 0.0)
    for series, times in _seed_results(config, methods, seeds):
        out.extend(series)
        for m, ms in zip(methods, times):
            wall[m.label] += ms
    return out, wall


def _reject_repeats(items: list, what: str) -> None:
    repeated = next((x for i, x in enumerate(items) if x in items[:i]), None)
    if repeated is not None:
        raise ValueError(f"{what} {repeated} is given more than once")


def run_scenario(config: ScenarioConfig, methods: list[MethodSpec],
                 seeds: list[int]) -> list[EstimateSeries]:
    """Evaluate every method over every seeded realization of the scenario.

    Results are ordered by (seed, method) position.  Several seeds run in up
    to two forked worker processes, one per usable CPU (``_seed_workers``);
    one seed, or a platform without the "fork" start method, runs serially
    in this process.  Threads do not pay here: the per-seed work is many
    small numpy calls that hold the interpreter lock, and a seed thread pool
    ran the reference matrix slower than a serial loop on a two-core
    machine.  Processes do pay, because each holds its own interpreter lock
    and a seed's work stays whole in one process: on a 2-vCPU VM a 20-seed
    ``noisebench run`` of the reference matrix took 4.4 s instead of 7.8 s.
    A second BLAS thread does not pay, so ``noisebench`` calls run numpy's
    OpenBLAS on one thread (``cli.main``), and the workers inherit that;
    called directly, this function uses whatever BLAS thread count the
    caller has set.
    """
    return _run_seeds(config, methods, seeds)[0]


def last_window_estimate(config: ScenarioConfig, method: MethodSpec,
                         seed: int) -> EstimateSeries:
    """The method's one-entry series at the scenario's last frame.

    Only the window ending there is evaluated, and ideal and Fisher separate
    only the frames it reads: the last frame for ML, the window's frames for
    MVU.  ROF and AIC still average the windows ending at every frame, the
    one stack the context builds per window length.  The entry is the last
    entry of the full series; for MMSE up to rounding, because its lone
    window is not evaluated inside the batched chunk that holds it there.
    """
    ctx = _SeedContext(*build_scenario(with_seed(config, seed)))
    return _evaluate_method(method, ctx, config.name, seed, last_only=True)


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

    The metrics read each series alone, its true SNR included.  The methods
    with a series are counted at the config's n_bins in one
    :func:`count_ops_table` call.  wall_times_ms
    is opt-in; by default the column is written as 0.0 so that identical runs
    emit byte-identical reports.
    """
    grouped = [(method, [s for s in series
                         if s.method == method.estimator and s.separation == method.separation])
               for method in methods]
    grouped = [(method, own) for method, own in grouped if own]
    table = count_ops_table([method for method, _ in grouped], [config.n_bins]) if grouped else []
    reports = []
    for (method, own), (ops,) in zip(grouped, table):
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
            ops=ops.counts,
            wall_time_ms=(wall_times_ms or {}).get(method.label, 0.0),
        ))
    return reports


def run_benchmark(config: ScenarioConfig, methods: list[MethodSpec], seeds: list[int],
                  timing: bool = False) -> tuple[list[EstimateSeries], list[BenchmarkReport]]:
    """Full pass: series for every (method, seed) plus aggregated reports.

    With timing, each report carries its method's evaluation time summed over
    seeds (scenario builds excluded); without, the column stays 0.0.  Reports
    are keyed by method label, so a label given twice raises ValueError
    before any seed runs, as does a config too small or too large to count
    operations on.
    """
    if config.n_bins < MIN_COUNTING_SIZE:
        raise ValueError(f"run needs n_bins >= {MIN_COUNTING_SIZE}, got {config.n_bins}")
    if config.n_bins > MAX_COUNTING_SIZE:
        raise ValueError(f"run needs n_bins <= {MAX_COUNTING_SIZE}, got {config.n_bins}")
    _reject_repeats([m.label for m in methods], "method")
    series, wall = _run_seeds(config, methods, seeds)
    reports = build_reports(config, methods, series, wall_times_ms=wall if timing else None)
    return series, reports


# --- operation counting ------------------------------------------------------


MIN_COUNTING_SIZE = 16  # smallest block size the complexity model counts
MAX_COUNTING_SIZE = 65_536  # largest: its frame lies 2^33 normals into the counting stream
_COUNTING_KEY = 12345  # Philox key of the counting stream
_COUNTING_DRAW = 65_536  # normals between two resume points
_SKIP_BUFFER = 8_192  # normals per draw while walking from a resume point to a frame


def _normals_from(word: int) -> np.random.Generator:
    """The counting stream's normal sampler, resumed at Philox word ``word``.

    Philox makes four 64-bit words per counter step and steps its counter
    before each block, so word w is word w % 4 of the block after counter w // 4.
    """
    bits = np.random.Philox(key=_COUNTING_KEY, counter=word // 4)
    bits.random_raw(word % 4)
    return np.random.Generator(bits)


@lru_cache(maxsize=1)
def _resume_points() -> tuple[int, ...]:
    """The resume points this process walks from: the table, or point 0 alone.

    The table holds where this numpy's normal sampler (a ziggurat that takes
    one or more words per normal) put each normal, so another sampler would
    resume mid-stream at the wrong normal.  The first use in a process draws
    the normal at the last point and compares it exactly with the recorded
    one; on a mismatch every frame is walked to from word 0, slower but equal.
    """
    if _normals_from(_RESUME_WORDS[-1]).standard_normal() == _RESUME_CHECK:
        return _RESUME_WORDS
    return _RESUME_WORDS[:1]


@lru_cache(maxsize=4)
def _counting_frame(n: int) -> np.ndarray:
    """Counting frame of size n, reached from its nearest resume point; memoised.

    The counting stream is the standard normals of ``Philox(key=12345)``.
    Frame n is the last frame of an n-frame, n-bin unit-power white block
    drawn from it, frame by frame: the DFT of normals [2n(n - 1), 2n^2) (n
    real parts, then n imaginary parts) over sqrt(2), read-only.  Philox can
    jump to a word but not to a normal, since the sampler takes a variable
    number of words per normal; ``_RESUME_WORDS`` records the word at which
    every 65,536th normal starts, up to normal 2^25 = 2 * 4096^2.  The frame
    resumes at the last point before it (see :func:`_resume_points`), draws
    and drops the normals up to it, at most 65,535 for n <= 4096 and more
    beyond, ``_SKIP_BUFFER`` at a time, and draws the frame.
    :func:`count_ops_table` calls this once per distinct size; the memo
    keeps the last few sizes for the next call.
    """
    points = _resume_points()
    start = 2 * n * (n - 1)
    point = min(start // _COUNTING_DRAW, len(points) - 1)
    rng = _normals_from(points[point])
    skip = np.empty(_SKIP_BUFFER)
    for drawn in range(point * _COUNTING_DRAW, start, _SKIP_BUFFER):
        rng.standard_normal(out=skip[:min(start - drawn, _SKIP_BUFFER)])
    draws = rng.standard_normal((2, n))
    frame = np.fft.fft((draws[0] + 1j * draws[1]) / np.sqrt(2))
    frame.setflags(write=False)
    return frame


def _book_rof(ops: OpCounter, power: PowerSpectrum, params: sep.RofParams) -> int:
    """Books ROF's separation, the paper's full N - 1 step erosion cascade,
    and returns its noise-bin count.

    The walk length and the noise-bin count are read off the run's engine,
    :func:`~noisebench.separation.rof_signal_rows`, which stops eroding once
    K is decided; its K and drop-curve peak are the full cascade's.
    """
    n = power.n_bins
    signal, k, peak, status = sep.rof_signal_rows(power.power[None, :], params)
    raise_first_status(status)
    # Per window size k = 2..n: n comparisons, an (n-1)-addition energy sum,
    # and one subtraction plus two multiplications for its drop.
    ops.cmp(n * (n - 1))
    ops.add(n * (n - 1))
    ops.mul(2 * (n - 1))
    # Bandwidth search: the curve's argmax, then one comparison per walk step.
    walk = int(k[0]) - (int(peak[0]) + 2)
    ops.cmp(n - 1 + walk)
    ops.add(3 * n)  # running sum updates and forward differences
    ops.mul(n)
    ops.cmp(2 * n)  # sign tests and run-width checks
    return n - int(np.count_nonzero(signal))


def _book_fisher(ops: OpCounter, power: PowerSpectrum) -> int:
    """Books Fisher's separation and returns its noise-bin count."""
    n = power.n_bins
    signal, split, _ = sep.fisher_signal_rows(power.power[None, :])
    ops.transcend(n)
    ops.cmp(int(n * np.log2(n)))  # sorting the amplitudes
    if split[0] >= 0:
        # The direct scan: scoring one split is ~4N operations and N-3 splits
        # are scanned.  A spectrum without a split (a constant one) stops before it.
        ops.add(4 * n * (n - 3))
        ops.mul(6 * (n - 3))
        ops.cmp(n - 3)
    return n - int(np.count_nonzero(signal))


def _book_aic(ops: OpCounter, power: PowerSpectrum) -> None:
    n = power.n_bins
    ops.mul(n)  # running periodogram average update
    ops.add(n)
    n_min = int(est.aic_fit_rows(power.power[None, :], n)[1][0])
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
    if s >= m:
        raise ValueError(f"CBE at {m} frames needs a noise group left, "
                         f"got occupied_fraction {occupied_fraction}")
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


def count_ops(method: MethodSpec, n: int) -> OpCounter:
    """Scalar operations of one estimation pass at block size n: the one-cell case
    of :func:`count_ops_table`, which describes the complexity model."""
    return count_ops_table([method], [n])[0][0]


def count_ops_table(methods: list[MethodSpec], sizes: list[int]) -> list[list[OpCounter]]:
    """Scalar operations of one estimation pass of every method at every block size.

    Row i holds ``methods[i]``'s counters in the order of ``sizes``, a
    repeated size included.  Every method is charged in closed form on an
    n-frame block: ML, MVU, AIC and MMSE at n bins, CBE at 2n bins because
    the Marchenko-Pastur edge formulas degenerate on square blocks (the
    covariance matrix it decomposes is n x n either way).  Only the final
    frame's transform is booked: the model charges one FFT per batch of N
    new samples.  The few data-dependent terms (the ROF bandwidth walk at
    the method's own thresholds, whether Fisher's spectrum is constant, the
    ML/MVU noise-bin count and AIC's selected order) are read off uncounted
    decisions on the counting frame of size n, a slice of one shared white
    stream (see :func:`_counting_frame`); CBE, MMSE and ideal separation
    read no frame.  Every size is checked to lie in [16, 65536] before any
    frame is drawn, and each distinct size's frame is drawn, and its power
    spectrum built, once per call, only if some method reads a frame.
    CBE's Marchenko-Pastur fit is charged for ``grid_size`` candidates,
    which is what the fit evaluates: a collapsed candidate range is
    ``grid_size`` equal candidates.
    """
    if not sizes:
        raise ValueError("need at least one size")
    if min(sizes) < MIN_COUNTING_SIZE:
        raise ValueError(f"operation counting needs n >= {MIN_COUNTING_SIZE}, got {min(sizes)}")
    if max(sizes) > MAX_COUNTING_SIZE:
        raise ValueError(f"operation counting needs n <= {MAX_COUNTING_SIZE}, got {max(sizes)}")
    powers = {}
    if any(m.estimator == "AIC" or m.separation in ("rof", "fisher") for m in methods):
        powers = {n: power_spectrum(SpectralFrame(_counting_frame(n), n - 1))
                  for n in sorted(set(sizes))}
    return [[_book(method, n, powers.get(n)) for n in sizes] for method in methods]


def _book(method: MethodSpec, n: int, power: PowerSpectrum | None) -> OpCounter:
    """One cell of :func:`count_ops_table`; ``power`` is the counting frame's spectrum."""
    ops = OpCounter()
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
            noise = _book_rof(ops, power, _rof_params(method))
        elif method.separation == "fisher":
            noise = _book_fisher(ops, power)
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


# --- counting-stream resume points ---------------------------------------------

# Entry j is the Philox word (64-bit output of Philox(key=12345), from 0) at
# which normal j * _COUNTING_DRAW of the counting stream starts, j = 0..511,
# as numpy's normal sampler draws them; _RESUME_CHECK is the normal drawn at
# the last entry.  Regenerate both with
# ``pytest tests/test_bench.py -k resume_points_match_stream``, which prints
# the block to paste here when they no longer match the stream.
_RESUME_WORDS = (
    0, 67010, 133989, 200964, 267901, 334907, 401851, 468746,
    535720, 602710, 669702, 736648, 803723, 870637, 937667, 1004662,
    1071624, 1138528, 1205522, 1272507, 1339462, 1406473, 1473494, 1540504,
    1607567, 1674539, 1741569, 1808523, 1875577, 1942600, 2009569, 2076500,
    2143476, 2210449, 2277456, 2344396, 2411357, 2478389, 2545288, 2612305,
    2679328, 2746298, 2813317, 2880290, 2947299, 3014312, 3081389, 3148415,
    3215418, 3282353, 3349317, 3416305, 3483238, 3550276, 3617301, 3684239,
    3751264, 3818293, 3885264, 3952320, 4019276, 4086253, 4153172, 4220191,
    4287119, 4354089, 4421036, 4488083, 4555114, 4622106, 4689067, 4756097,
    4823061, 4890024, 4957013, 5023969, 5090996, 5157957, 5224940, 5291843,
    5358806, 5425733, 5492626, 5559608, 5626628, 5693628, 5760596, 5827456,
    5894511, 5961520, 6028493, 6095565, 6162499, 6229446, 6296419, 6363368,
    6430371, 6497325, 6564343, 6631272, 6698274, 6765331, 6832322, 6899373,
    6966320, 7033216, 7100234, 7167228, 7234238, 7301172, 7368128, 7435170,
    7502097, 7569024, 7636010, 7702960, 7770017, 7836950, 7903872, 7970892,
    8037849, 8104834, 8171800, 8238827, 8305798, 8372789, 8439742, 8506734,
    8573674, 8640559, 8707433, 8774430, 8841367, 8908385, 8975338, 9042342,
    9109283, 9176222, 9243246, 9310241, 9377223, 9444224, 9511188, 9578197,
    9645108, 9712175, 9779155, 9846147, 9913145, 9980084, 10047048, 10114001,
    10180958, 10248003, 10315013, 10382004, 10448962, 10515903, 10582904, 10649898,
    10716838, 10783936, 10850873, 10917874, 10984892, 11051880, 11118874, 11185907,
    11252840, 11319775, 11386779, 11453706, 11520618, 11587605, 11654510, 11721542,
    11788551, 11855563, 11922431, 11989457, 12056429, 12123431, 12190428, 12257443,
    12324440, 12391458, 12458473, 12525422, 12592422, 12659452, 12726391, 12793401,
    12860405, 12927414, 12994434, 13061442, 13128384, 13195406, 13262449, 13329430,
    13396507, 13463477, 13530513, 13597522, 13664544, 13731482, 13798415, 13865364,
    13932267, 13999275, 14066220, 14133208, 14200259, 14267216, 14334171, 14401110,
    14468136, 14535066, 14602029, 14669002, 14735958, 14802963, 14869941, 14936934,
    15003909, 15070889, 15137942, 15204862, 15271814, 15338904, 15405906, 15472934,
    15539883, 15606848, 15673832, 15740827, 15807825, 15874921, 15941966, 16009026,
    16075973, 16142957, 16209943, 16276942, 16343904, 16410839, 16477849, 16544832,
    16611847, 16678859, 16745895, 16812855, 16879893, 16946956, 17013905, 17080977,
    17147968, 17214934, 17281852, 17348851, 17415779, 17482788, 17549712, 17616639,
    17683647, 17750689, 17817672, 17884709, 17951703, 18018740, 18085696, 18152726,
    18219752, 18286757, 18353664, 18420551, 18487623, 18554630, 18621563, 18688569,
    18755590, 18822540, 18889599, 18956541, 19023503, 19090459, 19157435, 19224431,
    19291454, 19358444, 19425415, 19492361, 19559409, 19626367, 19693380, 19760406,
    19827338, 19894261, 19961222, 20028258, 20095266, 20162295, 20229292, 20296213,
    20363187, 20430139, 20497128, 20564074, 20631065, 20698082, 20765066, 20832051,
    20899006, 20965993, 21032917, 21099977, 21166971, 21233967, 21300989, 21367944,
    21434865, 21501784, 21568732, 21635676, 21702645, 21769658, 21836610, 21903594,
    21970620, 22037502, 22104504, 22171519, 22238519, 22305608, 22372664, 22439688,
    22506600, 22573492, 22640498, 22707434, 22774473, 22841516, 22908510, 22975448,
    23042433, 23109495, 23176543, 23243565, 23310526, 23377462, 23444459, 23511468,
    23578351, 23645400, 23712423, 23779335, 23846325, 23913118, 23980014, 24047019,
    24114006, 24180989, 24247981, 24315036, 24382022, 24449061, 24516093, 24583104,
    24650095, 24717058, 24784024, 24850987, 24917975, 24984997, 25052050, 25119156,
    25186043, 25253031, 25320022, 25387096, 25454042, 25521004, 25588051, 25655061,
    25722056, 25788936, 25855847, 25922876, 25989811, 26056801, 26123810, 26190685,
    26257705, 26324727, 26391675, 26458633, 26525623, 26592557, 26659556, 26726643,
    26793633, 26860647, 26927549, 26994515, 27061499, 27128492, 27195509, 27262484,
    27329495, 27396526, 27463448, 27530382, 27597352, 27664352, 27731312, 27798258,
    27865158, 27932233, 27999286, 28066332, 28133296, 28200342, 28267300, 28334299,
    28401303, 28468298, 28535317, 28602237, 28669192, 28736134, 28803174, 28870154,
    28937139, 29004132, 29071105, 29138079, 29205026, 29271942, 29338923, 29405981,
    29472947, 29539862, 29606859, 29673883, 29740790, 29807714, 29874726, 29941637,
    30008564, 30075569, 30142626, 30209542, 30276537, 30343437, 30410536, 30477540,
    30544582, 30611586, 30678574, 30745586, 30812594, 30879587, 30946454, 31013390,
    31080368, 31147358, 31214402, 31281411, 31348391, 31415269, 31482253, 31549227,
    31616168, 31683231, 31750237, 31817237, 31884175, 31951236, 32018167, 32085228,
    32152144, 32219159, 32286107, 32353115, 32420114, 32487089, 32554095, 32621025,
    32687989, 32755028, 32821974, 32889025, 32956001, 33023026, 33089987, 33156983,
    33224027, 33291151, 33358185, 33425118, 33492108, 33559077, 33626108, 33693113,
    33760131, 33827100, 33894038, 33961032, 34027978, 34094981, 34161898, 34228906,
)
_RESUME_CHECK = -0.4916186046703022
