"""Noise/signal bin separation: ideal, Fisher discriminant, and rank-order filtering.

The rank-order-filter (ROF) strategy erodes the power spectrum with growing
minimum-filter windows, reads the widest occupied bandwidth K off the
percentage energy-drop curve, smooths the spectrum with a K-point average and
marks sufficiently wide strictly-rising regions as signal.  All of its
decision quantities are relative (percentage drops, difference signs), so
masks are invariant under positive rescaling of the spectrum.  The row engine
returns a status per row; the one-spectrum functions raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DegenerateSpectrumError, Status, raise_first_status
from .scenario import GroundTruth
from .spectral import PowerSpectrum, frozen

SEPARATION_METHODS = ("ideal", "fisher", "rof")
FISHER_CHUNK = 32  # frames per batched Fisher scan
ROF_CHUNK = 64  # spectra per batched erosion cascade and ROF decision
_ROF_STOP_EVERY = 32  # erosion steps between two checks for rows whose K is decided
_ROF_STOP_MARGIN = 1e-9  # relative rounding margin of the early stop; see _rof_decided
_FISHER_TIGHT = 1e-6  # see _fisher_scan_rows


@dataclass(frozen=True)
class SeparationMask:
    """Per-bin noise/signal classification with method diagnostics.

    The mask is owned by the rule of :func:`~noisebench.spectral.frozen`.
    """

    is_signal: np.ndarray
    method: str
    aux: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        mask = np.asarray(self.is_signal, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("is_signal must be one-dimensional")
        if self.method not in SEPARATION_METHODS:
            raise ValueError(f"unknown separation method {self.method!r}")
        if mask.all():
            raise DegenerateSpectrumError("mask classifies every bin as signal")
        object.__setattr__(self, "is_signal", frozen(mask, self.is_signal))

    @property
    def n_bins(self) -> int:
        return self.is_signal.size

    @property
    def noise_bins(self) -> np.ndarray:
        return ~self.is_signal


@dataclass(frozen=True)
class RofParams:
    """Thresholds of the ROF separation.

    lambda1_pct stops the bandwidth walk when the energy drop falls below this
    percentage of the curve's peak drop; lambda2_fraction is the minimum width
    of a rising region, as a fraction of the bin count.  Both were chosen
    empirically and are deliberately exposed for tuning.
    """

    lambda1_pct: float = 5.0
    lambda2_fraction: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.lambda1_pct < 100.0:
            raise ValueError("lambda1_pct must lie in (0, 100)")
        if not 0.0 < self.lambda2_fraction < 1.0:
            raise ValueError("lambda2_fraction must lie in (0, 1)")


def rof_energy_drops(power: PowerSpectrum) -> np.ndarray:
    """Percentage energy drop D(k) for k = 2..N, from the iterative erosion cascade.

    The cascade updates the k-window minimum from the (k-1)-window minimum with
    one extra comparison per bin, so the whole curve costs about 2*N^2
    operations.  D(k) = 100 * (E(k-1) - E(k)) / E(k-1) with E(1) the raw
    spectrum energy; erosion can only lower minima, so every D(k) >= 0.
    """
    p = power.power
    if p.size < 4:
        raise ValueError("need at least 4 bins")
    if not p.any():
        raise DegenerateSpectrumError("all-zero power spectrum")
    return _energy_drops(_rof_cascade(p[None, :])[0])[0]


def _rof_cascade(spectra: np.ndarray, lambda1_pct: float | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The erosion cascade of a (W, N) stack: each row's energies and, given
    lambda1_pct, its K and the index of its drop curve's peak.

    energy[k - 1, i] is E(k) of row i, the energy of that row under a k-bin
    minimum filter.  Each step is one minimum over all rows still eroding.
    Without lambda1_pct every row runs all N - 1 steps and K and the peak are
    None.  With it, every ``_ROF_STOP_EVERY`` steps the rows whose K is
    already decided leave the cascade, their later energies left NaN: a row
    is decided once its eroded row's variation bounds every later drop below
    its running peak (:func:`_rof_decided`).  K and the peak (the first
    argmax of the drops, drop j belonging to k = j + 2) are read off the
    drops the rows leave with, or, for rows that run to N, off the full
    curve; both are the full curve's, bit for bit, since no drop after a row
    leaves reaches its peak.
    """
    w, n = spectra.shape
    if n < 4:
        raise ValueError("need at least 4 bins")
    # Window [i-left, i+k-1-left] grows by one bin per step, alternating sides.
    # The new bin lies at most n//2 positions away; reading it from a copy
    # padded with the boundary values on both sides replicates the edges.
    pad = n // 2
    padded = np.concatenate([np.repeat(spectra[:, :1], pad, axis=1), spectra,
                             np.repeat(spectra[:, -1:], pad, axis=1)], axis=1)
    eroded = np.array(spectra, dtype=np.float64)
    # Every energy a row can reach is at least this; see _rof_decided.
    floor = (1.0 - _ROF_STOP_MARGIN) * n * eroded.min(axis=1)
    energy = np.full((n, w), np.nan)
    widths = np.full(w, n)
    peaks = np.zeros(w, dtype=np.int64)
    rows = np.arange(w)  # the rows still eroding, and their energies so far
    live = np.empty((n, w))
    np.add.reduce(eroded, axis=1, out=live[0])
    for k in range(2, n + 1):
        left = k // 2
        shift = -left if k % 2 == 0 else k - 1 - left
        np.minimum(eroded, padded[:, pad + shift:pad + shift + n], out=eroded)
        np.add.reduce(eroded, axis=1, out=live[k - 1])
        if lambda1_pct is None or k % _ROF_STOP_EVERY or k == n:
            continue
        done, width, peak = _rof_decided(live[:k], eroded, floor, lambda1_pct)
        if done.any():
            energy[:k, rows[done]] = live[:k, done]
            widths[rows[done]] = width[done]
            peaks[rows[done]] = peak[done]
            keep = ~done
            rows, live, eroded, padded, floor = (
                rows[keep], live[:, keep], eroded[keep], padded[keep], floor[keep])
            if not rows.size:
                break
    energy[:, rows] = live
    if lambda1_pct is None:
        return energy, None, None
    widths[rows], peaks[rows] = _rof_band_widths(_energy_drops(live), lambda1_pct)
    return energy, widths, peaks


def _rof_decided(energy: np.ndarray, eroded: np.ndarray, floor: np.ndarray,
                 lambda1_pct: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which rows' K the energies E(1..k) so far decide, and each row's K and
    drop-curve peak on them; ``eroded`` holds the rows under the k-bin filter.

    Step k' of the cascade takes each bin's minimum with its left neighbour
    (even k') or its right one (odd k'), edges replicated, so it lowers E by
    the eroded row's up-variation U = sum((e[i] - e[i-1])+) or its
    down-variation D = sum((e[i] - e[i+1])+).  Over thresholds t, U and D
    integrate the number of runs of the level set {e >= t} that start, or
    end, away from the row's edges; a two-point minimum only trims or removes
    such runs, so U and D never grow, and every later decrease d is at most
    V = max(U, D) of the row at step k.  E(k' - 1) >= floor + d, with
    ``floor`` N times the row's minimum less a relative margin that covers
    the rounding of a sum, so a later drop 100 * d / E(k' - 1) is at most
    100 * V / (floor + V).

    ``slack`` = 2 * N * 2**-52 * E(k) covers the rounding of the computed
    energies and of V (V <= E(k) while the minimum is positive), which is all
    the drops of a near-flat row are.  K is decided once 100 * (V + slack)
    lies below the running peak drop times (floor + V), less the margin
    again for the rounding of the drops, so the peak is final, and a drop
    after the peak is not above lambda1_pct of it, so the walk has stopped.
    A row whose minimum is not positive is never decided here.  The margin
    holds while N * 2**-52 is below it, for N up to about four million.
    """
    drops = _energy_drops(energy)
    width, peak = _rof_band_widths(drops, lambda1_pct)
    step = np.diff(eroded, axis=1)
    variation = np.maximum(np.maximum(step, 0.0).sum(axis=1), np.maximum(-step, 0.0).sum(axis=1))
    slack = 2.0 * eroded.shape[1] * np.finfo(np.float64).eps * energy[-1]
    peak_final = (100.0 * (variation + slack)
                  < (1.0 - _ROF_STOP_MARGIN) * drops.max(axis=1) * (floor + variation))
    return peak_final & (width < energy.shape[0]) & (floor > 0), width, peak


def _energy_drops(energy: np.ndarray) -> np.ndarray:
    """Percentage drops D(k), k = 2..m, of the (m, W) energies E(1..m): a (W, m - 1) stack.

    D(k) = 100 * (E(k-1) - E(k)) / E(k-1), and 0 where E(k-1) is not positive.
    """
    prev, cur = energy[:-1].T, energy[1:].T
    drops = np.zeros(prev.shape)
    np.divide(100.0 * (prev - cur), prev, out=drops, where=prev > 0)
    return drops


def rof_find_band_width(power: PowerSpectrum, lambda1_pct: float = 5.0) -> int:
    """Widest occupied bandwidth K read off the energy-drop curve.

    K starts at the largest drop and walks right while the drop stays above
    lambda1_pct percent of the peak drop.  A flat spectrum (numerically zero
    curve) yields K = 2 with no extension.
    """
    return int(_rof_band_widths(rof_energy_drops(power)[None, :], lambda1_pct)[0][0])


def _rof_band_widths(drops: np.ndarray, lambda1_pct: float) -> tuple[np.ndarray, np.ndarray]:
    """K of each row of a (W, N-1) stack of drop curves (drop j belongs to k = j + 2),
    and the index j of each curve's peak, its first argmax.

    The walk stops at the first drop after the peak that is not above the
    threshold, so K is that drop's index plus one, or N where none stops it.
    """
    threshold = (lambda1_pct / 100.0) * drops.max(axis=1)
    peak = np.argmax(drops, axis=1)
    stop = (np.arange(drops.shape[1]) > peak[:, None]) & ~(drops > threshold[:, None])
    return np.where(stop.any(axis=1), np.argmax(stop, axis=1) + 1, drops.shape[1] + 1), peak


def _rof_rows(spectra: np.ndarray, k: np.ndarray, params: RofParams
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`rof_separate`'s decisions on a (W, N) stack of spectra and each row's K.

    Returns the signal masks, the smoothed spectra, the kept bands as
    (row, first bin, end bin) rows and each row's status: ALL_ZERO_SPECTRUM,
    else ROF_ALL_SIGNAL for a mask of signal bins only.
    """
    w, n = spectra.shape
    # Trailing K-point mean; expanding mean over the available samples at the
    # left edge (replicating the first bin there would fabricate long rising
    # runs whenever bin 0 is a low outlier).
    cs = np.zeros((w, n + 1))
    np.cumsum(spectra, axis=1, out=cs[:, 1:])
    lo = np.maximum(0, np.arange(n) - k[:, None] + 1)
    smoothed = (cs[:, 1:] - np.take_along_axis(cs, lo, axis=1)) / (np.arange(1, n + 1) - lo)
    rising = np.diff(smoothed, axis=1) > 0
    start = rising.copy()
    start[:, 1:] &= ~rising[:, :-1]
    run = np.cumsum(start).reshape(rising.shape)  # run number, from 1, of each rising step
    width = np.bincount(run[rising], minlength=1)
    wide = width > params.lambda2_fraction * n
    band = rising & wide[run]
    signal = np.pad(band, ((0, 0), (0, 1))) | np.pad(band, ((0, 0), (1, 0)))
    status = np.select([~spectra.any(axis=1), signal.all(axis=1)],
                       [Status.ALL_ZERO_SPECTRUM, Status.ROF_ALL_SIGNAL]).astype(np.int8)
    row, first = np.divmod(np.flatnonzero(start), n - 1)
    kept = wide[1:]
    bands = np.column_stack([row[kept], first[kept], first[kept] + width[1:][kept] + 1])
    return signal, smoothed, bands, status


def rof_separate(power: PowerSpectrum, params: RofParams = RofParams()) -> SeparationMask:
    """Classify bins via rank-order filtering.

    Pipeline: bandwidth K from the erosion energy-drop curve; K-point trailing
    moving average; forward differences; strictly positive runs wider than
    lambda2_fraction * N become signal bands (a run over difference indices
    [i, j] straddles bins [i, j+1]).  Everything else is noise.  This is the
    one-row case of :func:`rof_signal_rows`.
    """
    drops = rof_energy_drops(power)
    k = _rof_band_widths(drops[None, :], params.lambda1_pct)[0]
    signal, smoothed, bands, status = _rof_rows(power.power[None, :], k, params)
    raise_first_status(status)
    aux = {"K": int(k[0]), "d_curve": drops, "smoothed": smoothed[0],
           "runs": [(int(i), int(j)) for _, i, j in bands]}
    return SeparationMask(is_signal=signal[0], method="rof", aux=aux)


def rof_signal_rows(spectra: np.ndarray, params: RofParams = RofParams()
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ROF separation of every row of a (W, N) stack of spectra.

    Returns the (W, N) signal mask, each row's bandwidth K, the index of the
    peak of its drop curve (the first argmax of the drops, drop j belonging to
    k = j + 2) and each row's status; row i's mask and K are
    :func:`rof_separate`'s of ``spectra[i]``.  ``ROF_CHUNK`` rows at a time
    share one erosion cascade, smoothing and run search.  Only K and the peak
    are read off the cascade, so each row leaves it once the variation of its
    eroded row bounds every later drop below its peak (:func:`_rof_decided`),
    with the K and peak of the full curve.  No chunk past the first failing
    row's is separated (UNEVALUATED).
    """
    spectra = np.asarray(spectra, dtype=np.float64)
    signal = np.empty(spectra.shape, dtype=bool)
    k = np.empty(len(spectra), dtype=np.int64)
    peak = np.empty(len(spectra), dtype=np.int64)
    status = np.full(len(spectra), Status.UNEVALUATED, dtype=np.int8)
    for lo in range(0, len(spectra), ROF_CHUNK):
        rows = slice(lo, lo + ROF_CHUNK)
        _, k[rows], peak[rows] = _rof_cascade(spectra[rows], params.lambda1_pct)
        signal[rows], _, _, status[rows] = _rof_rows(spectra[rows], k[rows], params)
        if status[rows].any():
            break
    return signal, k, peak, status


def fisher_separate(power: PowerSpectrum) -> SeparationMask:
    """Two-group split of the amplitude spectrum maximizing Fisher's criterion.

    Amplitudes (sqrt of bin powers) are sorted ascending; every split point
    t in [2, N-2] is scored with J(t) = (mu_low - mu_high)^2 / (s2_low + s2_high)
    using unbiased group variances.  Bins whose amplitude lands in the high
    group are signal; ties in J go to the split with fewer signal bins.  A
    constant spectrum has no defined split and yields an all-noise mask.
    This is the one-row case of :func:`fisher_signal_rows`.
    """
    signal, split, criterion = fisher_signal_rows(power.power[None, :])
    if split[0] < 0:
        aux = {"split": None, "criterion": None}
    else:
        aux = {"split": int(split[0]), "criterion": float(criterion[0])}
    return SeparationMask(is_signal=signal[0], method="fisher", aux=aux)


def fisher_signal_rows(power: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fisher separation of every row of an (M, N) power matrix.

    Returns the (M, N) signal mask, each row's split t (-1 where the row has
    no defined split) and its criterion J(t) (NaN there); row i is
    :func:`fisher_separate` of ``power[i]``.  Rows are scored
    ``FISHER_CHUNK`` at a time from sorted amplitudes and prefix sums.  The
    signal bins are those with amplitude >= a[t]; only a row whose split
    falls inside a run of equal amplitudes is ranked by a stable argsort,
    which puts the tied bins of lower index into the noise group.
    """
    m, n = power.shape
    if n < 4:
        raise ValueError("need at least 4 bins")
    signal = np.zeros((m, n), dtype=bool)
    split = np.full(m, -1, dtype=np.int64)
    criterion = np.full(m, np.nan)
    for lo in range(0, m, FISHER_CHUNK):
        hi = min(lo + FISHER_CHUNK, m)
        amplitude = np.sqrt(power[lo:hi])
        a = np.sort(amplitude, axis=1)
        t, j = _fisher_scan_rows(a)
        found = t >= 0
        split[lo:hi] = t
        criterion[lo:hi] = np.where(found, j, np.nan)
        rows = np.arange(hi - lo)
        threshold = a[rows, t]
        signal[lo:hi] = (amplitude >= threshold[:, None]) & found[:, None]
        tied = found & (a[rows, t - 1] == threshold)
        for i in np.flatnonzero(tied):
            order = np.argsort(amplitude[i], kind="stable")
            signal[lo + i] = False
            signal[lo + i, order[t[i]:]] = True
    return signal, split, criterion


def _fisher_scan_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best split and criterion of each row of ascending amplitudes; -1 where undefined.

    The criterion is evaluated in place, term by term, on (W, N-3) arrays.
    """
    n = a.shape[1]
    cs = np.cumsum(a, axis=1)  # cs[:, t - 1]: sum of the t lowest amplitudes
    cs2 = np.cumsum(a * a, axis=1)
    cnt_l = np.arange(2, n - 1, dtype=np.float64)  # low-group sizes of splits t = 2..n-2
    cnt_h = n - cnt_l
    sum_l, sq_l = cs[:, 1:n - 2], cs2[:, 1:n - 2]
    mu_l = sum_l / cnt_l
    mu_h = cs[:, -1:] - sum_l
    mu_h /= cnt_h
    var_l = _group_variance(sq_l, mu_l, cnt_l)
    var_h = _group_variance(cs2[:, -1:] - sq_l, mu_h, cnt_h)
    num = np.subtract(mu_l, mu_h, out=mu_l)
    num **= 2
    den = np.add(var_l, var_h, out=var_l)
    # Equal group means over zero variance score -inf, distinct ones +inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.divide(num, den, out=num)
    j[np.isnan(j)] = -np.inf
    best = j.max(axis=1)
    # Ties resolved toward the largest split index, i.e. the smaller signal group.
    best_t = n - 2 - np.argmax((j == best[:, None])[:, ::-1], axis=1)
    # A constant row has no split, nor has a row whose every criterion is -inf.
    best_t[(a[:, 0] == a[:, -1]) | np.isneginf(best)] = -1
    # sum(a^2) - cnt * mu^2 cancels for tight groups.  Where the chosen split's
    # variance sum is below _FISHER_TIGHT of the row's sum of squares, J is
    # re-scored from the two groups directly, with two-pass variances.
    found = np.flatnonzero(best_t >= 0)
    rows = found[den[found, best_t[found] - 2] < _FISHER_TIGHT * cs2[found, -1]]
    if rows.size:
        t = best_t[rows]
        cnt = np.column_stack([t, n - t])
        starts = (np.column_stack([0 * t, t]) + n * np.arange(rows.size)[:, None]).ravel()
        mu = np.add.reduceat(a[rows].ravel(), starts).reshape(-1, 2) / cnt
        dev = a[rows].ravel() - np.repeat(mu.ravel(), cnt.ravel())
        var = np.add.reduceat(dev * dev, starts).reshape(-1, 2) / (cnt - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            j = (mu[:, 0] - mu[:, 1]) ** 2 / var.sum(axis=1)
        best[rows] = np.where(np.isnan(j), best[rows], j)
    return best_t, best


def _group_variance(sq: np.ndarray, mu: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Unbiased variance max(sum(a^2) - cnt * mu^2, 0) / (cnt - 1), computed into a new array."""
    var = mu**2
    var *= cnt
    np.subtract(sq, var, out=var)
    np.maximum(var, 0.0, out=var)
    var /= cnt - 1
    return var


def ideal_separate(truth: GroundTruth, frame_index: int) -> SeparationMask:
    """Ground-truth mask of one frame."""
    if not 0 <= frame_index < truth.n_frames:
        raise IndexError(f"frame {frame_index} outside 0..{truth.n_frames - 1}")
    return SeparationMask(
        is_signal=truth.signal_bin_mask[frame_index], method="ideal", aux={}
    )
