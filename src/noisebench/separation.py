"""Noise/signal bin separation: ideal, Fisher discriminant, and rank-order filtering.

The rank-order-filter (ROF) strategy erodes the power spectrum with growing
minimum-filter windows, reads the widest occupied bandwidth K off the
percentage energy-drop curve, smooths the spectrum with a K-point average and
marks sufficiently wide strictly-rising regions as signal.  All of its
decision quantities are relative (percentage drops, difference signs), so
masks are invariant under positive rescaling of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DegenerateSpectrumError
from .scenario import GroundTruth
from .spectral import PowerSpectrum

SEPARATION_METHODS = ("ideal", "fisher", "rof")
FISHER_CHUNK = 32  # frames per batched Fisher scan


@dataclass(frozen=True)
class SeparationMask:
    """Per-bin noise/signal classification with method diagnostics."""

    is_signal: np.ndarray
    method: str
    aux: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        mask = np.asarray(self.is_signal, dtype=bool).copy()
        if mask.ndim != 1:
            raise ValueError("is_signal must be one-dimensional")
        if self.method not in SEPARATION_METHODS:
            raise ValueError(f"unknown separation method {self.method!r}")
        if mask.all():
            raise DegenerateSpectrumError("mask classifies every bin as signal")
        mask.setflags(write=False)
        object.__setattr__(self, "is_signal", mask)

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
    return rof_energy_drops_rows(p[None, :])[0]


def rof_energy_drops_rows(spectra: np.ndarray) -> np.ndarray:
    """Energy-drop curves of a (W, N) stack of spectra, one row per spectrum.

    Row i equals :func:`rof_energy_drops` of ``spectra[i]`` bit for bit; each
    cascade step is one minimum over all rows.  An all-zero row is not
    rejected here: its curve is all zeros.
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
    energy = np.empty((n, w))  # energy[k - 1] = E(k) of every row
    energy[0] = eroded.sum(axis=1)
    for k in range(2, n + 1):
        left = k // 2
        shift = -left if k % 2 == 0 else k - 1 - left
        np.minimum(eroded, padded[:, pad + shift:pad + shift + n], out=eroded)
        energy[k - 1] = eroded.sum(axis=1)
    prev, cur = energy[:-1].T, energy[1:].T
    drops = np.zeros((w, n - 1))
    np.divide(100.0 * (prev - cur), prev, out=drops, where=prev > 0)
    return drops


def rof_find_band_width(power: PowerSpectrum, lambda1_pct: float = 5.0,
                        drops: np.ndarray | None = None) -> int:
    """Widest occupied bandwidth K read off the energy-drop curve.

    K starts at the largest drop and walks right while the drop stays above
    lambda1_pct percent of the peak drop.  A flat spectrum (numerically zero
    curve) yields K = 2 with no extension.
    """
    if drops is None:
        drops = rof_energy_drops(power)
    n = power.n_bins
    peak = float(drops.max())
    k = int(np.argmax(drops)) + 2
    threshold = (lambda1_pct / 100.0) * peak
    while k + 1 <= n and drops[k + 1 - 2] > threshold:
        k += 1
    return k


def _smooth_trailing(p: np.ndarray, k: int) -> np.ndarray:
    # Trailing k-point mean; expanding mean over the available samples at the
    # left edge (replicating the first bin there would fabricate long rising
    # runs whenever bin 0 is a low outlier).
    cs = np.concatenate([[0.0], np.cumsum(p)])
    n = np.arange(p.size)
    lo = np.maximum(0, n - k + 1)
    return (cs[n + 1] - cs[lo]) / (n + 1 - lo)


def _positive_runs(diff: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs [i, j] (inclusive, in difference indices) of strictly positive values."""
    pos = diff > 0
    if not pos.any():
        return []
    edges = np.diff(pos.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1))
    if pos[0]:
        starts.insert(0, 0)
    if pos[-1]:
        ends.append(pos.size - 1)
    return list(zip(starts, ends))


def rof_separate(power: PowerSpectrum, params: RofParams = RofParams(),
                 drops: np.ndarray | None = None) -> SeparationMask:
    """Classify bins via rank-order filtering.

    Pipeline: bandwidth K from the erosion energy-drop curve; K-point trailing
    moving average; forward differences; strictly positive runs wider than
    lambda2_fraction * N become signal bands (a run over difference indices
    [i, j] straddles bins [i, j+1]).  Everything else is noise.  A drop curve
    computed beforehand (e.g. one row of :func:`rof_energy_drops_rows`) skips
    the cascade together with its checks.
    """
    p = power.power
    n = p.size
    if drops is None:
        drops = rof_energy_drops(power)
    k = rof_find_band_width(power, params.lambda1_pct, drops=drops)
    smoothed = _smooth_trailing(p, k)
    diff = np.diff(smoothed)
    min_width = params.lambda2_fraction * n
    mask = np.zeros(n, dtype=bool)
    runs = []
    for i, j in _positive_runs(diff):
        if (j - i + 1) > min_width:
            mask[i:j + 2] = True
            runs.append((int(i), int(j + 2)))
    aux = {"K": int(k), "d_curve": drops, "smoothed": smoothed, "runs": runs}
    if mask.all():
        raise DegenerateSpectrumError("ROF marked every bin as signal")
    return SeparationMask(is_signal=mask, method="rof", aux=aux)


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
