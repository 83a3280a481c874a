"""Noise-power estimators: ML, MVU, AIC, covariance-based (CBE) and MMSE.

All estimators work in the |X|^2/N power convention, so on a scenario scaled
to 1 mW they report values directly comparable to the reference power.  Every
method is scale-equivariant: multiplying the input power by a positive factor
multiplies the estimate by the same factor (for CBE up to the resolution of
its candidate grid).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any

import numpy as np
import scipy.linalg

from .errors import EmptyNoiseGroupError, ZeroPowerError
from .separation import SeparationMask
from .spectral import PowerSpectrum, ResourceBlock

log = logging.getLogger(__name__)

POWER_FLOOR = 1e-30  # guards logarithms against zero bins
MMSE_CHUNK = 64  # windows per batched MMSE pass
# Sliding-sum variances below this fraction of their running sum are recomputed directly.
_MMSE_SUM_GUARD = 1e-3

# Mean magnitude of the Tracy-Widom beta=2 law; the smallest eigenvalue of a
# finite complex Wishart matrix sits this many edge-fluctuation units inside
# the asymptotic Marchenko-Pastur support edge.
_TW2_MEAN_ABS = 1.7711


@dataclass(frozen=True)
class NoisePowerEstimate:
    """One noise-power figure with method diagnostics."""

    value_mw: float
    method: str
    frame_index: int | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.value_mw) and self.value_mw > 0):
            raise ZeroPowerError(
                f"{self.method}: estimate must be finite and positive, got {self.value_mw}"
            )


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues of a block's sample covariance matrix."""

    eigenvalues: np.ndarray
    n_frames: int
    n_bins: int

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64).copy()
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must be a non-empty vector")
        if np.any(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be in descending order")
        tol = 1e-10 * max(ev[0], 1.0)
        if ev[-1] < -tol:
            raise ValueError(f"eigenvalue {ev[-1]} below -{tol} tolerance")
        np.clip(ev, 0.0, None, out=ev)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)


@dataclass(frozen=True)
class MpFitRange:
    """Linearly spaced candidate noise powers for the Marchenko-Pastur fit."""

    sigma_min_sq: float
    sigma_max_sq: float
    grid_size: int

    def __post_init__(self):
        if not 0 < self.sigma_min_sq <= self.sigma_max_sq:
            raise ValueError("need 0 < sigma_min_sq <= sigma_max_sq")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")

    def grid(self) -> np.ndarray:
        if self.sigma_min_sq == self.sigma_max_sq:
            return np.array([self.sigma_min_sq])
        return np.linspace(self.sigma_min_sq, self.sigma_max_sq, self.grid_size)


def ml_estimate(power: PowerSpectrum, mask: SeparationMask) -> NoisePowerEstimate:
    """Mean bin power over the noise-classified bins of one frame; see :func:`ml_fit_frames`."""
    if mask.n_bins != power.n_bins:
        raise ValueError("mask length does not match the spectrum")
    noise = power.power[mask.noise_bins]
    value = ml_fit_frames(np.array([noise.sum()]), np.array([noise.size]))[0]
    return NoisePowerEstimate(
        value_mw=float(value), method="ml", frame_index=power.frame_index,
        diagnostics={"noise_bin_count": int(noise.size), "separation": mask.method},
    )


def ml_fit_frames(noise_sums: np.ndarray, noise_counts: np.ndarray) -> np.ndarray:
    """ML estimate of each frame from its noise-bin power sum and noise-bin count.

    The first frame without noise bins raises EmptyNoiseGroupError, the first
    non-positive or non-finite estimate ZeroPowerError, in frame order.
    """
    sums, counts = _aligned_noise_sums(noise_sums, noise_counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = sums / counts
    _check_estimates("ml", values, counts, "no bins classified as noise")
    return values


def mvu_estimate(powers: list[PowerSpectrum], masks: list[SeparationMask]) -> NoisePowerEstimate:
    """Mean over all noise-classified bins across all frames of a block.

    Equivalent to the noise-bin-count-weighted mean of the per-frame ML
    estimates; with one frame it reduces to :func:`ml_estimate`.  The
    per-frame noise sums feed :func:`mvu_fit`.
    """
    if len(powers) != len(masks) or not powers:
        raise ValueError("powers and masks must be non-empty and aligned")
    sums, counts = [], []
    for ps, mk in zip(powers, masks):
        if mk.n_bins != ps.n_bins:
            raise ValueError("mask length does not match the spectrum")
        noise = ps.power[mk.noise_bins]
        sums.append(float(noise.sum()))
        counts.append(noise.size)
    return mvu_fit(sums, counts, frame_index=powers[-1].frame_index,
                   separation=masks[0].method)


def mvu_fit(noise_sums: np.ndarray | list[float], noise_counts: np.ndarray | list[int],
            frame_index: int | None = None, separation: str | None = None) -> NoisePowerEstimate:
    """MVU estimate from each frame's noise-bin power sum and noise-bin count.

    The one-window case of :func:`mvu_fit_windows`: the sums are folded in
    frame order, so equal per-frame sums give the same estimate bit for bit
    whichever way they were computed.
    """
    sums, counts = _aligned_noise_sums(noise_sums, noise_counts)
    value = mvu_fit_windows(sums, counts, sums.size)[0]
    return NoisePowerEstimate(
        value_mw=float(value), method="mvu", frame_index=frame_index,
        diagnostics={"noise_bin_count": int(counts.sum()), "separation": separation},
    )


def mvu_fit_windows(noise_sums: np.ndarray, noise_counts: np.ndarray,
                    window: int) -> np.ndarray:
    """MVU estimate of every trailing window of ``window`` frames.

    Entry j covers frames j..j+window-1.  Each window's sums are folded left
    to right (one running sum along each row of a sliding view), the same
    fold as a loop over the frames.  The first window without noise bins
    raises EmptyNoiseGroupError, the first non-positive or non-finite
    estimate ZeroPowerError, in window order.
    """
    sums, counts = _aligned_noise_sums(noise_sums, noise_counts)
    if not 1 <= window <= sums.size:
        raise ValueError(f"a {window}-frame window does not fit in {sums.size} frames")
    totals = np.cumsum(np.lib.stride_tricks.sliding_window_view(sums, window), axis=1)[:, -1]
    cumulative = np.concatenate([[0], np.cumsum(counts)])
    window_counts = cumulative[window:] - cumulative[:-window]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = totals / window_counts
    _check_estimates("mvu", values, window_counts, "no bins classified as noise in any frame")
    return values


def _aligned_noise_sums(noise_sums, noise_counts) -> tuple[np.ndarray, np.ndarray]:
    sums = np.asarray(noise_sums, dtype=np.float64)
    counts = np.asarray(noise_counts, dtype=np.int64)
    if sums.ndim != 1 or sums.shape != counts.shape or not sums.size:
        raise ValueError("noise sums and counts must be non-empty and aligned")
    return sums, counts


def _check_estimates(method: str, values: np.ndarray, counts: np.ndarray, empty: str) -> None:
    """Raise for the first entry without noise bins or with an unusable estimate."""
    bad = (counts == 0) | ~(np.isfinite(values) & (values > 0))
    if bad.any():
        i = int(np.argmax(bad))
        if counts[i] == 0:
            raise EmptyNoiseGroupError(empty)
        raise ZeroPowerError(f"{method}: estimate must be finite and positive, got {values[i]}")


def aic_estimate(avg_periodogram: PowerSpectrum, n_frames: int) -> NoisePowerEstimate:
    """Model-order-selected noise power from the sorted averaged periodogram.

    The descending-sorted bin powers stand in for eigenvalues.  For each model
    order n the tail's arithmetic/geometric mean ratio alpha(n) scores
    AIC(n) = (N - n) * M * ln(alpha(n)) + n * (2N - n); the estimate is the
    mean of the bins below the minimizing order.  M is the total sample count
    behind the averaged periodogram (frames times bins): with the frame count
    alone the n*(2N - n) penalty dominates whenever frames < bins and the
    selected order degenerates to zero for any signal strength.  Zero bins are
    floored at a tiny epsilon so the geometric mean stays defined.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    p = avg_periodogram.power
    n = p.size
    if np.any(p <= 0):
        log.warning("flooring %d non-positive periodogram bins at %.0e",
                    int((p <= 0).sum()), POWER_FLOOR)
        p = np.maximum(p, POWER_FLOOR)
    lam = np.sort(p)[::-1]
    aic = _aic_curve(lam, n_frames * n)
    n_min = int(np.argmin(aic))
    value = float(lam[n_min:].mean())
    return NoisePowerEstimate(
        value_mw=value, method="aic", frame_index=avg_periodogram.frame_index,
        diagnostics={"n_min": n_min, "aic_min": float(aic[n_min])},
    )


def _aic_curve(lam: np.ndarray, m: int) -> np.ndarray:
    n = lam.size
    orders = np.arange(n)
    tail = (n - orders).astype(float)
    suffix_sum = np.cumsum(lam[::-1])[::-1]
    suffix_log = np.cumsum(np.log(lam[::-1]))[::-1]
    log_alpha = np.log(suffix_sum / tail) - suffix_log / tail
    return tail * m * log_alpha + orders * (2 * n - orders)


def sample_covariance(block: ResourceBlock) -> np.ndarray:
    """Frame-by-frame sample covariance C = (1/N) X X^H of a block.

    Rows of X are the block's frames with bins scaled by 1/sqrt(N), so that C
    has the configured noise power as its eigenvalue scale.  The complex
    (Hermitian) form is used: bin magnitudes have a non-zero mean that would
    inject a spurious rank-one spike and push the bulk spectrum off the
    Marchenko-Pastur support.
    """
    n = block.n_bins
    x = block.spectral_matrix() / np.sqrt(n)
    return (x @ x.conj().T) / n


def covariance_spectrum(cov: np.ndarray, n_bins: int) -> EigenSpectrum:
    """Descending eigenvalues of an M x M sample covariance over N bins."""
    m = cov.shape[0]
    if m < 2:
        raise ValueError("need at least 2 frames")
    if n_bins < m:
        raise ValueError("need n_bins >= n_frames for an aspect ratio below 1")
    cov = 0.5 * (cov + cov.conj().T)
    try:
        ev = np.linalg.eigvalsh(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed on the sample covariance: {exc}") from exc
    return EigenSpectrum(eigenvalues=ev[::-1], n_frames=m, n_bins=n_bins)


def covariance_eigenvalues(block: ResourceBlock) -> EigenSpectrum:
    """Eigenvalues of the block's frame-by-frame sample covariance matrix."""
    return covariance_spectrum(sample_covariance(block), block.n_bins)


def _unit_mp_nodes(c: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """CDF table of the unit-scale Marchenko-Pastur law on its support."""
    a = (1.0 - np.sqrt(c)) ** 2
    b = (1.0 + np.sqrt(c)) ** 2
    # x = a + (b-a) sin^2(theta) removes the square-root endpoint singularities.
    theta = np.linspace(0.0, np.pi / 2.0, n_nodes)
    x = a + (b - a) * np.sin(theta) ** 2
    integrand = np.empty(n_nodes)
    integrand[[0, -1]] = 0.0
    mid = x[1:-1]
    density = np.sqrt((b - mid) * (mid - a)) / (2.0 * np.pi * c * mid)
    integrand[1:-1] = density * (b - a) * np.sin(2.0 * theta[1:-1])
    half = np.diff(theta) / 2.0
    cdf = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1]) * half)])
    return x, cdf


@lru_cache(maxsize=32)
def _unit_mp_table(c: float) -> tuple[np.ndarray, np.ndarray, float]:
    nodes = 8193
    x, cdf = _unit_mp_nodes(c, nodes)
    # One adaptive refinement: double the grid until the normalization settles.
    while abs(cdf[-1] - 1.0) > 1e-9 and nodes < 2**17:
        nodes = 2 * nodes - 1
        x, cdf = _unit_mp_nodes(c, nodes)
    norm_error = abs(cdf[-1] - 1.0)
    cdf = cdf / cdf[-1]  # pin the support ends exactly onto {0, 1}
    x.setflags(write=False)
    cdf.setflags(write=False)
    return x, cdf, norm_error


def mp_cdf_normalization_error(c: float) -> float:
    """Raw integration error of the unit-scale CDF's total mass at ratio c."""
    return _unit_mp_table(float(c))[2]


def mp_cdf(x, c: float, sigma_sq: float):
    """Marchenko-Pastur CDF with aspect ratio c and scale sigma_sq.

    Accepts a scalar or an array; values below the support map to 0 and above
    to 1.  The underlying unit-scale table is built by trapezoid integration
    on a singularity-removing substitution grid, refined until the total mass
    is within 1e-9 of unity, and cached per aspect ratio.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("aspect ratio c must lie in (0, 1)")
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    nodes, cdf, _ = _unit_mp_table(float(c))
    values = np.interp(np.asarray(x, dtype=np.float64) / sigma_sq, nodes, cdf,
                       left=0.0, right=1.0)
    values = np.clip(values, 0.0, 1.0)
    return float(values) if np.isscalar(x) else values


def _mp_edge_offset(m: int, n: int) -> float:
    """Finite-size inward shift of the smallest covariance eigenvalue.

    The expectation of the smallest eigenvalue exceeds the asymptotic lower
    edge by roughly |E[TW2]| edge-fluctuation units; without this term the
    candidate grid's lower bound sits a few percent above the true power and
    the fit pins there (measured +0.23 dB at M=64, N=512).
    """
    scale = (np.sqrt(n) - np.sqrt(m)) * (1.0 / np.sqrt(m) - 1.0 / np.sqrt(n)) ** (1.0 / 3.0) / n
    return _TW2_MEAN_ABS * scale


def cbe_fit_range(eigen: EigenSpectrum, signal_count: int, grid_size: int) -> MpFitRange:
    """Candidate noise-power range from the extreme non-signal eigenvalues."""
    m, n = eigen.n_frames, eigen.n_bins
    lam = eigen.eigenvalues
    edge = (1.0 - np.sqrt(m / n)) ** 2
    if edge == 0.0:
        raise ZeroPowerError("square blocks leave no Marchenko-Pastur margin")
    sigma_min = lam[-1] / (edge + _mp_edge_offset(m, n))
    sigma_max = lam[signal_count] / edge
    if sigma_min <= 0:
        raise ZeroPowerError("smallest eigenvalue is zero; no noise floor to fit")
    return MpFitRange(sigma_min_sq=float(sigma_min),
                      sigma_max_sq=float(max(sigma_min, sigma_max)),
                      grid_size=grid_size)


def cbe_estimate(block: ResourceBlock, occupied_fraction: float,
                 grid_size: int = 100) -> NoisePowerEstimate:
    """Covariance-based estimate of one block; see :func:`cbe_fit`."""
    return cbe_fit(sample_covariance(block), block.n_bins, occupied_fraction,
                   grid_size=grid_size, frame_index=block.n_frames - 1)


def cbe_fit(cov: np.ndarray, n_bins: int, occupied_fraction: float, grid_size: int = 100,
            frame_index: int | None = None) -> NoisePowerEstimate:
    """Best Marchenko-Pastur fit over a power grid to a sample covariance's spectrum.

    The top S = round(M * occupied_fraction) eigenvalues are attributed to the
    signal; the remaining ones are compared, through their empirical CDF
    evaluated at the eigenvalues themselves, against the MP law with ratio
    (M - S)/N for each candidate power on the grid.  The candidate with the
    smallest root-sum-square CDF misfit wins.
    """
    if not 0.0 <= occupied_fraction < 1.0:
        raise ValueError("occupied_fraction must lie in [0, 1)")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    m = cov.shape[0]
    s = int(round(m * occupied_fraction))
    if s >= m:
        raise ValueError(f"S={s} signal eigenvalues leave no noise group (M={m})")
    eigen = covariance_spectrum(cov, n_bins)
    fit = cbe_fit_range(eigen, s, grid_size)
    noise_eigs = eigen.eigenvalues[s:][::-1]  # ascending
    n_noise = noise_eigs.size
    ecdf = np.arange(1, n_noise + 1) / n_noise
    grid = fit.grid()
    # One row per candidate power: the noise eigenvalues in that candidate's units.
    diff = ecdf - mp_cdf(noise_eigs / grid[:, None], (m - s) / n_bins, 1.0)
    distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    best = int(np.argmin(distances))
    return NoisePowerEstimate(
        value_mw=float(grid[best]), method="cbe", frame_index=frame_index,
        diagnostics={
            "signal_count": s, "grid": grid, "distances": distances,
            "sigma_min_sq": fit.sigma_min_sq, "sigma_max_sq": fit.sigma_max_sq,
        },
    )


def mmse_estimate(block: ResourceBlock, blind: bool = True) -> NoisePowerEstimate:
    """Per-subcarrier MMSE-filter estimate from the block's last frame; see :func:`mmse_fit`."""
    return mmse_fit(block.spectral_matrix(), blind=blind, frame_index=block.n_frames - 1)


def mmse_fit(spectral: np.ndarray, blind: bool = True,
             frame_index: int | None = None) -> NoisePowerEstimate:
    """Per-subcarrier MMSE-filter estimate from the last row of an (M, N) spectral matrix.

    In the blind adaptation each subcarrier's time mean over the first M-1
    frames is subtracted from the whole block, reducing a deterministic
    transmission to zero-mean residuals (excluding the estimated frame from
    the reference keeps the weights independent of it; including it measurably
    biases the estimate low).  Subcarrier variances over the first M-1 frames
    feed a frequency-lag autocorrelation r with biased (1/N) normalization,
    the Toeplitz system (C + r(0) I) w = r is solved for the weights
    (Levinson recursion), and the estimate is the weighted power of the
    final frame.  The weights are normalized to unit sum before weighting:
    the raw solution's sum is a fixed property of the lag taper (0.943 at
    N=512, a -0.17 dB structural bias on white noise).  Diagnostics carry the
    raw system residual.

    This is the one-window case of :func:`mmse_fit_windows`, which takes the
    blind mean and the variances from sliding sums over the rows.  C is a
    biased autocorrelation matrix and so positive semi-definite; C + r(0) I
    is positive definite, Levinson meets no singular leading minor, and the
    ridge fallback can only be reached through round-off or overflow.
    """
    fit = mmse_fit_windows(spectral, spectral.shape[0], blind=blind)[0]
    return replace(fit, frame_index=frame_index)


def mmse_fit_windows(spectral: np.ndarray, window: int,
                     blind: bool = True) -> list[NoisePowerEstimate]:
    """:func:`mmse_fit` of every trailing window of ``window`` rows of an (M, N) matrix.

    Entry j covers rows j..j+window-1 and reports at row j+window-1, its
    ``frame_index``.  Windows are evaluated ``MMSE_CHUNK`` at a time: the
    chunk's rows are scaled once, each window's blind mean and variances come
    from running sums over those rows (shifted by the chunk's mean, so the
    variance subtraction does not cancel), all lag vectors from one FFT pair
    of length 2N and all system residuals from one FFT circulant product.
    Each window still gets its own Levinson solve, and windows are checked in
    order, so the first failing window raises.
    """
    total, n = spectral.shape
    if window < 3:
        raise ValueError("need at least 3 frames")
    if window > total:
        raise ValueError(f"a {window}-frame window does not fit in {total} frames")
    fits: list[NoisePowerEstimate] = []
    for first in range(0, total - window + 1, MMSE_CHUNK):
        rows = spectral[first:min(first + MMSE_CHUNK, total - window + 1) + window - 1]
        fits.extend(_mmse_chunk(rows / np.sqrt(n), window, blind, first))
    return fits


def _mmse_chunk(x: np.ndarray, m: int, blind: bool, first: int) -> list[NoisePowerEstimate]:
    """MMSE fits of the windows of m consecutive rows of the scaled chunk x."""
    count, n = x.shape[0] - m + 1, x.shape[1]
    variance, last_power = _mmse_moments(x, m, blind)
    r0 = np.einsum("ij,ij->i", variance, variance) / n
    spectra = np.fft.rfft(variance, 2 * n, axis=1)
    lags = np.fft.irfft(spectra.real**2 + spectra.imag**2, 2 * n, axis=1)[:, :n] / n
    columns = np.empty_like(lags)
    raw_weights = np.empty_like(lags)
    fits = []
    for j in range(count):
        if r0[j] == 0.0:
            raise ZeroPowerError("all-zero residual block; nothing to estimate")
        raw_weights[j], columns[j] = _solve_mmse_weights(lags[j])
        weight_sum = float(raw_weights[j].sum())
        if weight_sum == 0.0:
            raise ZeroPowerError("MMSE weights sum to zero")
        weights = raw_weights[j] / weight_sum
        estimate = float(weights @ last_power[j])
        if estimate <= 0:
            raise ZeroPowerError(f"MMSE produced a non-positive estimate ({estimate})")
        fits.append((estimate, weight_sum, float(np.abs(weights).max())))
    residuals = _toeplitz_residuals(columns, raw_weights, lags)
    return [
        NoisePowerEstimate(
            value_mw=estimate, method="mmse", frame_index=first + j + m - 1,
            diagnostics={
                "raw_weight_sum": weight_sum,
                "weight_max": weight_max,
                "system_residual": float(residuals[j]),
                "blind": blind,
            },
        )
        for j, (estimate, weight_sum, weight_max) in enumerate(fits)
    ]


def _mmse_moments(x: np.ndarray, m: int, blind: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-window subcarrier variances over the first m-1 rows, and last-row powers.

    Row j of each result belongs to the window of rows j..j+m-1 of x.  A
    window whose variance in some bin falls below ``_MMSE_SUM_GUARD`` of the
    running sum it was taken from (identical or near-identical reference
    rows) is recomputed from its own rows, exactly as a lone window would be.
    """
    count, ref = x.shape[0] - m + 1, m - 1
    y = x - x.mean(axis=0) if blind else x
    power = y.real**2 + y.imag**2
    power_sums = np.cumsum(power, axis=0)
    variance = _window_sums(power_sums, ref, count) / ref
    if blind:
        mean = _window_sums(np.cumsum(y, axis=0), ref, count) / ref
        variance -= mean.real**2 + mean.imag**2
        last = y[ref:] - mean
        last_power = last.real**2 + last.imag**2
    else:
        last_power = power[ref:].copy()
    running = power_sums[ref - 1:ref - 1 + count] / ref
    for j in np.flatnonzero((variance < _MMSE_SUM_GUARD * running).any(axis=1)):
        rows = x[j:j + m]
        if blind:
            rows = rows - rows[:ref].mean(axis=0, keepdims=True)
        rows_power = rows.real**2 + rows.imag**2
        variance[j] = rows_power[:ref].sum(axis=0) / ref
        last_power[j] = rows_power[ref]
    return variance, last_power


def _window_sums(cumulative: np.ndarray, length: int, count: int) -> np.ndarray:
    """Sums of rows j..j+length-1, j < count, from running sums along axis 0."""
    sums = cumulative[length - 1:length - 1 + count].copy()
    sums[1:] -= cumulative[:count - 1]
    return sums


def _solve_mmse_weights(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights w of (C + r(0) I) w = r and the Toeplitz column they solve."""
    column = r.copy()
    column[0] = 2.0 * r[0]  # C + r(0) I along the diagonal
    w = _try_toeplitz(column, r)
    if w is None:
        # Single ridge fallback: 1e-6 * trace(C)/N on the diagonal, then give up.
        column[0] = 2.0 * r[0] + 1e-6 * r[0]
        w = _try_toeplitz(column, r)
        if w is None:
            raise ValueError("MMSE weight system is singular even after ridge")
    return w, column


def _try_toeplitz(column: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    try:
        w = scipy.linalg.solve_toeplitz((column, column), rhs)
    except np.linalg.LinAlgError:
        return None
    return w if np.all(np.isfinite(w)) else None


def _toeplitz_residuals(columns: np.ndarray, solutions: np.ndarray,
                        rhs: np.ndarray) -> np.ndarray:
    """||T x - b|| / ||b|| per row, T the symmetric Toeplitz matrix of that row's column.

    T x is read off the circulant of size 2N that embeds T, one FFT product
    for all rows.
    """
    count, n = columns.shape
    circulant = np.concatenate([columns, np.zeros((count, 1)), columns[:, :0:-1]], axis=1)
    product = np.fft.irfft(np.fft.rfft(circulant, axis=1) * np.fft.rfft(solutions, 2 * n, axis=1),
                           2 * n, axis=1)[:, :n]
    return np.linalg.norm(product - rhs, axis=1) / np.linalg.norm(rhs, axis=1)


def snr_from_powers(sigma_x_sq: float, sigma_w_sq: float) -> tuple[float, float]:
    """Excess-power SNR (linear, dB); dB is -inf when no excess power remains."""
    if sigma_w_sq <= 0:
        raise ZeroPowerError("noise power must be positive")
    if sigma_x_sq < 0:
        raise ValueError("received power must be non-negative")
    linear = (sigma_x_sq - sigma_w_sq) / sigma_w_sq
    db = 10.0 * np.log10(linear) if linear > 0 else -np.inf
    return linear, float(db)


def snr_db_from_powers(sigma_x_sq: np.ndarray, sigma_w_sq: np.ndarray) -> np.ndarray:
    """:func:`snr_from_powers` in dB of aligned arrays, element by element."""
    sigma_x_sq = np.asarray(sigma_x_sq, dtype=np.float64)
    sigma_w_sq = np.asarray(sigma_w_sq, dtype=np.float64)
    if np.any(sigma_w_sq <= 0):
        raise ZeroPowerError("noise power must be positive")
    if np.any(sigma_x_sq < 0):
        raise ValueError("received power must be non-negative")
    linear = (sigma_x_sq - sigma_w_sq) / sigma_w_sq
    excess = linear > 0
    return np.where(excess, 10.0 * np.log10(np.where(excess, linear, 1.0)), -np.inf)
