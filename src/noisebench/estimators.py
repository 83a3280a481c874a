"""Noise-power estimators: ML, MVU, AIC, covariance-based (CBE) and MMSE.

All estimators work in the |X|^2/N power convention, so on a scenario scaled
to 1 mW they report values directly comparable to the reference power.  Every
method is scale-equivariant: multiplying the input power by a positive factor
multiplies the estimate by the same factor (for CBE up to the resolution of
its candidate grid).

Each estimator is one array engine over a stack of frames or windows
(``ml_fit_frames``, ``mvu_fit_*``, ``aic_fit_rows``, ``cbe_fit_windows``,
``mmse_fit_windows``) returning the estimates, or a tuple of arrays with the
estimates first.  The first failing entry raises (:func:`errors.raise_first`); MMSE
stops at the end of its chunk, CBE at the failing window.  Only the one-block
``*_estimate`` wrappers build a :class:`NoisePowerEstimate`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from .errors import DegenerateSpectrumError, EmptyNoiseGroupError, ZeroPowerError, raise_first
from .separation import SeparationMask
from .spectral import PowerSpectrum, ResourceBlock

log = logging.getLogger(__name__)

POWER_FLOOR = 1e-30  # guards logarithms against zero bins
MMSE_CHUNK = 64  # windows per batched MMSE pass
AIC_CHUNK = 64  # averaged periodograms per batched AIC fit
CBE_GRID_SIZE = 100  # candidate noise powers of one CBE fit
MMSE_BLIND = True  # MMSE subtracts each subcarrier's time mean unless told otherwise
# Batched conjugate-gradient solves of the MMSE weight systems: relative
# residual at which a window's iteration stops, the iteration cap, and the
# largest true residual accepted before the window is re-solved by Levinson.
MMSE_PCG_TOL = 1e-15
MMSE_PCG_MAX_ITER = 64
MMSE_PCG_RESIDUAL = 1e-13
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


def ml_estimate(power: PowerSpectrum, mask: SeparationMask) -> NoisePowerEstimate:
    """Mean noise-bin power of one frame: the one-frame case of :func:`mvu_estimate`."""
    return _noise_mean_estimate("ml", [power], [mask])


def ml_fit_frames(noise_sums: np.ndarray, noise_counts: np.ndarray) -> np.ndarray:
    """ML estimate of each frame, a one-frame MVU window, from its noise-bin power sum and count.

    The first frame without noise bins raises EmptyNoiseGroupError, the first
    non-positive or non-finite estimate ZeroPowerError, in frame order.
    """
    sums, counts = _aligned_noise_sums(noise_sums, noise_counts)
    return _noise_means("ml", sums[:, None], counts[:, None])


def mvu_estimate(powers: list[PowerSpectrum], masks: list[SeparationMask]) -> NoisePowerEstimate:
    """Mean over all noise-classified bins across all frames of a block.

    Equivalent to the noise-bin-count-weighted mean of the per-frame ML
    estimates; with one frame it reduces to :func:`ml_estimate`.  The
    per-frame noise sums are folded by :func:`mvu_fit_rows` as one window.
    """
    return _noise_mean_estimate("mvu", powers, masks)


def _noise_mean_estimate(method: str, powers: list[PowerSpectrum],
                         masks: list[SeparationMask]) -> NoisePowerEstimate:
    if len(powers) != len(masks) or not powers:
        raise ValueError("powers and masks must be non-empty and aligned")
    if any(mk.n_bins != ps.n_bins for ps, mk in zip(powers, masks)):
        raise ValueError("mask length does not match the spectrum")
    noise = [ps.power[mk.noise_bins] for ps, mk in zip(powers, masks)]
    counts = np.array([[x.size for x in noise]], dtype=np.int64)
    value = _noise_means(method, np.array([[x.sum() for x in noise]]), counts)[0]
    return NoisePowerEstimate(
        value_mw=float(value), method=method, frame_index=powers[-1].frame_index,
        diagnostics={"noise_bin_count": int(counts.sum()), "separation": masks[0].method},
    )


def mvu_fit_windows(noise_sums: np.ndarray | list[float], noise_counts: np.ndarray | list[int],
                    window: int) -> np.ndarray:
    """MVU estimate of every trailing window of ``window`` frames.

    Entry j covers frames j..j+window-1; the windows are the rows of a
    sliding view, folded by :func:`mvu_fit_rows`.
    """
    sums, counts = _aligned_noise_sums(noise_sums, noise_counts)
    if not 1 <= window <= sums.size:
        raise ValueError(f"a {window}-frame window does not fit in {sums.size} frames")
    view = np.lib.stride_tricks.sliding_window_view
    return mvu_fit_rows(view(sums, window), view(counts, window))


def mvu_fit_rows(noise_sums: np.ndarray, noise_counts: np.ndarray) -> np.ndarray:
    """MVU estimate of each row of (W, F) per-frame noise-bin power sums and counts.

    Each row's sums are folded left to right (one running sum along the
    row), the same fold as a loop over its frames, so equal per-frame sums
    give the same estimate bit for bit whichever way they were computed.
    The first row without noise bins raises EmptyNoiseGroupError, the first
    non-positive or non-finite estimate ZeroPowerError, in row order.
    """
    return _noise_means("mvu", noise_sums, noise_counts)


def _noise_means(method: str, noise_sums: np.ndarray, noise_counts: np.ndarray) -> np.ndarray:
    """Each row's noise mean, the left-to-right fold of its sums over its total count, checked."""
    totals = np.cumsum(noise_sums, axis=1)[:, -1]
    counts = np.sum(noise_counts, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = totals / counts
    empty = "no bins classified as noise" + (" in any frame" if method == "mvu" else "")
    raise_first([
        (counts == 0, lambda i: EmptyNoiseGroupError(empty)),
        (~(np.isfinite(values) & (values > 0)), lambda i: ZeroPowerError(
            f"{method}: estimate must be finite and positive, got {values[i]}")),
    ])
    return values


def _aligned_noise_sums(noise_sums, noise_counts) -> tuple[np.ndarray, np.ndarray]:
    sums = np.asarray(noise_sums, dtype=np.float64)
    counts = np.asarray(noise_counts, dtype=np.int64)
    if sums.ndim != 1 or sums.shape != counts.shape or not sums.size:
        raise ValueError("noise sums and counts must be non-empty and aligned")
    return sums, counts


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

    This is the one-row case of :func:`aic_fit_rows`.
    """
    values, orders, minima = aic_fit_rows(avg_periodogram.power[None, :], n_frames)
    return NoisePowerEstimate(
        value_mw=float(values[0]), method="aic", frame_index=avg_periodogram.frame_index,
        diagnostics={"n_min": int(orders[0]), "aic_min": float(minima[0])},
    )


def aic_fit_rows(avg: np.ndarray, n_frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`aic_estimate` of every row of a (W, N) stack of averaged periodograms.

    Returns each row's estimate, selected order n_min and AIC minimum.  Rows
    are fitted ``AIC_CHUNK`` at a time, one sort and one curve per chunk;
    each row's tail mean is taken alone, so every row comes out as it would
    on its own.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    p = np.asarray(avg, dtype=np.float64)
    if p.ndim != 2 or not p.shape[1]:
        raise ValueError("need a (W, N) stack of periodograms with N >= 1")
    values, orders, minima = np.empty(len(p)), np.empty(len(p), dtype=np.intp), np.empty(len(p))
    for lo in range(0, len(p), AIC_CHUNK):
        hi = lo + AIC_CHUNK
        values[lo:hi], orders[lo:hi], minima[lo:hi] = _aic_chunk(p[lo:hi], n_frames)
    return values, orders, minima


def _aic_chunk(p: np.ndarray, n_frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    floored = (p <= 0).sum(axis=1)
    for count in floored[floored > 0]:
        log.warning("flooring %d non-positive periodogram bins at %.0e", int(count), POWER_FLOOR)
    if floored.any():
        p = np.maximum(p, POWER_FLOOR)
    lam = np.sort(p, axis=1)[:, ::-1]
    aic = _aic_curve(lam, n_frames * p.shape[1])
    orders = np.argmin(aic, axis=1)
    values = np.array([row[k:].mean() for row, k in zip(lam, orders)])
    return values, orders, aic[np.arange(len(orders)), orders]


def _aic_curve(lam: np.ndarray, m: int) -> np.ndarray:
    """AIC of every model order along the last axis of descending-sorted bin powers."""
    n = lam.shape[-1]
    orders = np.arange(n)
    tail = (n - orders).astype(float)
    suffix_sum = np.cumsum(lam[..., ::-1], axis=-1)[..., ::-1]
    suffix_log = np.cumsum(np.log(lam[..., ::-1]), axis=-1)[..., ::-1]
    log_alpha = np.log(suffix_sum / tail) - suffix_log / tail
    return tail * m * log_alpha + orders * (2 * n - orders)


def sample_covariance(block: ResourceBlock) -> np.ndarray:
    """Frame-by-frame sample covariance C = (1/N) X X^H of a block.

    Rows of X are the block's frames with bins scaled by 1/sqrt(N), so that C
    has the configured noise power as its eigenvalue scale.  The complex
    (Hermitian) form is used: bin magnitudes have a non-zero mean that would
    inject a spurious rank-one spike and push the bulk spectrum off the
    Marchenko-Pastur support.  The product is symmetrised, 0.5 * (C + C^H),
    because its round-off leaves it Hermitian only to about 1e-15; any
    diagonal block of the result is then a Hermitian covariance as it stands.
    """
    n = block.n_bins
    x = block.spectral / np.sqrt(n)
    cov = x @ x.conj().T
    cov /= n
    cov += cov.conj().T  # conj() is a copy, so the sum reads no updated entry
    cov *= 0.5
    return cov


def covariance_eigenvalues(block: ResourceBlock) -> np.ndarray:
    """Descending eigenvalues of the block's sample covariance, clipped at zero."""
    _check_window_shape(block.n_frames, block.n_bins)
    return _descending_eigenvalues(sample_covariance(block))


def _check_window_shape(m: int, n: int) -> None:
    if m < 2:
        raise ValueError("need at least 2 frames")
    if n < m:
        raise ValueError("need n_bins >= n_frames for an aspect ratio below 1")


def _descending_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian covariance (a diagonal block of
    :func:`sample_covariance`), largest first.

    A negative eigenvalue within 1e-10 of the largest (or of 1) is round-off
    and is clipped to zero; one further below raises.
    """
    try:
        ev = np.linalg.eigvalsh(cov)[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed on the sample covariance: {exc}") from exc
    tol = 1e-10 * max(ev[0], 1.0)
    if ev[-1] < -tol:
        raise ValueError(f"eigenvalue {ev[-1]} below -{tol} tolerance")
    return np.clip(ev, 0.0, None, out=ev)


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


def cbe_estimate(block: ResourceBlock, occupied_fraction: float,
                 grid_size: int = CBE_GRID_SIZE) -> NoisePowerEstimate:
    """Covariance-based estimate of one block with S = round(M * occupied_fraction)
    signal eigenvalues; the one-window case of :func:`cbe_fit_windows`."""
    if not 0.0 <= occupied_fraction < 1.0:
        raise ValueError("occupied_fraction must lie in [0, 1)")
    m = block.n_frames
    s = int(round(m * occupied_fraction))
    values, grids, distances = cbe_fit_windows(sample_covariance(block), block.n_bins, m,
                                               np.array([s]), grid_size)
    return NoisePowerEstimate(
        value_mw=float(values[0]), method="cbe", frame_index=m - 1,
        diagnostics={
            "signal_count": s, "grid": grids[0], "distances": distances[0],
            "sigma_min_sq": float(grids[0, 0]), "sigma_max_sq": float(grids[0, -1]),
        },
    )


def cbe_fit_windows(gram: np.ndarray, n_bins: int, window: int, signal_counts: np.ndarray,
                    grid_size: int = CBE_GRID_SIZE
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best Marchenko-Pastur fit to the covariance spectrum of every trailing window.

    Window j's covariance is the diagonal block j..j+window-1 of gram, the
    frame Gram matrix of :func:`sample_covariance`.  Its top signal_counts[j]
    = S eigenvalues are attributed to the signal; the rest are compared,
    through their empirical CDF at the eigenvalues themselves, against the MP
    law with ratio (window - S)/N for grid_size candidate powers spaced
    linearly from the smallest eigenvalue over the finite-size lower edge to
    the (S+1)-th largest over the asymptotic edge (equal candidates when that
    range collapses).  The smallest root-sum-square misfit wins.

    Returns the estimates and the (W, grid_size) grids and misfits.  Windows
    are solved one at a time, so no stack of covariances is built, and each is
    checked as it is solved, so none past a failing one is: S leaving no noise
    eigenvalue raises EmptyNoiseGroupError, a negative one beyond round-off ValueError,
    a square window, a zero smallest eigenvalue or an unusable estimate
    ZeroPowerError.
    """
    counts = np.asarray(signal_counts)
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    _check_window_shape(window, n_bins)
    if window > gram.shape[0]:
        raise ValueError(f"a {window}-frame window does not fit in {gram.shape[0]} frames")
    if (counts.shape != (gram.shape[0] - window + 1,) or counts.dtype.kind not in "iu"
            or (counts < 0).any()):
        raise ValueError("need one non-negative integer signal count per window")
    m = window
    edge = (1.0 - np.sqrt(m / n_bins)) ** 2
    lower_edge = edge + _mp_edge_offset(m, n_bins)
    values = np.empty(counts.size)
    # Stacked once at the end: (W, grid_size) outputs held through the loop
    # raised the peak resident memory of a 2-seed reference run by 4.5 MB in
    # most runs (glibc heap layout, 2-vCPU x86-64 VM).
    grids, distances = [], []
    for j, s in enumerate(counts.tolist()):
        if s >= m:
            raise EmptyNoiseGroupError(f"S={s} signal eigenvalues leave no noise group (M={m})")
        lam = _descending_eigenvalues(gram[j:j + m, j:j + m])
        if edge == 0.0:
            raise ZeroPowerError("square blocks leave no Marchenko-Pastur margin")
        sigma_min = lam[-1] / lower_edge
        if sigma_min <= 0:
            raise ZeroPowerError("smallest eigenvalue is zero; no noise floor to fit")
        grid = np.linspace(sigma_min, max(sigma_min, lam[s] / edge), grid_size)
        noise = lam[s:][::-1]  # ascending
        ecdf = np.arange(1, m - s + 1) / (m - s)
        # One row per candidate power: the noise eigenvalues in that candidate's units.
        diff = ecdf - mp_cdf(noise / grid[:, None], (m - s) / n_bins, 1.0)
        distances.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
        grids.append(grid)
        values[j] = grid[np.argmin(distances[-1])]
        if not (np.isfinite(values[j]) and values[j] > 0):
            raise ZeroPowerError(f"cbe: estimate must be finite and positive, got {values[j]}")
    return values, np.stack(grids), np.stack(distances)


def mmse_estimate(block: ResourceBlock, blind: bool = MMSE_BLIND) -> NoisePowerEstimate:
    """Per-subcarrier MMSE-filter estimate from the block's last frame.

    In the blind adaptation each subcarrier's time mean over the first M-1
    frames is subtracted from the whole block, reducing a deterministic
    transmission to zero-mean residuals (excluding the estimated frame from
    the reference keeps the weights independent of it; including it measurably
    biases the estimate low).  Subcarrier variances over the first M-1 frames
    feed a frequency-lag autocorrelation r with biased (1/N) normalization,
    the Toeplitz system (C + r(0) I) w = r is solved for the weights
    (preconditioned conjugate gradients, with Levinson recursion as the
    fallback), and the estimate is the weighted power of the final frame.
    The weights are normalized to unit sum before weighting: the raw
    solution's sum is a fixed property of the lag taper (0.943 at N=512, a
    -0.17 dB structural bias on white noise).  Diagnostics carry the raw
    system residual.

    This is the one-window case of :func:`mmse_fit_windows`.  C is a biased
    autocorrelation matrix and so positive semi-definite; C + r(0) I is
    positive definite, conjugate gradients apply, Levinson meets no singular
    leading minor, and the ridge fallback can only be reached through
    round-off or overflow.
    """
    values, weight_sums, weight_maxes, residuals = mmse_fit_windows(
        block.spectral, block.n_frames, blind=blind)
    return NoisePowerEstimate(
        value_mw=float(values[0]), method="mmse", frame_index=block.n_frames - 1,
        diagnostics={
            "raw_weight_sum": float(weight_sums[0]),
            "weight_max": float(weight_maxes[0]),
            "system_residual": float(residuals[0]),
            "blind": blind,
        },
    )


def mmse_fit_windows(spectral: np.ndarray, window: int, blind: bool = MMSE_BLIND
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mmse_estimate` of every trailing window of ``window`` rows of an (M, N) matrix.

    Entry j covers rows j..j+window-1 and reports at row j+window-1.
    Returns each window's estimate, raw weight sum, largest normalised weight
    magnitude and relative system residual.  Windows are evaluated
    ``MMSE_CHUNK`` at a time: the chunk's rows are scaled once, each window's
    blind mean and variances come from running sums over those rows (shifted
    by the chunk's mean, so the variance subtraction does not cancel), all
    lag vectors from one FFT pair of length 2N and all system residuals from
    one FFT circulant product.  The chunk's weight systems are solved
    together by preconditioned conjugate gradients, as batched FFTs; a
    window that does not converge to a true residual of ``MMSE_PCG_RESIDUAL``
    gets its own Levinson solve.  The first failing window raises, once its
    chunk is solved.
    """
    total, n = spectral.shape
    if window < 3:
        raise ValueError("need at least 3 frames")
    if window > total:
        raise ValueError(f"a {window}-frame window does not fit in {total} frames")
    chunks = []
    for first in range(0, total - window + 1, MMSE_CHUNK):
        rows = spectral[first:min(first + MMSE_CHUNK, total - window + 1) + window - 1]
        chunks.append(_mmse_chunk(*_mmse_moments(rows / np.sqrt(n), window, blind)))
    return tuple(np.concatenate(column) for column in zip(*chunks))


def _mmse_chunk(variance: np.ndarray, last_power: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MMSE fits of consecutive windows from their variances and last-row powers.

    Row j of both arrays belongs to window j of the chunk; the four results
    are those of :func:`mmse_fit_windows`.  Each window's variances are scaled
    exactly, by a power of two, to a maximum in [0.5, 1); the weights do not
    depend on it.  All windows without an all-zero residual block are solved
    together by :func:`_pcg_toeplitz`; one that does not converge, is not finite
    or leaves a true residual above ``MMSE_PCG_RESIDUAL`` is solved again by
    Levinson recursion (:func:`_solve_mmse_weights`).  Then the first failing
    window raises.
    """
    count = variance.shape[0]
    variance = np.ldexp(variance, -np.frexp(variance.max(axis=1))[1][:, None])
    lags = _mmse_lags(variance)
    columns = lags.copy()
    columns[:, 0] *= 2.0  # C + r(0) I along the diagonal
    raw_weights, residuals = np.zeros_like(lags), np.zeros(count)
    zero = ~variance.any(axis=1)
    live = np.flatnonzero(~zero)
    converged, singular = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    if live.size:
        raw_weights[live], converged[live] = _pcg_toeplitz(columns[live], lags[live])
        residuals[live] = _toeplitz_residuals(columns[live], raw_weights[live], lags[live])
    solved = converged & np.isfinite(raw_weights).all(axis=1) & (residuals <= MMSE_PCG_RESIDUAL)
    levinson = np.flatnonzero(~solved & ~zero)
    for j in levinson:
        w, columns[j] = _solve_mmse_weights(lags[j])
        singular[j] = w is None
        raw_weights[j] = 0.0 if w is None else w
    weight_sums = raw_weights.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = raw_weights / weight_sums[:, None]
        values = np.matmul(weights[:, None, :], last_power[:, :, None])[:, 0, 0]
        weight_maxes = np.abs(weights).max(axis=1)
    raise_first([
        (zero, lambda j: ZeroPowerError("all-zero residual block; nothing to estimate")),
        (singular, lambda j: DegenerateSpectrumError(
            "MMSE weight system is singular even after ridge")),
        (weight_sums == 0.0, lambda j: ZeroPowerError("MMSE weights sum to zero")),
        (values <= 0, lambda j: ZeroPowerError(
            f"MMSE produced a non-positive estimate ({float(values[j])})")),
        (~np.isfinite(values), lambda j: ZeroPowerError(
            f"mmse: estimate must be finite and positive, got {float(values[j])}")),
    ])
    residuals[levinson] = _toeplitz_residuals(columns[levinson], raw_weights[levinson],
                                              lags[levinson])
    return values, weight_sums, weight_maxes, residuals


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


def _mmse_lags(variance: np.ndarray) -> np.ndarray:
    """Biased (1/N) frequency-lag autocorrelation of each row, from one FFT pair of length 2N."""
    n = variance.shape[1]
    spectra = np.fft.rfft(variance, 2 * n, axis=1)
    return np.fft.irfft(spectra.real**2 + spectra.imag**2, 2 * n, axis=1)[:, :n] / n


def _window_sums(cumulative: np.ndarray, length: int, count: int) -> np.ndarray:
    """Sums of rows j..j+length-1, j < count, from running sums along axis 0."""
    sums = cumulative[length - 1:length - 1 + count].copy()
    sums[1:] -= cumulative[:count - 1]
    return sums


def _solve_mmse_weights(r: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Weights w of (C + r(0) I) w = r, None if singular even with a ridge, and w's column."""
    column = r.copy()
    column[0] = 2.0 * r[0]  # C + r(0) I along the diagonal
    w = _try_toeplitz(column, r)
    if w is None:
        # Single ridge fallback: 1e-6 * trace(C)/N on the diagonal, then give up.
        column[0] = 2.0 * r[0] + 1e-6 * r[0]
        w = _try_toeplitz(column, r)
    return w, column


def _try_toeplitz(column: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    # Imported here: no workload reaches this fallback, and scipy.linalg would
    # otherwise dominate the package's import time.
    import scipy.linalg

    try:
        w = scipy.linalg.solve_toeplitz((column, column), rhs)
    except np.linalg.LinAlgError:
        return None
    return w if np.all(np.isfinite(w)) else None


def _pcg_toeplitz(columns: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve T x = b for every row by preconditioned conjugate gradients.

    T is the symmetric positive-definite Toeplitz matrix of that row's column.
    Products with T come from its 2N circulant embedding, and the
    preconditioner is T. Chan's optimal circulant (SIAM J. Sci. Stat. Comput.
    1988), c_k = ((N - k) t_k + k t_(N-k)) / N, applied by an N-point FFT; for
    a positive-definite T it is positive definite too.  A row stops once its
    recursive residual falls to ``MMSE_PCG_TOL`` of ||b||.  Returns the
    solutions and which rows converged within ``MMSE_PCG_MAX_ITER`` iterations.
    """
    count, n = columns.shape
    embedding = np.fft.rfft(_circulant_embedding(columns), axis=1)
    k = np.arange(n)
    chan = columns * (n - k)
    chan[:, 1:] += k[1:] * columns[:, :0:-1]
    chan = np.fft.rfft(chan / n, axis=1).real.copy()
    solutions = np.zeros_like(rhs)
    converged = np.zeros(count, dtype=bool)
    stop = (MMSE_PCG_TOL * np.linalg.norm(rhs, axis=1)) ** 2
    # Rows still iterating.  Their state is compressed to them when one stops;
    # the buffers (padded, spectrum, z) are used through their first len(active) rows.
    active = np.arange(count)
    padded = np.zeros((count, 2 * n))
    spectrum = np.empty((count, n + 1), dtype=complex)
    z = np.empty_like(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    _apply_circulant_inverse(r, chan, spectrum[:, :n // 2 + 1], z)
    p = z.copy()
    rz = np.einsum("ij,ij->i", r, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MMSE_PCG_MAX_ITER):
            rows = active.size
            padded[:rows, :n] = p
            padded[:rows, n:] = 0.0
            np.fft.rfft(padded[:rows], axis=1, out=spectrum[:rows])
            spectrum[:rows] *= embedding
            # T p is the leading half of the circulant product, written over the padding.
            tp = np.fft.irfft(spectrum[:rows], 2 * n, axis=1, out=padded[:rows])[:, :n]
            alpha = (rz / np.einsum("ij,ij->i", p, tp))[:, None]
            # z is free until the preconditioner step below; it holds the updates.
            x += np.multiply(alpha, p, out=z[:rows])
            r -= np.multiply(alpha, tp, out=z[:rows])
            done = np.einsum("ij,ij->i", r, r) <= stop
            if done.any():
                solutions[active[done]] = x[done]
                converged[active[done]] = True
                keep = ~done
                if not keep.any():
                    break
                active, x, r, p, rz, stop = (active[keep], x[keep], r[keep], p[keep],
                                             rz[keep], stop[keep])
                embedding, chan = embedding[keep], chan[keep]
                rows = active.size
            _apply_circulant_inverse(r, chan, spectrum[:rows, :n // 2 + 1], z[:rows])
            rz_next = np.einsum("ij,ij->i", r, z[:rows])
            p *= (rz_next / rz)[:, None]
            p += z[:rows]
            rz = rz_next
        else:
            solutions[active] = x
    return solutions, converged


def _apply_circulant_inverse(rows: np.ndarray, eigenvalues: np.ndarray, spectra: np.ndarray,
                             out: np.ndarray) -> None:
    """Each row times the inverse of the symmetric circulant with those real
    eigenvalues, into out; spectra is a buffer for the rows' rfft."""
    np.fft.rfft(rows, axis=1, out=spectra)
    spectra /= eigenvalues
    np.fft.irfft(spectra, rows.shape[1], axis=1, out=out)


def _circulant_embedding(columns: np.ndarray) -> np.ndarray:
    """First column of the 2N circulant whose leading N x N block is each row's Toeplitz matrix."""
    return np.concatenate([columns, np.zeros((columns.shape[0], 1)), columns[:, :0:-1]], axis=1)


def _toeplitz_residuals(columns: np.ndarray, solutions: np.ndarray,
                        rhs: np.ndarray) -> np.ndarray:
    """||T x - b|| / ||b|| per row, T the symmetric Toeplitz matrix of that row's column.

    T x is read off the circulant of size 2N that embeds T, one FFT product
    for all rows.
    """
    n = columns.shape[1]
    product = np.fft.irfft(np.fft.rfft(_circulant_embedding(columns), axis=1)
                           * np.fft.rfft(solutions, 2 * n, axis=1), 2 * n, axis=1)[:, :n]
    return np.linalg.norm(product - rhs, axis=1) / np.linalg.norm(rhs, axis=1)


def snr_from_powers(sigma_x_sq: float, sigma_w_sq: float) -> tuple[float, float]:
    """Excess-power SNR (linear, dB) of one received and one noise power: the
    one-element case of :func:`snr_db_from_powers`."""
    linear, db = _excess_snr(sigma_x_sq, sigma_w_sq)
    return float(linear), float(db)


def snr_db_from_powers(sigma_x_sq: np.ndarray, sigma_w_sq: np.ndarray) -> np.ndarray:
    """Excess-power SNR in dB of aligned arrays, element by element; -inf where
    no excess power remains."""
    return _excess_snr(sigma_x_sq, sigma_w_sq)[1]


def _excess_snr(sigma_x_sq, sigma_w_sq) -> tuple[np.ndarray, np.ndarray]:
    """(linear, dB) excess-power SNR (x - w) / w of aligned arrays, checked."""
    sigma_x_sq = np.asarray(sigma_x_sq, dtype=np.float64)
    sigma_w_sq = np.asarray(sigma_w_sq, dtype=np.float64)
    if np.any(sigma_w_sq <= 0):
        raise ZeroPowerError("noise power must be positive")
    if np.any(sigma_x_sq < 0):
        raise ValueError("received power must be non-negative")
    linear = (sigma_x_sq - sigma_w_sq) / sigma_w_sq
    excess = linear > 0
    return linear, np.where(excess, 10.0 * np.log10(np.where(excess, linear, 1.0)), -np.inf)
