"""Noise-power estimators: ML, MVU, AIC, covariance-based (CBE) and MMSE.

All estimators work in the |X|^2/N power convention, so on a scenario scaled
to 1 mW they report values directly comparable to the reference power.  Every
method is scale-equivariant: multiplying the input power by a positive factor
multiplies the estimate by the same factor (for CBE up to the resolution of
its candidate grid).

Each estimator is one array engine over a stack of frames or windows
(``ml_fit_frames``, ``mvu_fit_rows``, ``aic_fit_rows``, ``cbe_fit_windows``,
``mmse_fit_windows``) returning the estimates, or a tuple of arrays with the
estimates first and, where an entry can fail, a trailing :class:`errors.Status` per
entry (AIC never fails), which the callers raise; MMSE stops at the end of the failing
chunk, CBE at the failing window.  The one-block ``*_estimate`` wrappers are
the engines' one-entry case: each raises its entry's status and returns the
estimate as a float; its diagnostics are the other arrays of the engine it calls.
MMSE always works blind, and CBE takes its signal count S from its caller.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np

from .errors import Status, ZeroPowerError, raise_first_status
from .separation import SeparationMask
from .spectral import PowerSpectrum, ResourceBlock

log = logging.getLogger(__name__)

POWER_FLOOR = 1e-30  # guards logarithms against zero bins
MMSE_CHUNK = 64  # windows per batched MMSE pass
AIC_CHUNK = 64  # averaged periodograms per batched AIC fit
CBE_GRID_SIZE = 100  # candidate noise powers of one CBE fit
CBE_FIT_CELLS = 2**17  # candidate-by-eigenvalue cells of one batched CBE fit (1 MB of float64)
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


def ml_estimate(power: PowerSpectrum, mask: SeparationMask) -> float:
    """Mean noise-bin power of one frame: the one-frame case of :func:`mvu_estimate`."""
    return _noise_mean_estimate("ml", [power], [mask])


def ml_fit_frames(noise_sums: np.ndarray, noise_counts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """ML estimate of each frame, a one-frame MVU window, from its noise-bin power sum and
    count, and each frame's status: NO_NOISE_FRAME without noise bins, else NOT_POSITIVE
    for an estimate that is not finite and positive.
    """
    sums = np.asarray(noise_sums, dtype=np.float64)
    counts = np.asarray(noise_counts, dtype=np.int64)
    if sums.ndim != 1 or sums.shape != counts.shape or not sums.size:
        raise ValueError("noise sums and counts must be non-empty and aligned")
    return _noise_means("ml", sums[:, None], counts[:, None])


def mvu_estimate(powers: list[PowerSpectrum], masks: list[SeparationMask]) -> float:
    """Mean over all noise-classified bins across all frames of a block.

    Equivalent to the noise-bin-count-weighted mean of the per-frame ML
    estimates; with one frame it reduces to :func:`ml_estimate`.  The
    per-frame noise sums are folded by :func:`mvu_fit_rows` as one window.
    """
    return _noise_mean_estimate("mvu", powers, masks)


def _noise_mean_estimate(method: str, powers: list[PowerSpectrum],
                         masks: list[SeparationMask]) -> float:
    if len(powers) != len(masks) or not powers:
        raise ValueError("powers and masks must be non-empty and aligned")
    if any(mk.n_bins != ps.n_bins for ps, mk in zip(powers, masks)):
        raise ValueError("mask length does not match the spectrum")
    noise = [ps.power[mk.noise_bins] for ps, mk in zip(powers, masks)]
    counts = np.array([[x.size for x in noise]], dtype=np.int64)
    values, status = _noise_means(method, np.array([[x.sum() for x in noise]]), counts)
    raise_first_status(status, method=method, value=values)
    return float(values[0])


def mvu_fit_rows(noise_sums: np.ndarray, noise_counts: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """MVU estimate of each row of (W, F) per-frame noise-bin power sums and counts.

    Each row's sums are folded left to right (one running sum along the
    row), the same fold as a loop over its frames, so equal per-frame sums
    give the same estimate bit for bit whichever way they were computed.
    Each row's status is NO_NOISE_WINDOW without noise bins, else
    NOT_POSITIVE for an estimate that is not finite and positive.
    """
    return _noise_means("mvu", noise_sums, noise_counts)


def _noise_means(method: str, noise_sums: np.ndarray, noise_counts: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's noise mean, the left-to-right fold of its sums over its total count,
    and its status."""
    totals = np.cumsum(noise_sums, axis=1)[:, -1]
    counts = np.sum(noise_counts, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = totals / counts
    empty = Status.NO_NOISE_WINDOW if method == "mvu" else Status.NO_NOISE_FRAME
    return values, np.select([counts == 0, ~(np.isfinite(values) & (values > 0))],
                             [empty, Status.NOT_POSITIVE]).astype(np.int8)


def aic_estimate(avg_periodogram: PowerSpectrum, n_frames: int) -> float:
    """Model-order-selected noise power from the sorted averaged periodogram.

    The descending-sorted bin powers stand in for eigenvalues.  For each model
    order n the tail's arithmetic/geometric mean ratio alpha(n) scores
    AIC(n) = (N - n) * M * ln(alpha(n)) + n * (2N - n); the estimate is the
    mean of the bins below the minimizing order.  M is the total sample count
    behind the averaged periodogram (frames times bins): with the frame count
    alone the n*(2N - n) penalty dominates whenever frames < bins and the
    selected order degenerates to zero for any signal strength.  Zero bins are
    floored at a tiny epsilon so the geometric mean stays defined.

    This is the one-row case of :func:`aic_fit_rows`, which also returns the
    selected order and the AIC minimum.
    """
    return float(aic_fit_rows(avg_periodogram.power[None, :], n_frames)[0][0])


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
        p = np.where(p > 0, p, POWER_FLOOR)
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
    ev, status, tolerance = _descending_eigenvalues(sample_covariance(block))
    raise_first_status(np.array([status]), value=ev[-1:], tolerance=tolerance)
    return ev


def _check_window_shape(m: int, n: int) -> None:
    if m < 2:
        raise ValueError("need at least 2 frames")
    if n < m:
        raise ValueError("need n_bins >= n_frames for an aspect ratio below 1")


def _descending_eigenvalues(cov: np.ndarray) -> tuple[np.ndarray, Status, float]:
    """Eigenvalues of a Hermitian covariance (a diagonal block of
    :func:`sample_covariance`), largest first, their status and round-off tolerance.

    A negative eigenvalue within 1e-10 of the largest (or of 1) is round-off
    and is clipped to zero; one further below is NEGATIVE_EIGENVALUE, unclipped.
    """
    try:
        ev = np.linalg.eigvalsh(cov)[::-1].copy()
    except np.linalg.LinAlgError:
        return np.full(len(cov), np.nan), Status.EIGENSOLVER_FAILED, np.nan
    tol = 1e-10 * max(ev[0], 1.0)
    if ev[-1] < -tol:
        return ev, Status.NEGATIVE_EIGENVALUE, tol
    return np.clip(ev, 0.0, None, out=ev), Status.OK, tol


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
    on a singularity-removing substitution grid, refined by doubling until the
    total mass is within 1e-9 of unity or the grid reaches 131073 nodes, and
    cached per aspect ratio.  The cap leaves the error above 1e-9 for c above
    about 0.9999 (7e-8 at 0.99995), which a CBE window reaches only with more
    than 10,000 bins; :func:`mp_cdf_normalization_error` reports it.
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
                 grid_size: int = CBE_GRID_SIZE) -> float:
    """Covariance-based estimate of one block with S = round(M * occupied_fraction)
    signal eigenvalues; the one-window case of :func:`cbe_fit_windows`, which also
    returns the candidate grid and its misfits."""
    if not 0.0 <= occupied_fraction < 1.0:
        raise ValueError("occupied_fraction must lie in [0, 1)")
    m = block.n_frames
    s = int(round(m * occupied_fraction))
    values, grids, _, status = cbe_fit_windows(sample_covariance(block), block.n_bins, m,
                                               np.array([s]), grid_size)
    raise_first_status(status, method="cbe", value=values, tolerance=grids[:, 0],
                       signal_count=s, frames=m)
    return float(values[0])


def cbe_fit_windows(gram: np.ndarray, n_bins: int, window: int, signal_counts: np.ndarray,
                    grid_size: int = CBE_GRID_SIZE
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best Marchenko-Pastur fit to the covariance spectrum of every trailing window.

    Window j's covariance is the diagonal block j..j+window-1 of gram, the
    frame Gram matrix of :func:`sample_covariance`.  Its top signal_counts[j]
    = S eigenvalues are attributed to the signal; the rest are compared,
    through their empirical CDF at the eigenvalues themselves, against the MP
    law with ratio (window - S)/N for grid_size candidate powers: one
    ``np.linspace`` per window, from the smallest eigenvalue over the
    finite-size lower edge to the (S+1)-th largest over the asymptotic edge
    (equal candidates when that range collapses).  The smallest
    root-sum-square misfit wins.

    Returns the estimates, the (W, grid_size) grids and misfits and each
    window's status.  Windows are solved one at a time, so no stack of
    covariances is built, and each is checked as it is solved, so none past
    a failing one is: S leaving no noise eigenvalue, the eigensolve, a square
    window, a zero smallest eigenvalue.  The failing window's value and grid
    are its smallest eigenvalue and round-off tolerance, other unfitted ones NaN.
    The spectra go into one (W, window) array, and the windows of each S are
    fitted together, ``CBE_FIT_CELLS`` candidate-by-eigenvalue cells at a
    time: one :func:`mp_cdf` call on the (chunk, grid_size, window - S)
    ratios, one einsum and one argmin.  Each misfit sums its own contiguous
    row, as one window's fit does, so every output has that fit's bits.  On
    the reference scenario (S = 25) a chunk is 17 windows and each of its
    temporaries 0.97 MB; the call's traced peak is 4.4 MiB, against 0.6 MiB
    when each window was fitted as it was solved.  An estimate that is not
    finite and positive is found after the fit and does not stop the solves,
    but it precedes any failed solve, as in a loop over the windows.
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
    # Each window is solved and checked in turn, up to the first that fails.
    lams = np.full((counts.size, m), np.nan)
    status = np.full(counts.size, Status.UNEVALUATED, dtype=np.int8)
    for j, s in enumerate(counts.tolist()):
        tolerance = np.nan
        if s >= m:
            status[j] = Status.NO_NOISE_EIGENVALUES
        else:
            lams[j], status[j], tolerance = _descending_eigenvalues(gram[j:j + m, j:j + m])
            if status[j] == Status.OK and edge == 0.0:
                status[j] = Status.SQUARE_WINDOW
            elif status[j] == Status.OK and lams[j, -1] / lower_edge <= 0:
                status[j] = Status.ZERO_EIGENVALUE
        if status[j] != Status.OK:
            break
    solved = np.count_nonzero(status == Status.OK)  # the windows before the first failing one
    fitted = counts[:solved]
    sigma_min = lams[:solved, -1] / lower_edge
    upper = lams[np.arange(solved), fitted] / edge
    grids = np.full((counts.size, grid_size), np.nan)
    for j, (lo, hi) in enumerate(zip(sigma_min.tolist(), upper.tolist())):
        grids[j] = np.linspace(lo, max(lo, hi), grid_size)
    distances = np.full(grids.shape, np.nan)
    for s in set(fitted.tolist()):
        rows = np.flatnonzero(fitted == s)
        ecdf = np.arange(1, m - s + 1) / (m - s)
        chunk = max(1, CBE_FIT_CELLS // (grid_size * (m - s)))
        for lo in range(0, rows.size, chunk):
            part = rows[lo:lo + chunk]
            noise = lams[part, s:][:, None, ::-1]  # ascending
            # One row per candidate power: the noise eigenvalues in that candidate's units.
            diff = ecdf - mp_cdf(noise / grids[part, :, None], (m - s) / n_bins, 1.0)
            distances[part] = np.sqrt(np.einsum("cgk,cgk->cg", diff, diff))
    values = np.full(counts.size, np.nan)
    values[:solved] = grids[np.arange(solved), np.argmin(distances[:solved], axis=1)]
    if solved < counts.size:
        values[solved], grids[solved] = lams[solved, -1], tolerance
    unusable = ~(np.isfinite(values[:solved]) & (values[:solved] > 0))
    status[:solved][unusable] = Status.NOT_POSITIVE
    return values, grids, distances, status


def mmse_estimate(block: ResourceBlock) -> float:
    """Per-subcarrier MMSE-filter estimate from the block's last frame.

    The estimate is blind: each subcarrier's time mean over the first M-1
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
    -0.17 dB structural bias on white noise).

    This is the one-window case of :func:`mmse_fit_windows`, which also
    returns the raw weight sum, the largest weight and the system residual.
    C is a biased autocorrelation matrix and so positive semi-definite;
    C + r(0) I is positive definite, conjugate gradients apply, Levinson meets
    no singular leading minor, and the ridge fallback can only be reached
    through round-off or overflow.
    """
    values, *_, status = mmse_fit_windows(block.spectral, block.n_frames)
    raise_first_status(status, method="mmse", value=values)
    return float(values[0])


def mmse_fit_windows(spectral: np.ndarray, window: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mmse_estimate` of every trailing window of ``window`` rows of an (M, N) matrix.

    Entry j covers rows j..j+window-1 and reports at row j+window-1.
    Returns each window's estimate, raw weight sum, largest normalised weight
    magnitude, relative system residual and status.  Every window is fitted
    blind, about its reference rows' mean.  Windows are evaluated
    ``MMSE_CHUNK`` at a time: the chunk's rows are scaled once, each window's
    blind mean and variances come from running sums over those rows (shifted
    by the chunk's mean, so the variance subtraction does not cancel), all
    lag vectors from one FFT pair of length 2N and all system residuals from
    one FFT circulant product.  The chunk's weight systems are solved
    together by preconditioned conjugate gradients, as batched FFTs; a
    window that does not converge to a true residual of ``MMSE_PCG_RESIDUAL``
    gets its own Levinson solve.  No chunk past the first failing window's is
    evaluated: its windows are UNEVALUATED, with NaN values.
    """
    total, n = spectral.shape
    if window < 3:
        raise ValueError("need at least 3 frames")
    if window > total:
        raise ValueError(f"a {window}-frame window does not fit in {total} frames")
    count = total - window + 1
    columns = [np.full(count, np.nan) for _ in range(4)]
    columns.append(np.full(count, Status.UNEVALUATED, dtype=np.int8))
    for first in range(0, count, MMSE_CHUNK):
        rows = spectral[first:min(first + MMSE_CHUNK, count) + window - 1]
        chunk = _mmse_chunk(*_mmse_moments(rows / np.sqrt(n), window))
        for column, part in zip(columns, chunk):
            column[first:first + len(part)] = part
        if chunk[-1].any():
            break
    return tuple(columns)


def _mmse_chunk(variance: np.ndarray, last_power: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MMSE fits of consecutive windows from their variances and last-row powers.

    Row j of both arrays belongs to window j of the chunk; the five results
    are those of :func:`mmse_fit_windows`.  Each window's variances are scaled
    exactly, by a power of two, to a maximum in [0.5, 1); the weights do not
    depend on it.  All windows without an all-zero residual block are solved
    together by :func:`_pcg_toeplitz`; one that does not converge, is not finite
    or leaves a true residual above ``MMSE_PCG_RESIDUAL`` is solved again by
    Levinson recursion (:func:`_solve_mmse_weights`).  Then each window gets
    the status of the first of its checks that fails.
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
        raw_weights[live], converged[live], embedding = _pcg_toeplitz(columns[live], lags[live])
        residuals[live] = _toeplitz_residuals(embedding, raw_weights[live], lags[live])
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
    status = np.select(
        [zero, singular, weight_sums == 0.0, values <= 0, ~np.isfinite(values)],
        [Status.ZERO_RESIDUAL_BLOCK, Status.SINGULAR_WEIGHTS, Status.ZERO_WEIGHT_SUM,
         Status.NEGATIVE_ESTIMATE, Status.NOT_POSITIVE]).astype(np.int8)
    residuals[levinson] = _toeplitz_residuals(_embedding_spectra(columns[levinson]),
                                              raw_weights[levinson], lags[levinson])
    return values, weight_sums, weight_maxes, residuals, status


def _mmse_moments(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-window blind subcarrier variances over the first m-1 rows, and the
    last row's powers about the same means.

    Row j of each result belongs to the window of rows j..j+m-1 of x.  A
    window whose variance in some bin falls below ``_MMSE_SUM_GUARD`` of the
    running sum it was taken from (identical or near-identical reference
    rows) is recomputed from its own rows, exactly as a lone window would be.
    """
    count, ref = x.shape[0] - m + 1, m - 1
    y = x - x.mean(axis=0)
    power_sums = np.cumsum(y.real**2 + y.imag**2, axis=0)
    mean = _window_sums(np.cumsum(y, axis=0), ref, count) / ref
    variance = _window_sums(power_sums, ref, count) / ref - (mean.real**2 + mean.imag**2)
    last = y[ref:] - mean
    last_power = last.real**2 + last.imag**2
    running = power_sums[ref - 1:ref - 1 + count] / ref
    for j in np.flatnonzero((variance < _MMSE_SUM_GUARD * running).any(axis=1)):
        rows = x[j:j + m] - x[j:j + ref].mean(axis=0)
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


def _pcg_toeplitz(columns: np.ndarray, rhs: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve T x = b for every row by preconditioned conjugate gradients.

    T is the symmetric positive-definite Toeplitz matrix of that row's column.
    Products with T come from its 2N circulant embedding, and the
    preconditioner is T. Chan's optimal circulant (SIAM J. Sci. Stat. Comput.
    1988), c_k = ((N - k) t_k + k t_(N-k)) / N, applied by an N-point FFT; for
    a positive-definite T it is positive definite too.  A row stops once its
    recursive residual falls to ``MMSE_PCG_TOL`` of ||b||.  Returns the solutions,
    which converged within ``MMSE_PCG_MAX_ITER`` iterations and the embeddings' spectra.

    The preconditioner multiplies each spectrum's real and imaginary parts by
    the reciprocals of Chan's eigenvalues (:func:`_apply_circulant_inverse`).
    That is the arithmetic numpy's complex division by c + 0j performs, which
    computes (re + im * 0) * (1 / c) and (im - re * 0) * (1 / c); the two can
    differ only in the sign of a zero part, so the iterates, solutions and
    stopping iterations are those of a division, bit for bit.
    """
    count, n = columns.shape
    embedded = embedding = _embedding_spectra(columns)  # embedding keeps the active rows
    inverse = _chan_reciprocals(columns)
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
    _apply_circulant_inverse(r, inverse, spectrum[:, :n // 2 + 1], z)
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
                embedding, inverse = embedding[keep], inverse[keep]
                rows = active.size
            _apply_circulant_inverse(r, inverse, spectrum[:rows, :n // 2 + 1], z[:rows])
            rz_next = np.einsum("ij,ij->i", r, z[:rows])
            p *= (rz_next / rz)[:, None]
            p += z[:rows]
            rz = rz_next
        else:
            solutions[active] = x
    return solutions, converged, embedded


def _chan_reciprocals(columns: np.ndarray) -> np.ndarray:
    """1 / c for each eigenvalue c of each row's Chan circulant: (count, N // 2 + 1)."""
    n = columns.shape[1]
    k = np.arange(n)
    chan = columns * (n - k)
    chan[:, 1:] += k[1:] * columns[:, :0:-1]
    return 1.0 / np.fft.rfft(chan / n, axis=1).real


def _apply_circulant_inverse(rows: np.ndarray, inverse: np.ndarray, spectra: np.ndarray,
                             out: np.ndarray) -> None:
    """Each row times the inverse of a symmetric circulant, into out.

    ``inverse`` holds the reciprocals of the circulant's real eigenvalues;
    spectra is a buffer for the rows' rfft, whose real and imaginary parts
    are scaled in place.
    """
    np.fft.rfft(rows, axis=1, out=spectra)
    spectra.real *= inverse
    spectra.imag *= inverse
    np.fft.irfft(spectra, rows.shape[1], axis=1, out=out)


def _embedding_spectra(columns: np.ndarray) -> np.ndarray:
    """Spectrum of the 2N circulant whose leading N x N block is each row's Toeplitz matrix."""
    zero = np.zeros((columns.shape[0], 1))
    return np.fft.rfft(np.concatenate([columns, zero, columns[:, :0:-1]], axis=1), axis=1)


def _toeplitz_residuals(embedding: np.ndarray, solutions: np.ndarray,
                        rhs: np.ndarray) -> np.ndarray:
    """||T x - b|| / ||b|| per row, T the Toeplitz matrix of that row's :func:`_embedding_spectra`.

    T x is read off the circulant of size 2N that embeds T, one FFT product
    for all rows.
    """
    n = solutions.shape[1]
    product = np.fft.irfft(embedding * np.fft.rfft(solutions, 2 * n, axis=1),
                           2 * n, axis=1)[:, :n]
    return np.linalg.norm(product - rhs, axis=1) / np.linalg.norm(rhs, axis=1)


def snr_db_from_powers(sigma_x_sq: np.ndarray, sigma_w_sq: np.ndarray) -> np.ndarray:
    """Excess-power SNR (x - w) / w in dB of aligned arrays, element by element,
    checked; -inf where no excess power remains."""
    sigma_x_sq = np.asarray(sigma_x_sq, dtype=np.float64)
    sigma_w_sq = np.asarray(sigma_w_sq, dtype=np.float64)
    if np.any(sigma_w_sq <= 0):
        raise ZeroPowerError("noise power must be positive")
    if np.any(sigma_x_sq < 0):
        raise ValueError("received power must be non-negative")
    linear = (sigma_x_sq - sigma_w_sq) / sigma_w_sq
    excess = linear > 0
    return np.where(excess, 10.0 * np.log10(np.where(excess, linear, 1.0)), -np.inf)
