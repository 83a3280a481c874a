from __future__ import annotations

import logging
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from noisebench import (
    NoiseSource,
    PowerSpectrum,
    ResourceBlock,
    ScenarioConfig,
    SeparationMask,
    SubbandSignal,
    SurrogateNoiseParams,
    ZeroPowerError,
    aic_estimate,
    aic_fit_rows,
    build_scenario,
    cbe_estimate,
    cbe_fit_windows,
    covariance_eigenvalues,
    ideal_separate,
    ml_estimate,
    ml_fit_frames,
    mmse_estimate,
    mmse_fit_windows,
    mp_cdf,
    mvu_estimate,
    mvu_fit_rows,
    power_matrix,
    snr_db_from_powers,
)
from noisebench import estimators
from noisebench.bench import MethodSpec, count_ops
from noisebench.errors import DegenerateSpectrumError, EmptyNoiseGroupError
from noisebench.scenario import scenario_config_from_dict, scenario_config_from_file, with_seed

from conftest import (
    cbe_fit_naive, cbe_raised, counting_power, mmse_fit_per_window, raised, reference_config,
    white_frame,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ism_benchmark.json"


def spectrum(values, index=0) -> PowerSpectrum:
    return PowerSpectrum(power=np.asarray(values, dtype=float), frame_index=index)


def mask_of(is_signal) -> SeparationMask:
    return SeparationMask(is_signal=np.asarray(is_signal, dtype=bool), method="ideal")


def mvu_windows(sums, counts, window: int) -> np.ndarray:
    """MVU of every trailing window of per-frame noise sums and counts, built as the
    harness builds ideal and Fisher windows: sliding views folded by mvu_fit_rows."""
    view = np.lib.stride_tricks.sliding_window_view
    return raised(mvu_fit_rows(view(np.asarray(sums, dtype=np.float64), window),
                               view(np.asarray(counts, dtype=np.int64), window)), "mvu")


def aic_order(p: PowerSpectrum, n_frames: int) -> int:
    """The order n_min of the one-row fit that aic_estimate makes."""
    return aic_fit_rows(p.power[None, :], n_frames)[1][0]


def aic_curve_naive(lam: np.ndarray, m: int) -> np.ndarray:
    """AIC(n) for every order n from its own tail's arithmetic and geometric means."""
    n = lam.size
    aic = np.empty(n)
    for order in range(n):
        tail = lam[order:]
        t = tail.size
        alpha = (tail.sum() / t) / np.exp(np.log(tail).sum() / t)
        aic[order] = t * m * np.log(alpha) + order * (2 * n - order)
    return aic


def pcg_toeplitz_oracle(columns: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conjugate-gradient Toeplitz solver with its preconditioner as a
    complex division of a strided slice, and the padding zeroed every iteration."""
    count, n = columns.shape
    embedding = estimators._embedding_spectra(columns)
    k = np.arange(n)
    chan = columns * (n - k)
    chan[:, 1:] += k[1:] * columns[:, :0:-1]
    chan = np.fft.rfft(chan / n, axis=1).real.copy()
    solutions = np.zeros_like(rhs)
    converged = np.zeros(count, dtype=bool)
    stop = (estimators.MMSE_PCG_TOL * np.linalg.norm(rhs, axis=1)) ** 2
    active = np.arange(count)
    padded = np.zeros((count, 2 * n))
    spectrum = np.empty((count, n + 1), dtype=complex)
    z = np.empty_like(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    apply_circulant_inverse_oracle(r, chan, spectrum[:, :n // 2 + 1], z)
    p = z.copy()
    rz = np.einsum("ij,ij->i", r, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(estimators.MMSE_PCG_MAX_ITER):
            rows = active.size
            padded[:rows, :n] = p
            padded[:rows, n:] = 0.0
            np.fft.rfft(padded[:rows], axis=1, out=spectrum[:rows])
            spectrum[:rows] *= embedding
            tp = np.fft.irfft(spectrum[:rows], 2 * n, axis=1, out=padded[:rows])[:, :n]
            alpha = (rz / np.einsum("ij,ij->i", p, tp))[:, None]
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
            apply_circulant_inverse_oracle(r, chan, spectrum[:rows, :n // 2 + 1], z[:rows])
            rz_next = np.einsum("ij,ij->i", r, z[:rows])
            p *= (rz_next / rz)[:, None]
            p += z[:rows]
            rz = rz_next
        else:
            solutions[active] = x
    return solutions, converged


def apply_circulant_inverse_oracle(rows: np.ndarray, eigenvalues: np.ndarray,
                                   spectra: np.ndarray, out: np.ndarray) -> None:
    """Each row times the inverse circulant, dividing its spectrum by the real eigenvalues."""
    np.fft.rfft(rows, axis=1, out=spectra)
    spectra /= eigenvalues
    np.fft.irfft(spectra, rows.shape[1], axis=1, out=out)


def white_block(seed: int, n_frames: int = 100, n_bins: int = 512,
                power: float = 1.0) -> ResourceBlock:
    rng = np.random.default_rng(seed)
    return ResourceBlock(np.stack([
        white_frame(rng, n_bins, power) * np.sqrt(n_bins) for _ in range(n_frames)
    ]))


class TestMlEstimate:
    def test_all_noise_mean(self):
        est = ml_estimate(spectrum([1.0, 1.0, 1.0, 1.0]), mask_of([0, 0, 0, 0]))
        assert est == 1.0

    def test_masked_mean(self):
        est = ml_estimate(spectrum([2.0, 4.0, 100.0, 100.0]), mask_of([0, 0, 1, 1]))
        assert est == 3.0

    def test_white_noise_accuracy(self):
        rng = np.random.default_rng(31)
        values = []
        for _ in range(200):
            p = np.abs(white_frame(rng, 512)) ** 2
            values.append(ml_estimate(spectrum(p), mask_of(np.zeros(512))))
        tol = 3.0 / np.sqrt(512) / np.sqrt(200)
        assert abs(np.mean(values) - 1.0) < tol

    def test_all_noise_mask_equals_frame_mean(self):
        rng = np.random.default_rng(32)
        p = rng.exponential(1.0, 64)
        est = ml_estimate(spectrum(p), mask_of(np.zeros(64)))
        assert est == pytest.approx(p.mean(), rel=1e-15)

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ml_estimate(spectrum([1.0, 2.0]), mask_of([0, 0, 0]))


class TestMvuEstimate:
    def test_single_frame_reduces_to_ml(self):
        p = spectrum([1.0, 2.0, 3.0, 4.0])
        m = mask_of([0, 0, 1, 0])
        assert mvu_estimate([p], [m]) == ml_estimate(p, m)

    def test_balanced_mean_of_two_frames(self):
        ps = [spectrum([1.0, 1.0]), spectrum([3.0, 3.0], 1)]
        ms = [mask_of([0, 0]), mask_of([0, 0])]
        assert mvu_estimate(ps, ms) == 2.0

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_equals_weighted_mean_of_ml(self, seed):
        rng = np.random.default_rng(seed)
        m_frames = int(rng.integers(1, 6))
        n = int(rng.integers(4, 32))
        powers, masks, total, count = [], [], 0.0, 0
        for i in range(m_frames):
            p = rng.exponential(1.0, n)
            signal = rng.random(n) < 0.3
            if signal.all():
                signal[0] = False
            powers.append(spectrum(p, i))
            masks.append(mask_of(signal))
            total += p[~signal].sum()
            count += int((~signal).sum())
        got = mvu_estimate(powers, masks)
        assert got == pytest.approx(total / count, rel=1e-12)

    def test_fit_from_sums_matches_list_form(self):
        rng = np.random.default_rng(17)
        powers = [spectrum(rng.exponential(1.0, 16), i) for i in range(5)]
        masks = [mask_of(rng.random(16) < 0.3) for _ in range(5)]
        sums = [float(p.power[m.noise_bins].sum()) for p, m in zip(powers, masks)]
        counts = [int(m.noise_bins.sum()) for m in masks]
        got = mvu_windows(sums, counts, 5)
        assert got.tolist() == [mvu_estimate(powers, masks)]

    def test_fit_rejects_misaligned_or_empty(self):
        with pytest.raises(ValueError, match="aligned"):
            mvu_estimate([], [])
        with pytest.raises(EmptyNoiseGroupError):
            mvu_windows([0.0], [0], 1)

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_windows_match_left_fold(self, seed):
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(1, 40))
        window = int(rng.integers(1, frames + 1))
        sums = rng.exponential(1.0, frames) * 10.0 ** rng.uniform(-3, 3, frames)
        counts = rng.integers(1, 64, frames)
        got = mvu_windows(sums, counts, window)
        assert got.shape == (frames - window + 1,)
        for j, value in enumerate(got):
            total, count = 0.0, 0
            for frame_sum, frame_count in zip(sums[j:j + window], counts[j:j + window]):
                total += float(frame_sum)
                count += int(frame_count)
            assert value == total / count
            assert value == mvu_windows(sums[j:j + window], counts[j:j + window], window)[0]
            assert value == mvu_fit_rows(sums[None, j:j + window],
                                         counts[None, j:j + window])[0][0]

    def test_windows_guards_in_window_order(self):
        with pytest.raises(ZeroPowerError, match="mvu: .* got 0.0"):
            mvu_windows(np.array([1.0, 0.0, 0.0, 1.0]), np.array([2, 2, 2, 2]), 2)
        with pytest.raises(EmptyNoiseGroupError):
            mvu_windows(np.array([1.0, 0.0, 0.0, 0.0]), np.array([2, 0, 0, 2]), 2)

    def test_rows_guards_in_row_order(self):
        sums = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroPowerError, match="mvu: .* got 0.0"):
            raised(mvu_fit_rows(sums, np.array([[1, 1], [1, 1], [0, 0]])), "mvu")
        with pytest.raises(EmptyNoiseGroupError):
            raised(mvu_fit_rows(sums, np.array([[1, 1], [0, 0], [1, 1]])), "mvu")

    def test_stability_gain_over_ml(self):
        # Block averaging shrinks the spread by about sqrt(M) = 10.
        rng = np.random.default_rng(33)
        ml_vals, mvu_vals = [], []
        for _ in range(60):
            p = np.abs(rng.standard_normal((100, 512)) +
                       1j * rng.standard_normal((100, 512))) ** 2 / 2.0
            ml_vals.append(p[0].mean())
            mvu_vals.append(p.mean())
        ratio = np.std(ml_vals) / np.std(mvu_vals)
        assert 6.0 < ratio < 16.0


class TestAicEstimate:
    def test_equal_bins_select_order_zero(self):
        p = spectrum(np.full(16, 2.5))
        assert aic_order(p, 10) == 0
        assert aic_estimate(p, n_frames=10) == pytest.approx(2.5)

    def test_single_spike_selects_order_one(self):
        lam = np.ones(16)
        lam[0] = 100.0
        assert aic_order(spectrum(lam), 10) == 1
        assert aic_estimate(spectrum(lam), n_frames=10) == pytest.approx(1.0)

    def aic_oracle(self, p: np.ndarray, n_frames: int) -> int:
        # Direct per-order evaluation of the selection rule.
        lam = np.sort(np.maximum(p, 1e-30))[::-1]
        n = lam.size
        m = n_frames * n
        best, best_val = 0, np.inf
        for order in range(n):
            tail = lam[order:]
            alpha = (tail.mean()) / np.exp(np.mean(np.log(tail)))
            val = tail.size * m * np.log(alpha) + order * (2 * n - order)
            if val < best_val:
                best, best_val = order, val
        return best

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_n_min_matches_direct_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 64))
        p = rng.exponential(1.0, n)
        if rng.random() < 0.5:
            p[:int(rng.integers(1, n // 2))] += rng.uniform(3, 30)
        assert aic_order(spectrum(p), 10) == self.aic_oracle(p, 10)

    @given(st.integers(0, 200), st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_n_min_scale_invariant(self, seed, gamma):
        rng = np.random.default_rng(seed)
        p = rng.exponential(1.0, 32)
        p[:5] += 10.0
        a = aic_estimate(spectrum(p), n_frames=8)
        b = aic_estimate(spectrum(p * gamma), n_frames=8)
        assert aic_order(spectrum(p), 8) == aic_order(spectrum(p * gamma), 8)
        assert b == pytest.approx(gamma * a, rel=1e-9)

    def test_reference_scenario_order(self):
        # 128 occupied bins; the selected order overshoots by the method's
        # usual margin (measured 139..165 over seeds).
        orders = []
        for seed in range(10):
            block, _ = build_scenario(reference_config(seed=seed))
            avg = spectrum(power_matrix(block).mean(axis=0), 99)
            orders.append(aic_order(avg, 100))
        assert 120 <= np.mean(orders) <= 175

    @pytest.mark.parametrize("n", [16, 17, 31, 64, 100, 257, 512])
    def test_counting_block_order_matches_direct_curve(self, n):
        # count_ops books the per-order evaluation but reads the order off the
        # cumulative curve; on the counting block's last frame both must pick
        # the same order.
        p = counting_power(n).power
        lam = np.sort(np.maximum(p, 1e-30))[::-1]
        assert aic_order(spectrum(p), n) == int(np.argmin(aic_curve_naive(lam, n * n)))

    def test_counted_curve_books_per_order_evaluation(self):
        # AIC's count less the frame's FFT, power spectrum and periodogram
        # update is the per-order evaluation's.
        n = 40
        n_min = aic_order(counting_power(n), n)
        counts = count_ops(MethodSpec("AIC"), n).counts
        fft = round(n * np.log2(n))
        tails = range(1, n + 1)
        assert counts.adds - fft - 2 * n == sum(2 * (t - 1) for t in tails) + (n - n_min)
        assert counts.muls - fft - 4 * n == sum(t + 4 for t in tails)
        assert counts.transcendental == sum(t + 2 for t in tails)
        assert counts.cmps == int(n * np.log2(n)) + (n - 1)

    def test_zero_bins_floored(self):
        p = np.ones(16)
        p[3] = 0.0
        est = aic_estimate(spectrum(p), n_frames=4)
        assert est > 0

    @pytest.mark.parametrize("n", [4, 64])
    def test_rows_match_one_row_estimates(self, n, caplog):
        rng = np.random.default_rng(n)
        rows = rng.exponential(1.0, (9, n))
        rows[2:5, :n // 4 + 1] += 20.0  # occupied bins
        rows[5] = 2.5  # constant
        rows[6, ::3] = 0.0  # some zero bins
        rows[7] = 0.0  # all zero
        with caplog.at_level(logging.WARNING, logger="noisebench.estimators"):
            values, orders, minima = aic_fit_rows(rows, 10)
        floored = [r.getMessage() for r in caplog.records]
        # One flooring warning per affected row, with that row's count.
        assert floored == [f"flooring {k} non-positive periodogram bins at 1e-30"
                           for k in (len(range(0, n, 3)), n)]
        for row, value, order, minimum in zip(rows, values, orders, minima):
            one = aic_fit_rows(spectrum(row).power[None, :], 10)  # aic_estimate's fit
            assert value == aic_estimate(spectrum(row), 10)
            assert order == one[1][0]
            assert minimum == one[2][0]
            # The tail mean of the descending-sorted row, as a lone window takes it.
            assert value == np.sort(np.maximum(row, 1e-30))[::-1][order:].mean()
        assert orders[5] == 0 and values[5] == 2.5

    @pytest.mark.parametrize("scale", [1e-40, 2.0**-330], ids=["1e-40", "2**-330"])
    def test_row_unchanged_by_zero_bin_neighbour(self, scale):
        # Only non-positive bins are floored: a neighbour's zero bin in the
        # same chunk must not lift this row's positive bins below the floor.
        rng = np.random.default_rng(11)
        row = rng.exponential(1.0, 64) * scale
        row[:8] += 20.0 * scale
        neighbour = rng.exponential(1.0, 64)
        neighbour[5] = 0.0
        alone = aic_fit_rows(row[None, :], 10)
        in_chunk = aic_fit_rows(np.stack([neighbour, row]), 10)
        for one, both in zip(alone, in_chunk):
            assert one[0].tobytes() == both[1].tobytes()
        assert alone[0][0] < 1e-30

    @pytest.mark.parametrize("avg, n_frames, message", [
        (np.ones((2, 8)), 0, "n_frames must be >= 1"),
        (np.ones(8), 10, "need a (W, N) stack of periodograms with N >= 1"),
        (np.ones((2, 0)), 10, "need a (W, N) stack of periodograms with N >= 1"),
    ], ids=["no-frames", "1-D", "no-bins"])
    def test_rows_reject_bad_input(self, avg, n_frames, message):
        with pytest.raises(ValueError) as exc:
            aic_fit_rows(avg, n_frames)
        assert str(exc.value) == message


class TestCovarianceEigenvalues:
    def test_rank_one_block(self):
        row = np.full(8, 2.0, dtype=complex)
        block = ResourceBlock(np.stack([row, row]))
        eig = covariance_eigenvalues(block)
        assert eig[1] == pytest.approx(0.0, abs=1e-12)
        # trace identity fixes the scale of the single non-zero eigenvalue
        x = block.spectral / np.sqrt(8)
        assert eig.sum() == pytest.approx(
            np.sum(np.abs(x) ** 2) / 8, rel=1e-9)

    def test_orthogonal_equal_norm_rows(self):
        bins_a = np.array([1, 1, 1, 1], dtype=complex)
        bins_b = np.array([1, -1, 1, -1], dtype=complex)
        block = ResourceBlock(np.stack([bins_a, bins_b]))
        ev = covariance_eigenvalues(block)
        assert ev[0] == pytest.approx(ev[1], rel=1e-12)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_trace_identity(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 8)), int(rng.integers(8, 24))
        block = white_block(seed, n_frames=m, n_bins=n)
        eig = covariance_eigenvalues(block)
        x = block.spectral / np.sqrt(n)
        assert eig.sum() == pytest.approx(
            np.sum(np.abs(x) ** 2) / n, rel=1e-9)

    def test_white_noise_spread_matches_mp_support(self):
        # Finite-size edges sit inside/outside by a few percent
        # (measured: E[min]/a = 1.054, E[max]/b = 0.968 at M=64, N=512).
        c = 64 / 512
        a = (1 - np.sqrt(c)) ** 2
        b = (1 + np.sqrt(c)) ** 2
        mins, maxs = [], []
        for seed in range(30):
            eig = covariance_eigenvalues(white_block(seed, n_frames=64))
            mins.append(eig[-1])
            maxs.append(eig[0])
        assert np.mean(mins) / a == pytest.approx(1.054, abs=0.02)
        assert np.mean(maxs) / b == pytest.approx(0.968, abs=0.02)

    def test_descending_and_clipped(self):
        ev = covariance_eigenvalues(white_block(3, n_frames=8, n_bins=32))
        assert ev.shape == (8,)
        assert (np.diff(ev) <= 0).all() and ev[-1] >= 0.0

    def test_shape_guards(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            covariance_eigenvalues(white_block(3, n_frames=1, n_bins=8))
        with pytest.raises(ValueError, match="aspect ratio"):
            covariance_eigenvalues(white_block(3, n_frames=9, n_bins=8))


class TestMpCdf:
    def test_support_edges(self):
        c, s = 0.25, 2.0
        a = s * (1 - np.sqrt(c)) ** 2
        b = s * (1 + np.sqrt(c)) ** 2
        assert mp_cdf(a, c, s) == 0.0
        assert mp_cdf(b, c, s) == 1.0
        assert mp_cdf(a - 1.0, c, s) == 0.0
        assert mp_cdf(b + 1.0, c, s) == 1.0

    def test_normalization(self):
        for c in (0.1, 0.125, 0.25, 0.5, 0.9):
            b = (1 + np.sqrt(c)) ** 2
            assert abs(mp_cdf(b, c, 1.0) - mp_cdf(0.0, c, 1.0) - 1.0) < 1e-6

    def test_against_trapezoid_oracle(self):
        # Independent fine-grid trapezoid integration of the raw density.
        c, s = 0.25, 1.0
        a = s * (1 - np.sqrt(c)) ** 2
        x = np.linspace(a + 1e-12, 1.0, 2_000_001)
        b = s * (1 + np.sqrt(c)) ** 2
        density = np.sqrt(np.maximum((b - x) * (x - a), 0.0)) / (2 * np.pi * c * s * x)
        oracle = np.trapezoid(density, x)
        assert mp_cdf(1.0, c, s) == pytest.approx(oracle, abs=1e-5)

    @given(st.floats(0.05, 0.95), st.floats(0.1, 10.0), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_monotone_non_decreasing(self, c, s, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(0, s * (1 + np.sqrt(c)) ** 2 * 1.2, 50))
        values = mp_cdf(xs, c, s)
        assert (np.diff(values) >= -1e-15).all()
        assert (values >= 0).all() and (values <= 1).all()

    def test_scale_parameter(self):
        assert mp_cdf(2.0, 0.25, 2.0) == pytest.approx(mp_cdf(1.0, 0.25, 1.0), rel=1e-12)

    def test_table_refined_near_unit_ratio(self):
        # The first 8193-node grid misses the 1e-9 mass tolerance at c = 0.999;
        # one doubling meets it.
        nodes, cdf, _ = estimators._unit_mp_table(0.999)
        assert nodes.size == cdf.size == 16385
        assert estimators.mp_cdf_normalization_error(0.999) <= 1e-9
        assert estimators._unit_mp_table(0.9)[0].size == 8193
        b = (1 + np.sqrt(0.999)) ** 2
        assert mp_cdf(0.0, 0.999, 1.0) == 0.0 and mp_cdf(b, 0.999, 1.0) == 1.0

    @pytest.mark.parametrize("c, sigma_sq, message", [
        (0.0, 1.0, "aspect ratio c must lie in (0, 1)"),
        (1.0, 1.0, "aspect ratio c must lie in (0, 1)"),
        (0.25, 0.0, "sigma_sq must be positive"),
        (0.25, -1.0, "sigma_sq must be positive"),
    ])
    def test_rejects_bad_parameters(self, c, sigma_sq, message):
        with pytest.raises(ValueError) as exc:
            mp_cdf(1.0, c, sigma_sq)
        assert str(exc.value) == message


class TestCbeEstimate:
    def test_pure_noise_recovery(self):
        values = [cbe_estimate(white_block(seed, n_frames=64), 0.0) for seed in range(25)]
        assert abs(np.mean(values) - 1.0) < 0.05

    def test_homogeneity_under_scaling(self):
        block = white_block(77, n_frames=32, n_bins=128)
        gamma = 3.5
        scaled = ResourceBlock(block.spectral * np.sqrt(gamma))
        base = cbe_estimate(block, 0.0, grid_size=50)
        up = cbe_estimate(scaled, 0.0, grid_size=50)
        assert up == pytest.approx(gamma * base, rel=1e-9)

    def test_reference_scenario_tendency(self):
        # Mild SNR overestimation with sub-dB RMSE (measured +0.04 dB, 0.23 dB).
        errors = []
        for seed in range(20):
            block, truth = build_scenario(reference_config(seed=seed))
            sigma_x = power_matrix(block).mean()
            est = cbe_estimate(block, 0.25)
            errors.append(float(snr_db_from_powers(sigma_x, est)))
        errors = np.array(errors)
        assert errors.mean() > -0.05
        assert np.sqrt((errors**2).mean()) < 1.0

    def test_signal_count_bounds(self):
        block = white_block(1, n_frames=8, n_bins=32)
        with pytest.raises(ValueError, match="noise group"):
            cbe_estimate(block, 0.99)
        with pytest.raises(EmptyNoiseGroupError):
            cbe_estimate(block, 0.99)
        for fraction in (1.0, -0.1):
            with pytest.raises(ValueError, match=r"occupied_fraction must lie in \[0, 1\)"):
                cbe_estimate(block, fraction)

    def test_diagnostics_carry_fit_curve(self):
        block = white_block(2, n_frames=16, n_bins=64)
        est = cbe_estimate(block, 0.0, grid_size=40)
        # The fit curve of the one-window fit cbe_estimate makes.
        _, grids, distances, _ = cbe_fit_windows(estimators.sample_covariance(block), 64, 16,
                                                 np.array([0]), 40)
        assert distances[0].shape == (40,)
        assert grids[0].shape == (40,)
        best = int(np.argmin(distances[0]))
        assert est == grids[0][best]


def _truth_counts(truth, frames, window: int) -> list[int]:
    """Per-window S the way the parent's bench took it: one frame's fraction at a time."""
    return [int(round(window * float(truth.signal_bin_mask[int(f)].mean()))) for f in frames]


def _assert_matches_naive(gram, n_bins, window, counts, grid_size=100):
    """Every value, grid entry and misfit is the bits of the per-window oracle's;
    returns the number of windows whose candidate range collapsed."""
    values, grids, distances, _ = cbe_fit_windows(gram, n_bins, window, np.array(counts),
                                                  grid_size)
    assert values.shape == (len(counts),)
    assert grids.shape == distances.shape == (len(counts), grid_size)
    collapsed = 0
    for j, s in enumerate(counts):
        want = cbe_fit_naive(gram[j:j + window, j:j + window], n_bins, s, grid_size)
        assert values[j] == want.value_mw
        # A collapsed range is grid_size equal candidates with equal misfits,
        # the oracle's single candidate repeated.
        repeat = grid_size if want.grid.size == 1 else 1
        assert grids[j].tobytes() == np.repeat(want.grid, repeat).tobytes()
        assert distances[j].tobytes() == np.repeat(want.distances, repeat).tobytes()
        assert values[j] == grids[j, np.argmin(distances[j])]
        collapsed += want.grid.size == 1
    return collapsed


class TestCbeFitWindows:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reference_seeds_match_naive(self, seed):
        cfg = with_seed(scenario_config_from_file(CONFIG), seed)
        block, truth = build_scenario(cfg)
        frames = np.arange(99, cfg.n_frames)
        _assert_matches_naive(estimators.sample_covariance(block), cfg.n_bins, 100,
                              _truth_counts(truth, frames, 100))

    def test_symmetrised_once_matches_per_window_form(self):
        # The Gram matrix is symmetrised once per seed; the engine used to
        # symmetrise each window's block of the raw product instead.
        cfg = scenario_config_from_file(CONFIG)
        block, truth = build_scenario(cfg)
        gram = estimators.sample_covariance(block)
        np.testing.assert_array_equal(gram, gram.conj().T)
        x = block.spectral / np.sqrt(cfg.n_bins)
        raw = (x @ x.conj().T) / cfg.n_bins
        assert not (raw == raw.conj().T).all()
        counts = np.array(_truth_counts(truth, np.arange(99, cfg.n_frames), 100))
        values, grids, distances, _ = cbe_fit_windows(gram, cfg.n_bins, 100, counts)
        for j, s in enumerate(counts):
            cov = raw[j:j + 100, j:j + 100]
            want = cbe_fit_windows(0.5 * (cov + cov.conj().T), cfg.n_bins, 100, counts[j:j + 1])
            assert values[j] == want[0][0]
            np.testing.assert_array_equal(grids[j], want[1][0])
            np.testing.assert_array_equal(distances[j], want[2][0])

    def test_signal_stopping_mid_run_matches_naive(self):
        # The transmitter stops at frame 170: S is 25 for the windows ending
        # before it and 0 after, and the fit follows the change window by window.
        data = {"name": "stop", "n_bins": 512, "n_frames": 250,
                "noise": {"kind": "white-gaussian", "seed": 5},
                "signals": [{"subband_index": 2, "occupancy_fraction": 1.0,
                             "target_snr_db": 0.0, "frame_end": 170}]}
        cfg = scenario_config_from_dict(data)
        block, truth = build_scenario(cfg)
        counts = _truth_counts(truth, np.arange(99, 250), 100)
        assert counts[0] == 25 and counts[-1] == 0 and len(set(counts)) == 2
        _assert_matches_naive(estimators.sample_covariance(block), 512, 100, counts)

    def test_collapsed_range_matches_naive(self, monkeypatch):
        # Half the asymptotic edge as the finite-size offset puts the lower end
        # of the range above the upper one whenever a single noise eigenvalue
        # is left, so those windows fit a collapsed range.
        monkeypatch.setattr(estimators, "_mp_edge_offset",
                            lambda m, n: -0.5 * (1.0 - np.sqrt(m / n)) ** 2)
        gram = estimators.sample_covariance(white_block(21, n_frames=40, n_bins=128))
        counts = [15 if j % 3 else 0 for j in range(25)]
        collapsed = _assert_matches_naive(gram, 128, 16, counts, grid_size=30)
        assert collapsed == counts.count(15)
        values, grids, _, _ = cbe_fit_windows(gram, 128, 16, np.array(counts), 30)
        assert (grids[1] == values[1]).all()

    @pytest.mark.parametrize("cells", [1, 4 * 30 * 16 + 7, None],
                             ids=["one-window", "four-window", "default"])
    def test_chunks_and_signal_groups_match_naive(self, monkeypatch, cells):
        # Interleaved signal counts, two S groups fitted apart: 25 windows in
        # chunks of one window, of four S = 0 windows (a partial last one),
        # or as many as the default cell budget holds.
        # With S = 14 two noise eigenvalues are left; an offset of -0.13
        # edges collapses the range of the windows whose two are within 15%
        # of each other, some of them only, so one chunk mixes collapsed and
        # spread grids.
        if cells is not None:
            monkeypatch.setattr(estimators, "CBE_FIT_CELLS", cells)
        monkeypatch.setattr(estimators, "_mp_edge_offset",
                            lambda m, n: -0.13 * (1.0 - np.sqrt(m / n)) ** 2)
        gram = estimators.sample_covariance(white_block(24, n_frames=40, n_bins=128))
        counts = [14 if j % 2 else 0 for j in range(25)]
        collapsed = _assert_matches_naive(gram, 128, 16, counts, grid_size=30)
        assert 0 < collapsed < counts.count(14)

    def test_one_window_estimate_matches_naive(self):
        # cbe_estimate is the engine's W = 1 case.
        block = white_block(25, n_frames=32, n_bins=128)
        got = cbe_estimate(block, 0.25, grid_size=40)
        _, grids, distances, _ = cbe_fit_windows(estimators.sample_covariance(block), 128, 32,
                                                 np.array([8]), 40)
        want = cbe_fit_naive(estimators.sample_covariance(block), 128, 8, 40)
        assert got == want.value_mw
        assert grids[0].tobytes() == want.grid.tobytes()
        assert distances[0].tobytes() == want.distances.tobytes()

    def test_aic_occupancy_matches_naive(self):
        from noisebench.bench import MethodSpec, run_scenario
        cfg = scenario_config_from_file(CONFIG)
        block, _ = build_scenario(cfg)
        power = power_matrix(block)
        gram = estimators.sample_covariance(block)
        series = run_scenario(cfg, [MethodSpec("CBE", params={"occupancy_from": "aic"})],
                              [cfg.noise.seed])[0]
        for f, value in zip(series.frame_index, series.noise_power_est_mw):
            avg = spectrum(power[f - 99:f + 1].mean(axis=0), f)
            s = int(round(100 * aic_order(avg, 100) / cfg.n_bins))
            assert value == cbe_fit_naive(gram[f - 99:f + 1, f - 99:f + 1], cfg.n_bins, s).value_mw

    def test_guards_in_window_order(self):
        # Frames 6..9 are silent, so window 6 (rows 6..9) has only zero
        # eigenvalues; windows 0..2 hold no silent frame.
        spectral = white_block(22, n_frames=12, n_bins=32).spectral.copy()
        spectral[6:10] = 0.0
        gram = estimators.sample_covariance(ResourceBlock(spectral))
        counts = np.zeros(9, dtype=np.int64)
        counts[7] = 4
        with pytest.raises(ZeroPowerError, match="smallest eigenvalue is zero"):
            cbe_raised(gram, 32, 4, counts)
        counts[2] = 4
        with pytest.raises(EmptyNoiseGroupError, match="S=4 .* no noise group"):
            cbe_raised(gram, 32, 4, counts)
        values = cbe_fit_windows(gram[:6, :6], 32, 4, np.zeros(3, dtype=np.int64))[0]
        assert (values > 0).all()

    @staticmethod
    def _count_solves(monkeypatch) -> list:
        solved = []
        original = estimators._descending_eigenvalues

        def counted(cov):
            solved.append(cov.shape)
            return original(cov)

        monkeypatch.setattr(estimators, "_descending_eigenvalues", counted)
        return solved

    @staticmethod
    def _diagonal_gram(values) -> np.ndarray:
        """A Gram matrix whose windows have the given frame powers as their eigenvalues."""
        return np.diag(np.asarray(values, dtype=float)).astype(complex)

    @pytest.mark.parametrize("case", ["no-noise-group", "zero-eigenvalue", "negative-eigenvalue"])
    def test_failing_window_stops_the_solves(self, monkeypatch, case):
        # Window 5 (frames 5..8) is the first to fail; windows 0-4 pass every
        # check.  The error is the one a loop over the windows raises, and no
        # window after 5 is solved.
        powers = np.random.default_rng(26).uniform(1.0, 2.0, 12)
        counts = np.zeros(9, dtype=np.int64)
        if case == "no-noise-group":
            counts[5] = 4
            error, message, solves = EmptyNoiseGroupError, \
                "S=4 signal eigenvalues leave no noise group (M=4)", 5
        elif case == "zero-eigenvalue":
            powers[8] = 0.0
            error, message, solves = ZeroPowerError, \
                "smallest eigenvalue is zero; no noise floor to fit", 6
        else:
            powers[8] = -1.0
            error, message, solves = ValueError, \
                f"eigenvalue -1.0 below -{1e-10 * powers[5:9].max()} tolerance", 6
        solved = self._count_solves(monkeypatch)
        with pytest.raises(error) as raised:
            cbe_raised(self._diagonal_gram(powers), 32, 4, counts)
        assert type(raised.value) is error and str(raised.value) == message
        assert len(solved) == solves

    def test_square_window_raises_after_its_solve(self, monkeypatch):
        solved = self._count_solves(monkeypatch)
        gram = estimators.sample_covariance(white_block(23, n_frames=10, n_bins=8))
        with pytest.raises(ZeroPowerError) as raised:
            cbe_raised(gram, 8, 8, np.zeros(3, dtype=np.int64))
        assert str(raised.value) == "square blocks leave no Marchenko-Pastur margin"
        assert solved == [(8, 8)]

    def test_unusable_estimate_before_a_failing_window_raises_first(self, monkeypatch):
        # Frame 7's power overflows the upper end of the candidate range of
        # windows 4-7 (S = 0), so their first candidate is NaN and so is their
        # estimate; window 6 leaves no noise group.  The windows before 6 are
        # fitted before its error is raised, so window 4's error wins, the
        # error a loop over the windows raises.
        powers = np.random.default_rng(27).uniform(1.0, 2.0, 12)
        powers[7] = 1.5e308
        counts = np.zeros(9, dtype=np.int64)
        counts[6] = 4
        solved = self._count_solves(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ZeroPowerError) as raised:
                cbe_raised(self._diagonal_gram(powers), 32, 4, counts)
            assert str(raised.value) == "cbe: estimate must be finite and positive, got nan"
            assert len(solved) == 6
            # Alone, windows 0-3 fit and window 4 does not.
            assert cbe_fit_windows(self._diagonal_gram(powers[:7]), 32, 4, counts[:4])[0].all()
            with pytest.raises(ZeroPowerError, match="got nan"):
                cbe_raised(self._diagonal_gram(powers[4:8]), 32, 4, counts[4:5])

    def test_shape_and_count_guards(self):
        gram = estimators.sample_covariance(white_block(23, n_frames=10, n_bins=16))
        with pytest.raises(ZeroPowerError, match="square"):
            cbe_raised(gram[:8, :8], 8, 8, np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="grid_size"):
            cbe_fit_windows(gram, 16, 4, np.zeros(7, dtype=np.int64), grid_size=1)
        with pytest.raises(ValueError, match="aspect ratio"):
            cbe_fit_windows(gram, 3, 4, np.zeros(7, dtype=np.int64))
        with pytest.raises(ValueError, match="does not fit"):
            cbe_fit_windows(gram[:3, :3], 16, 4, np.zeros(0, dtype=np.int64))
        for counts in (np.zeros(6, dtype=np.int64), np.full(7, -1), np.zeros(7)):
            with pytest.raises(ValueError, match="one non-negative integer signal count"):
                cbe_fit_windows(gram, 16, 4, counts)
        with pytest.raises(ValueError, match="below"):
            cbe_raised(-np.eye(4), 16, 4, np.zeros(1, dtype=np.int64))


class TestMmseEstimate:
    def test_stationary_noise_level(self):
        values = [mmse_estimate(white_block(seed)) for seed in range(50)]
        assert abs(np.mean(values) - 1.0) < 0.10

    def test_identical_frames_rejected(self):
        row = np.arange(1, 9, dtype=complex)
        block = ResourceBlock(np.stack([row] * 5))
        with pytest.raises(ZeroPowerError):
            mmse_estimate(block)

    def test_weight_system_residual(self):
        # The residual of the one-window fit mmse_estimate makes.
        block = white_block(3)
        assert mmse_fit_windows(block.spectral, block.n_frames)[3][0] < 1e-8

    def test_underestimates_on_impulsive_noise(self):
        # On non-Gaussian (impulsive) noise MMSE runs below the block mean
        # that MVU with ideal separation reports.
        params = SurrogateNoiseParams(impulse_rate=2e-3, impulse_amplitude_factor=8.0)
        mmse_vals, mvu_vals = [], []
        for seed in range(30):
            cfg = ScenarioConfig(
                n_bins=512, n_frames=100,
                noise=NoiseSource(kind="surrogate-industrial", seed=seed, params=params),
                signals=(SubbandSignal(subband_index=2, occupancy_fraction=1.0,
                                       target_snr_db=0.0),),
            )
            block, truth = build_scenario(cfg)
            power = power_matrix(block)
            spectra = [PowerSpectrum(power[i], i) for i in range(100)]
            masks = [ideal_separate(truth, i) for i in range(100)]
            mvu_vals.append(mvu_estimate(spectra, masks))
            mmse_vals.append(mmse_estimate(block))
        assert np.mean(mmse_vals) < np.mean(mvu_vals)

    def test_scale_equivariance(self):
        block = white_block(4, n_frames=20, n_bins=64)
        gamma = 2.25
        scaled = ResourceBlock(block.spectral * np.sqrt(gamma))
        assert mmse_estimate(scaled) == pytest.approx(gamma * mmse_estimate(block), rel=1e-9)

    def test_requires_three_frames(self):
        with pytest.raises(ValueError, match="3 frames"):
            mmse_estimate(white_block(5, n_frames=2, n_bins=16))

    def test_fit_on_matrix_matches_block(self):
        block = white_block(6, n_frames=30, n_bins=64)
        for blind in (True, False):
            values = mmse_fit_windows(block.spectral, 30, blind=blind)[0]
            assert values.tolist() == [mmse_estimate(block, blind=blind)]
        assert mmse_fit_windows(block.spectral, 30)[0].tolist() == [mmse_estimate(block)]


def _oracle_windows(spectral: np.ndarray, window: int, blind: bool):
    """Oracle fits of the windows in order up to the first that raises, and its error."""
    fits = []
    for lo in range(spectral.shape[0] - window + 1):
        try:
            fits.append(mmse_fit_per_window(spectral[lo:lo + window], blind))
        except ZeroPowerError as exc:
            return fits, exc
    return fits, None


def _levinson_fit_windows(spectral: np.ndarray, window: int,
                          blind: bool) -> list[SimpleNamespace]:
    """Reference for the MMSE engine with one Levinson solve per window and no
    conjugate gradients: value_mw and diagnostics of every window, chunk by chunk."""
    total, n = spectral.shape
    fits = []
    for first in range(0, total - window + 1, estimators.MMSE_CHUNK):
        x = spectral[first:min(first + estimators.MMSE_CHUNK, total - window + 1) + window - 1]
        variance, last_power = estimators._mmse_moments(x / np.sqrt(n), window, blind)
        lags = estimators._mmse_lags(variance)
        solved = [estimators._solve_mmse_weights(r) for r in lags]
        raw_weights = np.stack([w for w, _ in solved])
        residuals = estimators._toeplitz_residuals(
            estimators._embedding_spectra(np.stack([c for _, c in solved])),
                                                   raw_weights, lags)
        for w, power, residual in zip(raw_weights, last_power, residuals):
            weight_sum = float(w.sum())
            weights = w / weight_sum
            fits.append(SimpleNamespace(value_mw=float(weights @ power), diagnostics={
                "raw_weight_sum": weight_sum, "weight_max": float(np.abs(weights).max()),
                "system_residual": float(residual), "blind": blind}))
    return fits


@pytest.fixture(scope="module")
def mmse_oracle_cases(switching_trace_config):
    cfg = scenario_config_from_file(CONFIG)
    matrices = {f"reference-seed{s}": build_scenario(with_seed(cfg, s))[0].spectral
                for s in (0, 1)}
    trace_cfg = scenario_config_from_file(switching_trace_config)
    matrices["switching-trace"] = build_scenario(trace_cfg)[0].spectral
    return {(name, blind): (spectral, *_oracle_windows(spectral, 100, blind))
            for name, spectral in matrices.items() for blind in (True, False)}


class TestMmseFitWindows:
    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
    @pytest.mark.parametrize("blind", [True, False], ids=["blind", "nonblind"])
    @pytest.mark.parametrize("case", ["reference-seed0", "reference-seed1", "switching-trace"])
    def test_windows_match_oracle(self, mmse_oracle_cases, monkeypatch, case, blind, chunk):
        if chunk is not None:
            monkeypatch.setattr(estimators, "MMSE_CHUNK", chunk)
        spectral, want, error = mmse_oracle_cases[case, blind]
        assert want, "the oracle fails on the first window"
        values, weight_sums, _, residuals, _ = mmse_fit_windows(spectral[:len(want) + 99], 100,
                                                                blind=blind)
        assert len(values) == len(want)
        for lo, w in enumerate(want):
            assert values[lo] == pytest.approx(w.value_mw, rel=1e-12)
            assert weight_sums[lo] == pytest.approx(w.diagnostics["raw_weight_sum"], rel=1e-12)
            # The residual is itself a norm ratio at round-off level (~1e-16),
            # so it is compared absolutely.
            assert residuals[lo] == pytest.approx(w.diagnostics["system_residual"], abs=1e-12)
        if error is None:
            assert len(want) == spectral.shape[0] - 99
        else:
            # The first window the oracle rejects is rejected with the same error.
            prefix = str(error).split("(")[0]
            with pytest.raises(ZeroPowerError, match=prefix) as caught:
                raised(mmse_fit_windows(spectral[:len(want) + 100], 100, blind=blind), "mmse")
            assert type(caught.value) is type(error)

    def test_switching_trace_fails_after_the_switch(self, mmse_oracle_cases):
        _, want, error = mmse_oracle_cases["switching-trace", True]
        assert len(want) == 52
        assert "non-positive estimate" in str(error)

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
    @pytest.mark.parametrize("repeated", ["dyadic", "random"])
    def test_identical_frames_follow_the_oracle(self, monkeypatch, chunk, repeated):
        # From frame 20 on every frame repeats one row.  With dyadic values the
        # blind mean of the copies is exact, so the first window whose reference
        # frames are all copies has zero residual and raises, and no earlier
        # window does.  With random values the mean is rounded and every window
        # evaluates, on round-off residuals.  Either way the sliding sums have
        # cancelled there, and the window must come out as a lone one would.
        if chunk is not None:
            monkeypatch.setattr(estimators, "MMSE_CHUNK", chunk)
        n, window, start = 16, 10, 20
        spectral = white_block(8, n_frames=40, n_bins=n).spectral.copy()
        if repeated == "dyadic":
            spectral[start:] = np.arange(n) % 5 + 1j * (np.arange(n) % 3)
        else:
            spectral[start:] = spectral[start]
        want, error = _oracle_windows(spectral, window, blind=True)
        got = mmse_fit_windows(spectral[:len(want) + window - 1], window)[0]
        for g, w in zip(got, want):
            assert g == pytest.approx(w.value_mw, rel=1e-12)
        if repeated == "dyadic":
            assert len(want) == start
            assert "all-zero residual" in str(error)
            with pytest.raises(ZeroPowerError, match="all-zero residual"):
                raised(mmse_fit_windows(spectral, window), "mmse")
        else:
            assert error is None
            assert len(got) == spectral.shape[0] - window + 1

    def test_ridge_fallback_only_for_the_failed_window(self, monkeypatch):
        spectral = white_block(9, n_frames=40, n_bins=64).spectral
        plain = [mmse_fit_per_window(spectral[lo:lo + 20]) for lo in range(21)]
        pcg = estimators._pcg_toeplitz

        def first_window_unconverged(columns, rhs):
            solutions, converged, embedding = pcg(columns, rhs)
            converged[0] = False
            return solutions, converged, embedding

        original = estimators._try_toeplitz
        diagonals = []

        def first_attempt_fails(column, rhs):
            diagonals.append(column[0] / rhs[0])
            return None if len(diagonals) == 1 else original(column, rhs)

        monkeypatch.setattr(estimators, "_pcg_toeplitz", first_window_unconverged)
        monkeypatch.setattr(estimators, "_try_toeplitz", first_attempt_fails)
        got = mmse_fit_windows(spectral, 20)[0]
        # Only window 0 goes to Levinson; its first attempt fails and the ridge retry solves it.
        assert diagonals == pytest.approx([2.0, 2.0 + 1e-6], rel=1e-12)
        diagonals.clear()
        ridge = mmse_fit_per_window(spectral[:20])  # its first attempt fails as well
        assert got[0] == pytest.approx(ridge.value_mw, rel=1e-12)
        assert got[0] != pytest.approx(plain[0].value_mw, rel=1e-9)
        for g, w in zip(got[1:], plain[1:]):
            assert g == pytest.approx(w.value_mw, rel=1e-12)

    def test_singular_after_ridge_is_a_data_error(self, monkeypatch):
        spectral = white_block(11, n_frames=12, n_bins=32).spectral
        monkeypatch.setattr(estimators, "MMSE_PCG_MAX_ITER", 0)
        monkeypatch.setattr(estimators, "_try_toeplitz", lambda column, rhs: None)
        for fit in (lambda: raised(mmse_fit_windows(spectral, 10), "mmse"),
                    lambda: mmse_fit_per_window(spectral)):
            with pytest.raises(DegenerateSpectrumError, match="singular even after ridge"):
                fit()

    def test_earlier_failure_wins_over_a_later_singular_window(self, monkeypatch):
        # Windows 1 and 3 go to Levinson: window 1's weights sum to zero, window
        # 3's system is singular even with the ridge.  Both are checked in one
        # pass over the chunk, and the earlier window's error is raised.
        spectral = white_block(9, n_frames=30, n_bins=32).spectral
        pcg = estimators._pcg_toeplitz

        def unconverged(windows):
            def solve(columns, rhs):
                solutions, converged, embedding = pcg(columns, rhs)
                converged[windows] = False
                return solutions, converged, embedding
            return solve

        zero_sum = np.zeros(32)
        zero_sum[:2] = 1.0, -1.0
        answers = iter([zero_sum, None, None])
        monkeypatch.setattr(estimators, "_try_toeplitz", lambda column, rhs: next(answers))
        monkeypatch.setattr(estimators, "_pcg_toeplitz", unconverged([1, 3]))
        with pytest.raises(ZeroPowerError, match="weights sum to zero"):
            raised(mmse_fit_windows(spectral, 20), "mmse")
        assert next(answers, "drained") == "drained"  # window 3 was solved too
        answers = iter([None, None])
        monkeypatch.setattr(estimators, "_pcg_toeplitz", unconverged([3]))
        with pytest.raises(DegenerateSpectrumError, match="singular even after ridge"):
            raised(mmse_fit_windows(spectral, 20), "mmse")

    def test_failing_call_solves_up_to_the_failing_chunk(self, mmse_oracle_cases, monkeypatch):
        # The switching trace fails at window 52.  Seven windows a chunk, the
        # chunk that holds it is the eighth, and no later chunk is solved.
        spectral, want, _ = mmse_oracle_cases["switching-trace", True]
        pcg = estimators._pcg_toeplitz
        systems = []

        def counted(columns, rhs):
            systems.append(len(columns))
            return pcg(columns, rhs)

        monkeypatch.setattr(estimators, "MMSE_CHUNK", 7)
        monkeypatch.setattr(estimators, "_pcg_toeplitz", counted)
        with pytest.raises(ZeroPowerError, match="non-positive estimate"):
            raised(mmse_fit_windows(spectral, 100), "mmse")
        assert len(want) == 52
        assert systems == [7] * 8

    @pytest.mark.parametrize("blind", [True, False], ids=["blind", "nonblind"])
    @pytest.mark.parametrize("case", ["reference-seed0", "reference-seed1", "switching-trace"])
    def test_pcg_weights_match_dense_solve(self, mmse_oracle_cases, case, blind):
        spectral = mmse_oracle_cases[case, blind][0]
        n, window = spectral.shape[1], 100
        variance, _ = estimators._mmse_moments(spectral / np.sqrt(n), window, blind)
        picked = variance[::10]
        lags = np.stack([np.correlate(v, v, mode="full")[n - 1:] / n for v in picked])
        columns = lags.copy()
        columns[:, 0] *= 2.0
        solutions, converged, _ = estimators._pcg_toeplitz(columns, lags)
        assert converged.all()
        for column, r, w in zip(columns, lags, solutions):
            dense = scipy.linalg.solve(scipy.linalg.toeplitz(column), r, assume_a="pos")
            np.testing.assert_allclose(w, dense, rtol=0, atol=1e-12 * np.abs(dense).max())

    @pytest.mark.parametrize("blind", [True, False], ids=["blind", "nonblind"])
    def test_iteration_cap_of_one_is_the_levinson_engine(self, mmse_oracle_cases, monkeypatch,
                                                         blind):
        # One iteration converges no window, so every window is solved by
        # Levinson, and the fits are those of the Levinson-only engine.
        spectral = mmse_oracle_cases["reference-seed0", blind][0]
        want = _levinson_fit_windows(spectral, 100, blind)
        calls = []
        original = estimators._try_toeplitz

        def counted(column, rhs):
            calls.append(1)
            return original(column, rhs)

        monkeypatch.setattr(estimators, "MMSE_PCG_MAX_ITER", 1)
        monkeypatch.setattr(estimators, "_try_toeplitz", counted)
        values, weight_sums, weight_maxes, residuals, _ = mmse_fit_windows(spectral, 100,
                                                                           blind=blind)
        assert len(calls) == len(values) == len(want)
        for j, w in enumerate(want):
            assert values[j] == w.value_mw
            assert w.diagnostics == {
                "raw_weight_sum": weight_sums[j], "weight_max": weight_maxes[j],
                "system_residual": residuals[j], "blind": blind}

    def test_window_bounds(self):
        spectral = white_block(10, n_frames=8, n_bins=16).spectral
        with pytest.raises(ValueError, match="3 frames"):
            mmse_fit_windows(spectral, 2)
        with pytest.raises(ValueError, match="does not fit"):
            mmse_fit_windows(spectral, 9)
        assert [len(column) for column in mmse_fit_windows(spectral, 8)] == [1, 1, 1, 1, 1]


def spd_toeplitz_batch(seed: int, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """MMSE-like weight systems (r with r(0) doubled as the column, r as the
    right-hand side) from rows of varied smoothness and scale, and a last row
    of a near-singular Gaussian-kernel Toeplitz matrix."""
    rng = np.random.default_rng(seed)
    v = rng.exponential(size=(count - 1, n))
    for j in range(count - 1):
        width = j % 5 + 1
        v[j] = np.convolve(v[j], np.ones(width) / width, mode="same")
    v *= 10.0 ** rng.uniform(-3, 3, (count - 1, 1))
    lags = np.stack([np.correlate(a, a, mode="full")[n - 1:] / n for a in v])
    columns = lags.copy()
    columns[:, 0] *= 2.0
    kernel = np.exp(-(np.arange(n) / 6.0) ** 2)
    kernel[0] += 1e-9
    return (np.vstack([columns, kernel]),
            np.vstack([lags, rng.standard_normal(n)]))


def assert_same_pcg(columns: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solver and its division oracle give the same bits; returns the converged flags."""
    solutions, converged, _ = estimators._pcg_toeplitz(columns, rhs)
    want, want_converged = pcg_toeplitz_oracle(columns, rhs)
    assert solutions.tobytes() == want.tobytes()
    assert converged.tolist() == want_converged.tolist()
    return converged


class TestPcgToeplitz:
    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_division_oracle(self, seed, n):
        converged = assert_same_pcg(*spd_toeplitz_batch(seed, 13, n))
        # The near-singular row runs out of iterations, all others converge.
        assert converged[:-1].all() and not converged[-1]

    def test_rows_stop_at_different_iterations(self, monkeypatch):
        columns, rhs = spd_toeplitz_batch(2, 13, 16)
        cap = estimators.MMSE_PCG_MAX_ITER
        stopped = []
        for iterations in range(cap + 1):
            monkeypatch.setattr(estimators, "MMSE_PCG_MAX_ITER", iterations)
            stopped.append(int(assert_same_pcg(columns, rhs).sum()))
        # Rows leave the iteration at several different steps, so the state is
        # compacted more than once, and one row is still iterating at the cap.
        assert len(set(stopped)) >= 4
        assert stopped[-1] == len(columns) - 1

    def test_matches_division_oracle_on_mmse_systems(self, mmse_oracle_cases):
        spectral = mmse_oracle_cases["switching-trace", True][0]
        n = spectral.shape[1]
        variance, _ = estimators._mmse_moments(spectral[:163] / np.sqrt(n), 100, True)
        lags = estimators._mmse_lags(variance)
        columns = lags.copy()
        columns[:, 0] *= 2.0
        assert assert_same_pcg(columns, lags).all()

    def test_circulant_inverse_matches_division(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((5, 32)) * 10.0 ** rng.uniform(-200, 200, (5, 1))
        eigenvalues = rng.uniform(0.01, 10.0, (5, 17)) * 10.0 ** rng.uniform(-100, 100, (5, 17))
        got = np.empty_like(rows)
        with np.errstate(over="ignore"):
            estimators._apply_circulant_inverse(rows, 1.0 / eigenvalues,
                                                np.empty((5, 33), dtype=complex)[:, :17], got)
            want = np.empty_like(rows)
            apply_circulant_inverse_oracle(rows, eigenvalues,
                                           np.empty((5, 33), dtype=complex)[:, :17], want)
        assert got.tobytes() == want.tobytes()


def snr_db_scalar(sigma_x_sq: float, sigma_w_sq: float) -> float:
    """Excess-power SNR in dB of one received and one noise power, unchecked."""
    linear = (sigma_x_sq - sigma_w_sq) / sigma_w_sq
    return float(10.0 * np.log10(linear)) if linear > 0 else -np.inf


class TestSnrDbFromPowers:
    def test_double_power_is_zero_db(self):
        assert snr_db_from_powers(2.0, 1.0) == 0.0

    def test_equal_powers_marker(self):
        assert np.isneginf(snr_db_from_powers(1.0, 1.0))

    def test_near_minus_three_db(self):
        assert snr_db_from_powers(1.501, 1.0) == pytest.approx(-3.0, abs=0.01)

    def test_rejects_bad_noise_power(self):
        with pytest.raises(ZeroPowerError):
            snr_db_from_powers(1.0, 0.0)

    def test_rejects_negative_received_power(self):
        with pytest.raises(ValueError, match="received power must be non-negative"):
            snr_db_from_powers(-1.0, 1.0)

    def test_matches_scalar_form(self):
        rng = np.random.default_rng(8)
        noise = rng.exponential(1.0, 500)
        received = noise * rng.uniform(0.5, 3.0, 500)
        received[:20] = noise[:20]          # no excess power: -inf
        received[20:40] = 0.0
        got = snr_db_from_powers(received, noise)
        want = [snr_db_scalar(x, w) for x, w in zip(received, noise)]
        np.testing.assert_array_equal(got, want)
        assert np.isneginf(got[:40]).all() and np.isfinite(got[40:]).any()

    def test_guards(self):
        with pytest.raises(ZeroPowerError):
            snr_db_from_powers(np.array([2.0, 2.0]), np.array([1.0, 0.0]))
        with pytest.raises(ZeroPowerError):
            snr_db_from_powers(np.array([2.0]), np.array([-1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            snr_db_from_powers(np.array([-1.0]), np.array([1.0]))


class TestMlFitFrames:
    def test_matches_noise_bin_means(self):
        rng = np.random.default_rng(12)
        p = rng.exponential(1.0, (30, 64))
        signal = rng.random((30, 64)) < 0.4
        noise = ~signal
        sums = np.array([row[keep].sum() for row, keep in zip(p, noise)])
        got = ml_fit_frames(sums, noise.sum(axis=1))[0]
        want = [row[keep].mean() for row, keep in zip(p, noise)]
        np.testing.assert_array_equal(got, want)

    def test_guards_in_frame_order(self):
        with pytest.raises(ZeroPowerError, match="ml: .* got 0.0"):
            raised(ml_fit_frames(np.array([1.0, 0.0, 1.0]), np.array([2, 2, 0])), "ml")
        with pytest.raises(EmptyNoiseGroupError):
            raised(ml_fit_frames(np.array([1.0, 0.0, 0.0]), np.array([2, 0, 2])), "ml")
        with pytest.raises(ValueError, match="aligned"):
            ml_fit_frames(np.ones(2), np.ones(3, dtype=int))
        with pytest.raises(ValueError, match="aligned"):
            ml_fit_frames(np.array([]), np.array([], dtype=int))


class TestScaleEquivariance:
    @given(st.floats(0.01, 50.0), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_ml_mvu_aic_exact(self, gamma, seed):
        rng = np.random.default_rng(seed)
        p = rng.exponential(1.0, 32)
        m = mask_of(np.arange(32) < 4)
        assert ml_estimate(spectrum(p * gamma), m) == pytest.approx(
            gamma * ml_estimate(spectrum(p), m), rel=1e-12)
        assert aic_estimate(spectrum(p * gamma), 5) == pytest.approx(
            gamma * aic_estimate(spectrum(p), 5), rel=1e-9)


class TestEstimateInvariants:
    def test_positive_value_required(self):
        with pytest.raises(ZeroPowerError):
            ml_estimate(spectrum(np.zeros(8)), mask_of(np.zeros(8)))

    def test_empty_noise_group(self):
        p = spectrum([1.0, 2.0, 3.0, 4.0])
        m = mask_of([0, 1, 1, 1])
        sub = PowerSpectrum(power=p.power[:2])
        with pytest.raises((EmptyNoiseGroupError, ValueError)):
            ml_estimate(sub, m)
