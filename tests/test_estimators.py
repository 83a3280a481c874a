from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisebench import (
    EigenSpectrum,
    NoiseSource,
    PowerSpectrum,
    ResourceBlock,
    ScenarioConfig,
    SeparationMask,
    SubbandSignal,
    SurrogateNoiseParams,
    ZeroPowerError,
    aic_estimate,
    build_scenario,
    cbe_estimate,
    covariance_eigenvalues,
    ideal_separate,
    ml_estimate,
    ml_fit_frames,
    mmse_estimate,
    mmse_fit,
    mmse_fit_windows,
    mp_cdf,
    mvu_estimate,
    mvu_fit,
    mvu_fit_windows,
    power_matrix,
    snr_db_from_powers,
    snr_from_powers,
)
from noisebench import estimators
from noisebench.bench import MethodSpec, _counting_power, count_ops
from noisebench.errors import EmptyNoiseGroupError
from noisebench.scenario import scenario_config_from_file, with_seed

from conftest import mmse_fit_per_window, reference_config, white_frame

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ism_benchmark.json"


def spectrum(values, index=0) -> PowerSpectrum:
    return PowerSpectrum(power=np.asarray(values, dtype=float), frame_index=index)


def mask_of(is_signal) -> SeparationMask:
    return SeparationMask(is_signal=np.asarray(is_signal, dtype=bool), method="ideal")


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


def white_block(seed: int, n_frames: int = 100, n_bins: int = 512,
                power: float = 1.0) -> ResourceBlock:
    rng = np.random.default_rng(seed)
    return ResourceBlock(np.stack([
        white_frame(rng, n_bins, power) * np.sqrt(n_bins) for _ in range(n_frames)
    ]))


class TestMlEstimate:
    def test_all_noise_mean(self):
        est = ml_estimate(spectrum([1.0, 1.0, 1.0, 1.0]), mask_of([0, 0, 0, 0]))
        assert est.value_mw == 1.0

    def test_masked_mean(self):
        est = ml_estimate(spectrum([2.0, 4.0, 100.0, 100.0]), mask_of([0, 0, 1, 1]))
        assert est.value_mw == 3.0

    def test_white_noise_accuracy(self):
        rng = np.random.default_rng(31)
        values = []
        for _ in range(200):
            p = np.abs(white_frame(rng, 512)) ** 2
            values.append(ml_estimate(spectrum(p), mask_of(np.zeros(512))).value_mw)
        tol = 3.0 / np.sqrt(512) / np.sqrt(200)
        assert abs(np.mean(values) - 1.0) < tol

    def test_all_noise_mask_equals_frame_mean(self):
        rng = np.random.default_rng(32)
        p = rng.exponential(1.0, 64)
        est = ml_estimate(spectrum(p), mask_of(np.zeros(64)))
        assert est.value_mw == pytest.approx(p.mean(), rel=1e-15)

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ml_estimate(spectrum([1.0, 2.0]), mask_of([0, 0, 0]))


class TestMvuEstimate:
    def test_single_frame_reduces_to_ml(self):
        p = spectrum([1.0, 2.0, 3.0, 4.0])
        m = mask_of([0, 0, 1, 0])
        assert mvu_estimate([p], [m]).value_mw == ml_estimate(p, m).value_mw

    def test_balanced_mean_of_two_frames(self):
        ps = [spectrum([1.0, 1.0]), spectrum([3.0, 3.0], 1)]
        ms = [mask_of([0, 0]), mask_of([0, 0])]
        assert mvu_estimate(ps, ms).value_mw == 2.0

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
        got = mvu_estimate(powers, masks).value_mw
        assert got == pytest.approx(total / count, rel=1e-12)

    def test_fit_from_sums_matches_list_form(self):
        rng = np.random.default_rng(17)
        powers = [spectrum(rng.exponential(1.0, 16), i) for i in range(5)]
        masks = [mask_of(rng.random(16) < 0.3) for _ in range(5)]
        sums = [float(p.power[m.noise_bins].sum()) for p, m in zip(powers, masks)]
        counts = [int(m.noise_bins.sum()) for m in masks]
        got = mvu_fit(sums, counts, frame_index=4, separation="ideal")
        want = mvu_estimate(powers, masks)
        assert got.value_mw == want.value_mw
        assert got.diagnostics == want.diagnostics
        assert got.frame_index == want.frame_index

    def test_fit_rejects_misaligned_or_empty(self):
        with pytest.raises(ValueError, match="aligned"):
            mvu_fit([1.0, 2.0], [3])
        with pytest.raises(ValueError, match="aligned"):
            mvu_fit([], [])
        with pytest.raises(EmptyNoiseGroupError):
            mvu_fit([0.0], [0])

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_windows_match_left_fold(self, seed):
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(1, 40))
        window = int(rng.integers(1, frames + 1))
        sums = rng.exponential(1.0, frames) * 10.0 ** rng.uniform(-3, 3, frames)
        counts = rng.integers(1, 64, frames)
        got = mvu_fit_windows(sums, counts, window)
        assert got.shape == (frames - window + 1,)
        for j, value in enumerate(got):
            total, count = 0.0, 0
            for frame_sum, frame_count in zip(sums[j:j + window], counts[j:j + window]):
                total += float(frame_sum)
                count += int(frame_count)
            assert value == total / count
            assert value == mvu_fit(sums[j:j + window], counts[j:j + window]).value_mw

    def test_windows_guards_in_window_order(self):
        with pytest.raises(ValueError, match="does not fit"):
            mvu_fit_windows(np.ones(3), np.ones(3, dtype=int), 4)
        with pytest.raises(ZeroPowerError, match="mvu: .* got 0.0"):
            mvu_fit_windows(np.array([1.0, 0.0, 0.0, 1.0]), np.array([2, 2, 2, 2]), 2)
        with pytest.raises(EmptyNoiseGroupError):
            mvu_fit_windows(np.array([1.0, 0.0, 0.0, 0.0]), np.array([2, 0, 0, 2]), 2)

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
        est = aic_estimate(spectrum(np.full(16, 2.5)), n_frames=10)
        assert est.diagnostics["n_min"] == 0
        assert est.value_mw == pytest.approx(2.5)

    def test_single_spike_selects_order_one(self):
        lam = np.ones(16)
        lam[0] = 100.0
        est = aic_estimate(spectrum(lam), n_frames=10)
        assert est.diagnostics["n_min"] == 1
        assert est.value_mw == pytest.approx(1.0)

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
        est = aic_estimate(spectrum(p), n_frames=10)
        assert est.diagnostics["n_min"] == self.aic_oracle(p, 10)

    @given(st.integers(0, 200), st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_n_min_scale_invariant(self, seed, gamma):
        rng = np.random.default_rng(seed)
        p = rng.exponential(1.0, 32)
        p[:5] += 10.0
        a = aic_estimate(spectrum(p), n_frames=8)
        b = aic_estimate(spectrum(p * gamma), n_frames=8)
        assert a.diagnostics["n_min"] == b.diagnostics["n_min"]
        assert b.value_mw == pytest.approx(gamma * a.value_mw, rel=1e-9)

    def test_reference_scenario_order(self):
        # 128 occupied bins; the selected order overshoots by the method's
        # usual margin (measured 139..165 over seeds).
        orders = []
        for seed in range(10):
            block, _ = build_scenario(reference_config(seed=seed))
            avg = spectrum(power_matrix(block).mean(axis=0), 99)
            orders.append(aic_estimate(avg, 100).diagnostics["n_min"])
        assert 120 <= np.mean(orders) <= 175

    @pytest.mark.parametrize("n", [16, 17, 31, 64, 100, 257, 512])
    def test_counting_block_order_matches_direct_curve(self, n):
        # count_ops books the per-order evaluation but reads the order off the
        # cumulative curve; on the counting block's last frame both must pick
        # the same order.
        p = _counting_power(n).power
        lam = np.sort(np.maximum(p, 1e-30))[::-1]
        got = aic_estimate(spectrum(p), n)
        assert got.diagnostics["n_min"] == int(np.argmin(aic_curve_naive(lam, n * n)))

    def test_counted_curve_books_per_order_evaluation(self):
        # AIC's count less the frame's FFT, power spectrum and periodogram
        # update is the per-order evaluation's.
        n = 40
        n_min = aic_estimate(_counting_power(n), n).diagnostics["n_min"]
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
        assert est.value_mw > 0


class TestCovarianceEigenvalues:
    def test_rank_one_block(self):
        row = np.full(8, 2.0, dtype=complex)
        block = ResourceBlock(np.stack([row, row]))
        eig = covariance_eigenvalues(block)
        assert eig.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        # trace identity fixes the scale of the single non-zero eigenvalue
        x = block.spectral_matrix() / np.sqrt(8)
        assert eig.eigenvalues.sum() == pytest.approx(
            np.sum(np.abs(x) ** 2) / 8, rel=1e-9)

    def test_orthogonal_equal_norm_rows(self):
        bins_a = np.array([1, 1, 1, 1], dtype=complex)
        bins_b = np.array([1, -1, 1, -1], dtype=complex)
        block = ResourceBlock(np.stack([bins_a, bins_b]))
        ev = covariance_eigenvalues(block).eigenvalues
        assert ev[0] == pytest.approx(ev[1], rel=1e-12)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_trace_identity(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 8)), int(rng.integers(8, 24))
        block = white_block(seed, n_frames=m, n_bins=n)
        eig = covariance_eigenvalues(block)
        x = block.spectral_matrix() / np.sqrt(n)
        assert eig.eigenvalues.sum() == pytest.approx(
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
            mins.append(eig.eigenvalues[-1])
            maxs.append(eig.eigenvalues[0])
        assert np.mean(mins) / a == pytest.approx(1.054, abs=0.02)
        assert np.mean(maxs) / b == pytest.approx(0.968, abs=0.02)

    def test_descending_invariant(self):
        with pytest.raises(ValueError, match="descending"):
            EigenSpectrum(eigenvalues=np.array([1.0, 2.0]), n_frames=2, n_bins=4)


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


class TestCbeEstimate:
    def test_pure_noise_recovery(self):
        values = [cbe_estimate(white_block(seed, n_frames=64), 0.0).value_mw
                  for seed in range(25)]
        assert abs(np.mean(values) - 1.0) < 0.05

    def test_homogeneity_under_scaling(self):
        block = white_block(77, n_frames=32, n_bins=128)
        gamma = 3.5
        scaled = ResourceBlock(block.spectral * np.sqrt(gamma))
        base = cbe_estimate(block, 0.0, grid_size=50)
        up = cbe_estimate(scaled, 0.0, grid_size=50)
        assert up.value_mw == pytest.approx(gamma * base.value_mw, rel=1e-9)

    def test_reference_scenario_tendency(self):
        # Mild SNR overestimation with sub-dB RMSE (measured +0.04 dB, 0.23 dB).
        errors = []
        for seed in range(20):
            block, truth = build_scenario(reference_config(seed=seed))
            sigma_x = power_matrix(block).mean()
            est = cbe_estimate(block, 0.25)
            errors.append(snr_from_powers(sigma_x, est.value_mw)[1])
        errors = np.array(errors)
        assert errors.mean() > -0.05
        assert np.sqrt((errors**2).mean()) < 1.0

    def test_signal_count_bounds(self):
        block = white_block(1, n_frames=8, n_bins=32)
        with pytest.raises(ValueError, match="noise group"):
            cbe_estimate(block, 0.99)

    def test_diagnostics_carry_fit_curve(self):
        est = cbe_estimate(white_block(2, n_frames=16, n_bins=64), 0.0, grid_size=40)
        assert est.diagnostics["distances"].shape == (40,)
        assert est.diagnostics["grid"].shape == (40,)
        best = int(np.argmin(est.diagnostics["distances"]))
        assert est.value_mw == est.diagnostics["grid"][best]


class TestMmseEstimate:
    def test_stationary_noise_level(self):
        values = [mmse_estimate(white_block(seed)).value_mw for seed in range(50)]
        assert abs(np.mean(values) - 1.0) < 0.10

    def test_identical_frames_rejected(self):
        row = np.arange(1, 9, dtype=complex)
        block = ResourceBlock(np.stack([row] * 5))
        with pytest.raises(ZeroPowerError):
            mmse_estimate(block)

    def test_weight_system_residual(self):
        est = mmse_estimate(white_block(3))
        assert est.diagnostics["system_residual"] < 1e-8

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
            mvu_vals.append(mvu_estimate(spectra, masks).value_mw)
            mmse_vals.append(mmse_estimate(block).value_mw)
        assert np.mean(mmse_vals) < np.mean(mvu_vals)

    def test_scale_equivariance(self):
        block = white_block(4, n_frames=20, n_bins=64)
        gamma = 2.25
        scaled = ResourceBlock(block.spectral * np.sqrt(gamma))
        assert mmse_estimate(scaled).value_mw == pytest.approx(
            gamma * mmse_estimate(block).value_mw, rel=1e-9)

    def test_requires_three_frames(self):
        with pytest.raises(ValueError, match="3 frames"):
            mmse_estimate(white_block(5, n_frames=2, n_bins=16))

    def test_fit_on_matrix_matches_block(self):
        block = white_block(6, n_frames=30, n_bins=64)
        got = mmse_fit(block.spectral_matrix(), frame_index=29)
        want = mmse_estimate(block)
        assert got.value_mw == want.value_mw
        assert got.diagnostics == want.diagnostics
        assert got.frame_index == want.frame_index == 29


def _oracle_windows(spectral: np.ndarray, window: int, blind: bool):
    """Oracle fits of the windows in order up to the first that raises, and its error."""
    fits = []
    for lo in range(spectral.shape[0] - window + 1):
        try:
            fits.append(mmse_fit_per_window(spectral[lo:lo + window], blind))
        except ZeroPowerError as exc:
            return fits, exc
    return fits, None


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
        got = mmse_fit_windows(spectral[:len(want) + 99], 100, blind=blind)
        assert len(got) == len(want)
        for lo, (g, w) in enumerate(zip(got, want)):
            assert g.frame_index == lo + 99
            assert g.value_mw == pytest.approx(w.value_mw, rel=1e-12)
            assert g.diagnostics["raw_weight_sum"] == pytest.approx(
                w.diagnostics["raw_weight_sum"], rel=1e-12)
            # The residual is itself a norm ratio at round-off level (~1e-16),
            # so it is compared absolutely.
            assert g.diagnostics["system_residual"] == pytest.approx(
                w.diagnostics["system_residual"], abs=1e-12)
            assert g.diagnostics["blind"] is blind
        if error is None:
            assert len(want) == spectral.shape[0] - 99
        else:
            # The first window the oracle rejects is rejected with the same error.
            prefix = str(error).split("(")[0]
            with pytest.raises(ZeroPowerError, match=prefix) as caught:
                mmse_fit_windows(spectral[:len(want) + 100], 100, blind=blind)
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
        got = mmse_fit_windows(spectral[:len(want) + window - 1], window)
        for g, w in zip(got, want):
            assert g.value_mw == pytest.approx(w.value_mw, rel=1e-12)
        if repeated == "dyadic":
            assert len(want) == start
            assert "all-zero residual" in str(error)
            with pytest.raises(ZeroPowerError, match="all-zero residual"):
                mmse_fit_windows(spectral, window)
        else:
            assert error is None
            assert len(got) == spectral.shape[0] - window + 1

    def test_ridge_fallback_only_for_the_failed_window(self, monkeypatch):
        spectral = white_block(9, n_frames=40, n_bins=64).spectral
        plain = [mmse_fit_per_window(spectral[lo:lo + 20]) for lo in range(21)]
        original = estimators._try_toeplitz
        diagonals = []

        def first_attempt_fails(column, rhs):
            diagonals.append(column[0] / rhs[0])
            return None if len(diagonals) == 1 else original(column, rhs)

        monkeypatch.setattr(estimators, "_try_toeplitz", first_attempt_fails)
        got = mmse_fit_windows(spectral, 20)
        assert diagonals == pytest.approx([2.0, 2.0 + 1e-6] + [2.0] * 20, rel=1e-12)
        diagonals.clear()
        ridge = mmse_fit_per_window(spectral[:20])  # its first attempt fails as well
        assert got[0].value_mw == pytest.approx(ridge.value_mw, rel=1e-12)
        assert got[0].value_mw != pytest.approx(plain[0].value_mw, rel=1e-9)
        for g, w in zip(got[1:], plain[1:]):
            assert g.value_mw == pytest.approx(w.value_mw, rel=1e-12)

    def test_window_bounds(self):
        spectral = white_block(10, n_frames=8, n_bins=16).spectral
        with pytest.raises(ValueError, match="3 frames"):
            mmse_fit_windows(spectral, 2)
        with pytest.raises(ValueError, match="does not fit"):
            mmse_fit_windows(spectral, 9)
        assert len(mmse_fit_windows(spectral, 8)) == 1


class TestSnrFromPowers:
    def test_double_power_is_zero_db(self):
        linear, db = snr_from_powers(2.0, 1.0)
        assert linear == 1.0
        assert db == 0.0

    def test_equal_powers_marker(self):
        linear, db = snr_from_powers(1.0, 1.0)
        assert linear == 0.0
        assert np.isneginf(db)

    def test_near_minus_three_db(self):
        _, db = snr_from_powers(1.501, 1.0)
        assert db == pytest.approx(-3.0, abs=0.01)

    def test_rejects_bad_noise_power(self):
        with pytest.raises(ZeroPowerError):
            snr_from_powers(1.0, 0.0)


class TestSnrDbFromPowers:
    def test_matches_scalar_form(self):
        rng = np.random.default_rng(8)
        noise = rng.exponential(1.0, 500)
        received = noise * rng.uniform(0.5, 3.0, 500)
        received[:20] = noise[:20]          # no excess power: -inf
        received[20:40] = 0.0
        got = snr_db_from_powers(received, noise)
        want = [snr_from_powers(x, w)[1] for x, w in zip(received, noise)]
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
        got = ml_fit_frames(sums, noise.sum(axis=1))
        want = [row[keep].mean() for row, keep in zip(p, noise)]
        np.testing.assert_array_equal(got, want)

    def test_guards_in_frame_order(self):
        with pytest.raises(ZeroPowerError, match="ml: .* got 0.0"):
            ml_fit_frames(np.array([1.0, 0.0, 1.0]), np.array([2, 2, 0]))
        with pytest.raises(EmptyNoiseGroupError):
            ml_fit_frames(np.array([1.0, 0.0, 0.0]), np.array([2, 0, 2]))
        with pytest.raises(ValueError, match="aligned"):
            ml_fit_frames(np.ones(2), np.ones(3, dtype=int))


class TestScaleEquivariance:
    @given(st.floats(0.01, 50.0), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_ml_mvu_aic_exact(self, gamma, seed):
        rng = np.random.default_rng(seed)
        p = rng.exponential(1.0, 32)
        m = mask_of(np.arange(32) < 4)
        assert ml_estimate(spectrum(p * gamma), m).value_mw == pytest.approx(
            gamma * ml_estimate(spectrum(p), m).value_mw, rel=1e-12)
        assert aic_estimate(spectrum(p * gamma), 5).value_mw == pytest.approx(
            gamma * aic_estimate(spectrum(p), 5).value_mw, rel=1e-9)


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
