from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisebench import (
    DegenerateSpectrumError,
    PowerSpectrum,
    RofParams,
    build_scenario,
    fisher_separate,
    fisher_signal_rows,
    ideal_separate,
    power_matrix,
    rof_energy_drops,
    rof_energy_drops_rows,
    rof_find_band_width,
    rof_separate,
)
from noisebench.bench import MethodSpec, _counting_power, count_ops
from noisebench.scenario import GroundTruth
from noisebench.separation import FISHER_CHUNK

from conftest import reference_config


def spectrum(values) -> PowerSpectrum:
    return PowerSpectrum(power=np.asarray(values, dtype=float))


def erode_oracle(p: np.ndarray, k: int) -> np.ndarray:
    """Per-position clamped centered window minimum, evaluated directly."""
    n = p.size
    left = k // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - left)
        hi = min(n, i - left + k)
        out[i] = p[lo:hi].min()
    return out


def drops_oracle(p: np.ndarray) -> np.ndarray:
    n = p.size
    energy = [p.sum()] + [erode_oracle(p, k).sum() for k in range(2, n + 1)]
    drops = np.zeros(n - 1)
    for k in range(2, n + 1):
        prev = energy[k - 2]
        if prev > 0:
            drops[k - 2] = 100.0 * (prev - energy[k - 1]) / prev
    return drops


def clip_cascade_oracle(p: np.ndarray) -> np.ndarray:
    """Erosion cascade gathering each new bin through a clipped index per step."""
    n = p.size
    idx = np.arange(n)
    eroded = p.copy()
    energy = np.empty(n + 1)
    energy[1] = p.sum()
    for k in range(2, n + 1):
        left = k // 2
        if k % 2 == 0:
            src = np.clip(idx - left, 0, n - 1)
        else:
            src = np.clip(idx + (k - 1 - left), 0, n - 1)
        np.minimum(eroded, p[src], out=eroded)
        energy[k] = eroded.sum()
    drops = np.zeros(n - 1)
    for k in range(2, n + 1):
        if energy[k - 1] > 0:
            drops[k - 2] = 100.0 * (energy[k - 1] - energy[k]) / energy[k - 1]
    return drops


def fisher_criterion_naive(a: np.ndarray, t: int) -> float:
    """Fisher's J of splitting ascending amplitudes before index t, from the two groups."""
    low, high = a[:t], a[t:]
    num = (low.mean() - high.mean()) ** 2
    den = low.var(ddof=1) + high.var(ddof=1)
    return num / den if den > 0 else (np.inf if num > 0 else -np.inf)


def fisher_scan_naive(a: np.ndarray) -> tuple[int | None, float]:
    """Direct scan of every split of ascending amplitudes; ties go to the larger split."""
    n = a.size
    best_t, best_j = None, -np.inf
    for t in range(2, n - 1):
        j = fisher_criterion_naive(a, t)
        if j >= best_j and j > -np.inf:
            best_t, best_j = t, j
    return best_t, best_j


def synthetic_band(n: int, lo: int, width: int, height: float,
                   floor: float = 1.0) -> PowerSpectrum:
    p = np.full(n, floor)
    p[lo:lo + width] = height
    return spectrum(p)


class TestEnergyDrops:
    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_cascade_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.exponential(1.0, int(rng.integers(8, 40)))
        np.testing.assert_allclose(rof_energy_drops(spectrum(p)), drops_oracle(p),
                                   rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_all_drops_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.exponential(1.0, 48)
        assert (rof_energy_drops(spectrum(p)) >= 0).all()

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            rof_energy_drops(spectrum(np.zeros(8)))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 31, 64, 129, 512])
    def test_matches_clip_cascade_exactly(self, n):
        rng = np.random.default_rng(n)
        for trial in range(4):
            p = rng.exponential(1.0, n)
            if trial % 2:
                p[rng.integers(0, n, size=max(1, n // 4))] = 0.0
            np.testing.assert_array_equal(rof_energy_drops(spectrum(p)),
                                          clip_cascade_oracle(p))

    def test_zero_energy_steps_match_clip_cascade(self):
        # Once the erosion reaches an all-zero spectrum E(k) = 0 and the later
        # drops are defined as 0.
        for p in ([0.0, 0.0, 5.0, 0.0], [0.0, 3.0, 0.0, 0.0, 0.0], [0.0] * 6 + [1.0]):
            p = np.asarray(p)
            np.testing.assert_array_equal(rof_energy_drops(spectrum(p)),
                                          clip_cascade_oracle(p))


    @pytest.mark.parametrize("w", [1, 3, 40])
    @pytest.mark.parametrize("n", [4, 5, 7, 64, 512])
    def test_rows_match_single_rows_exactly(self, n, w):
        rng = np.random.default_rng(1000 * w + n)
        rows = rng.exponential(1.0, (w, n))
        rows[:, rng.integers(0, n, size=max(1, n // 4))] = 0.0
        if w > 1:
            rows[w // 2] = 0.0  # an all-zero row gets an all-zero curve
        got = rof_energy_drops_rows(rows)
        assert got.shape == (w, n - 1)
        for row, curve in zip(rows, got):
            if row.any():
                np.testing.assert_array_equal(curve, rof_energy_drops(spectrum(row)))
            else:
                np.testing.assert_array_equal(curve, np.zeros(n - 1))

    def test_rows_need_four_bins(self):
        with pytest.raises(ValueError, match="4 bins"):
            rof_energy_drops_rows(np.ones((2, 3)))


class TestFindBandWidth:
    def test_synthetic_20db_width_50(self):
        p = synthetic_band(512, 100, 50, 100.0)
        k = rof_find_band_width(p)
        assert abs(k - 50) <= 2

    def test_flat_spectrum_returns_two(self):
        assert rof_find_band_width(spectrum(np.full(64, 2.0))) == 2

    def test_two_band_tracks_wider(self):
        p = np.full(512, 1.0)
        p[50:80] = 100.0
        p[300:360] = 100.0
        k = rof_find_band_width(spectrum(p))
        assert abs(k - 60) <= 2

    def test_matches_brute_force_definition(self):
        # Independent evaluation of the full E/D sequence plus the threshold walk.
        rng = np.random.default_rng(17)
        p = rng.exponential(1.0, 64)
        p[20:30] = 40.0
        drops = drops_oracle(p)
        k = int(np.argmax(drops)) + 2
        threshold = 0.05 * drops.max()
        while k + 1 <= p.size and drops[k + 1 - 2] > threshold:
            k += 1
        assert rof_find_band_width(spectrum(p)) == k

    def test_noisy_floor_20db_width_50(self):
        rng = np.random.default_rng(99)
        ks = []
        for _ in range(20):
            p = rng.exponential(1.0, 512)
            w = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) / np.sqrt(2)
            p[100:150] = np.abs(10.0 + w) ** 2
            ks.append(rof_find_band_width(spectrum(p)))
        # Noise on the floor smears the collapse; measured spread over seeds.
        assert 48 <= min(ks) and max(ks) <= 66
        assert abs(np.mean(ks) - 50) <= 6


class TestRofSeparate:
    def test_noise_only_rarely_marks_signal(self):
        rng = np.random.default_rng(4)
        marked = 0
        for _ in range(400):
            mask = rof_separate(spectrum(rng.exponential(1.0, 512)))
            if mask.is_signal.any():
                marked += 1
        assert marked / 400 <= 0.05

    def test_reference_scenario_mask_quality(self):
        # Separation runs on the block-averaged periodogram (per-frame spectra
        # fluctuate too much for the bandwidth search at 0 dB).
        covered, spilled = [], []
        for seed in range(25):
            block, truth = build_scenario(reference_config(seed=seed))
            avg = power_matrix(block).mean(axis=0)
            mask = rof_separate(PowerSpectrum(power=avg))
            true_mask = truth.signal_bin_mask[0]
            covered.append((mask.is_signal & true_mask).sum() / true_mask.sum())
            spilled.append((mask.is_signal & ~true_mask).sum() / (~true_mask).sum())
        assert np.mean(covered) >= 0.95
        assert np.mean(spilled) <= 0.10

    def test_two_bands_detected_as_two_runs(self):
        rng = np.random.default_rng(12)
        p = rng.exponential(1.0, 512)
        p[50:80] += 50.0
        p[300:360] += 50.0
        mask = rof_separate(spectrum(p))
        assert len(mask.aux["runs"]) == 2
        (a0, a1), (b0, b1) = mask.aux["runs"]
        assert a0 <= 50 and a1 >= 78
        assert b0 <= 300 and b1 >= 358

    @given(st.integers(0, 100), st.floats(0.01, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariant(self, seed, gamma):
        rng = np.random.default_rng(seed)
        p = rng.exponential(1.0, 128)
        p[30:60] += 30.0
        base = rof_separate(spectrum(p))
        scaled = rof_separate(spectrum(p * gamma))
        np.testing.assert_array_equal(base.is_signal, scaled.is_signal)
        assert base.aux["K"] == scaled.aux["K"]

    def test_monotone_ramp_degenerates(self):
        # Strictly rising spectrum: one full-width run, every bin signal.
        with pytest.raises(DegenerateSpectrumError):
            rof_separate(spectrum(np.linspace(1.0, 50.0, 64)))

    def test_precomputed_drops_give_the_same_mask(self):
        rng = np.random.default_rng(21)
        p = rng.exponential(1.0, 128)
        p[40:70] += 20.0
        want = rof_separate(spectrum(p))
        got = rof_separate(spectrum(p), drops=rof_energy_drops(spectrum(p)))
        np.testing.assert_array_equal(got.is_signal, want.is_signal)
        assert got.aux["K"] == want.aux["K"]
        assert got.aux["runs"] == want.aux["runs"]

    def test_diagnostics_shapes(self):
        mask = rof_separate(spectrum(np.random.default_rng(1).exponential(1.0, 64)))
        assert mask.aux["d_curve"].shape == (63,)
        assert mask.aux["smoothed"].shape == (64,)
        assert 2 <= mask.aux["K"] <= 64


class TestFisherSeparate:
    def test_isolates_clear_cluster(self):
        mask = fisher_separate(spectrum(np.array([1.0, 1.0, 1.0, 100.0, 100.0])))
        np.testing.assert_array_equal(mask.is_signal, [False, False, False, True, True])

    def test_constant_spectrum_all_noise(self):
        mask = fisher_separate(spectrum(np.full(16, 3.0)))
        assert not mask.is_signal.any()

    def test_noise_only_biases_ml_low(self):
        # The high-amplitude tail lands in the signal group, so the noise-group
        # mean runs below the true power on average.
        rng = np.random.default_rng(6)
        noise_means = []
        for _ in range(200):
            p = rng.exponential(1.0, 256)
            mask = fisher_separate(spectrum(p))
            noise_means.append(p[mask.noise_bins].mean())
        assert np.mean(noise_means) < 1.0 - 0.01

    def fisher_oracle(self, p: np.ndarray) -> int | None:
        return fisher_scan_naive(np.sort(np.sqrt(p), kind="stable"))[0]

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_split_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 64))
        p = rng.exponential(1.0, n)
        if rng.random() < 0.7:
            width = int(rng.integers(2, max(3, n // 3)))
            p[:width] += rng.uniform(5, 50)
        mask = fisher_separate(spectrum(p))
        assert mask.aux["split"] == self.fisher_oracle(p)

    @pytest.mark.parametrize("n", [16, 17, 31, 64, 100, 257, 512])
    def test_counting_block_split_matches_direct_scan(self, n):
        # count_ops books the direct scan but reads the split off the prefix
        # scan; on the counting block's last frame both must pick the same split.
        p = _counting_power(n).power
        assert fisher_separate(spectrum(p)).aux["split"] == self.fisher_oracle(p)

    def test_counted_scan_books_direct_scan(self):
        # ML(fisher)'s count less the frame's FFT and power spectrum and the
        # mean over the noise bins is the direct scan's.
        n = 48
        noise = int(fisher_separate(_counting_power(n)).noise_bins.sum())
        counts = count_ops(MethodSpec("ML", "fisher"), n).counts
        fft = round(n * np.log2(n))
        splits = n - 3
        assert counts.adds - fft - n - (noise - 1) == 4 * n * splits
        assert counts.muls - fft - 3 * n - 1 == 6 * splits
        assert counts.cmps == int(n * np.log2(n)) + splits
        assert counts.transcendental == n

    def test_signal_group_is_high_amplitudes(self):
        rng = np.random.default_rng(13)
        p = rng.exponential(1.0, 64)
        p[10:20] += 40.0
        mask = fisher_separate(spectrum(p))
        assert mask.is_signal.any()
        assert p[mask.is_signal].min() >= p[mask.noise_bins].max()


def amplitude_rows(n: int):
    """Rows of n amplitudes: quantised (ties at every split), constant (all-zero
    too) or continuous."""
    return st.one_of(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.integers(0, 3).map(lambda v: [v] * n),
        st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n),
    )


def fisher_rows_cases():
    return st.integers(4, 24).flatmap(
        lambda n: st.lists(amplitude_rows(n), min_size=1, max_size=6))


class TestFisherSignalRows:
    @given(fisher_rows_cases())
    @example([[0, 1, 1, 2]])            # n = 4, one split, ties beside it
    @example([[1, 1, 1, 1], [0, 0, 0, 0], [0, 2, 2, 2]])
    @example([[2, 0, 2, 0, 1, 2, 1, 0]])
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_scan(self, rows):
        amplitude = np.array(rows, dtype=float)
        signal, split, criterion = fisher_signal_rows(amplitude**2)
        for i, amp in enumerate(np.sqrt(amplitude**2)):
            if amp.min() == amp.max():
                # No split on a constant (or all-zero) row: everything is noise.
                assert split[i] == -1 and np.isnan(criterion[i])
                assert not signal[i].any()
                continue
            order = np.argsort(amp, kind="stable")
            a = amp[order]
            j = np.array([fisher_criterion_naive(a, t) for t in range(2, a.size - 1)])
            best = j.max()
            # The chosen split is optimal up to rounding of the criterion;
            # where the optimum is clear it is the naive scan's own split.
            near = np.isclose(j, best, rtol=1e-9, atol=0.0) | (j == best)
            candidates = np.flatnonzero(near) + 2
            assert split[i] in candidates
            if candidates.size == 1:
                assert split[i] == fisher_scan_naive(a)[0]
            assert criterion[i] == pytest.approx(best, rel=1e-9)
            # Signal bins are the high group in stable order, ties included.
            want = np.zeros(amp.size, dtype=bool)
            want[order[split[i]:]] = True
            np.testing.assert_array_equal(signal[i], want)

    def test_rows_independent_of_chunking(self):
        rng = np.random.default_rng(21)
        m, n = 3 * FISHER_CHUNK + 5, 40
        power = rng.exponential(1.0, (m, n))
        power[::7] = np.round(power[::7] * 2) ** 2     # quantised rows with ties
        power[5] = 0.0
        power[6] = 4.0
        power[::11, :8] += 30.0
        signal, split, criterion = fisher_signal_rows(power)
        for i in range(m):
            one = fisher_signal_rows(power[i:i + 1])
            np.testing.assert_array_equal(signal[i], one[0][0])
            assert split[i] == one[1][0]
            np.testing.assert_array_equal(criterion[i], one[2][0])
        assert (split == -1).sum() >= 2

    def test_fisher_separate_is_one_row(self):
        p = np.array([4.0, 1.0, 1.0, 9.0, 1.0, 16.0, 9.0, 0.0])
        mask = fisher_separate(spectrum(p))
        signal, split, criterion = fisher_signal_rows(p[None, :])
        np.testing.assert_array_equal(mask.is_signal, signal[0])
        assert mask.aux == {"split": int(split[0]), "criterion": float(criterion[0])}

    def test_needs_four_bins(self):
        with pytest.raises(ValueError, match="4 bins"):
            fisher_signal_rows(np.ones((2, 3)))


class TestIdealSeparate:
    def test_no_signal_frame(self):
        truth = GroundTruth(noise_power_mw=np.ones(2), true_snr_db=np.full(2, -np.inf),
                            signal_bin_mask=np.zeros((2, 8), dtype=bool))
        assert not ideal_separate(truth, 0).is_signal.any()

    def test_reference_band(self):
        _, truth = build_scenario(reference_config())
        mask = ideal_separate(truth, 0)
        assert mask.is_signal[256:384].all()
        assert mask.is_signal.sum() == 128

    def test_out_of_range_frame(self):
        _, truth = build_scenario(reference_config())
        with pytest.raises(IndexError):
            ideal_separate(truth, truth.n_frames)

    def test_fully_occupied_frame_rejected(self):
        truth = GroundTruth(noise_power_mw=np.ones(1), true_snr_db=np.zeros(1),
                            signal_bin_mask=np.ones((1, 8), dtype=bool))
        with pytest.raises(DegenerateSpectrumError):
            ideal_separate(truth, 0)


class TestRofParams:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RofParams(lambda1_pct=0.0)
        with pytest.raises(ValueError):
            RofParams(lambda2_fraction=1.0)
