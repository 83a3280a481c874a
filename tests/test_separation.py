from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisebench import (
    DegenerateSpectrumError,
    PowerSpectrum,
    RofParams,
    SeparationMask,
    build_scenario,
    fisher_separate,
    fisher_signal_rows,
    ideal_separate,
    power_matrix,
    rof_energy_drops,
    rof_find_band_width,
    rof_separate,
    rof_signal_rows,
)
from noisebench import separation
from noisebench.bench import MethodSpec, count_ops
from noisebench.scenario import GroundTruth, scenario_config_from_file
from noisebench.separation import FISHER_CHUNK, ROF_CHUNK

from conftest import counting_power, raised, reference_config


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


def rof_decision_naive(p: np.ndarray, drops: np.ndarray, params: RofParams
                       ) -> tuple[np.ndarray, int, np.ndarray, list[tuple[int, int]]]:
    """One spectrum's ROF decision step by step: mask, K, smoothed spectrum, bands.

    The bandwidth walk, the trailing K-point mean (expanding at the left
    edge) and the scan for strictly rising runs, one bin at a time.
    """
    n = p.size
    k = int(np.argmax(drops)) + 2
    threshold = (params.lambda1_pct / 100.0) * float(drops.max())
    while k + 1 <= n and drops[k + 1 - 2] > threshold:
        k += 1
    cs = np.concatenate([[0.0], np.cumsum(p)])
    idx = np.arange(n)
    lo = np.maximum(0, idx - k + 1)
    smoothed = (cs[idx + 1] - cs[lo]) / (idx + 1 - lo)
    diff = np.diff(smoothed)
    mask = np.zeros(n, dtype=bool)
    bands = []
    i = 0
    while i < diff.size:
        if diff[i] > 0:
            j = i
            while j + 1 < diff.size and diff[j + 1] > 0:
                j += 1
            if j - i + 1 > params.lambda2_fraction * n:
                mask[i:j + 2] = True
                bands.append((i, j + 2))
            i = j
        i += 1
    return mask, k, smoothed, bands


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
        got = separation._energy_drops(separation._rof_cascade(rows)[0])
        assert got.shape == (w, n - 1)
        for row, curve in zip(rows, got):
            if row.any():
                np.testing.assert_array_equal(curve, rof_energy_drops(spectrum(row)))
            else:
                np.testing.assert_array_equal(curve, np.zeros(n - 1))

    def test_rows_need_four_bins(self):
        with pytest.raises(ValueError, match="4 bins"):
            separation._rof_cascade(np.ones((2, 3)))


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

    def test_diagnostics_shapes(self):
        mask = rof_separate(spectrum(np.random.default_rng(1).exponential(1.0, 64)))
        assert mask.aux["d_curve"].shape == (63,)
        assert mask.aux["smoothed"].shape == (64,)
        assert 2 <= mask.aux["K"] <= 64


def rof_rows(n: int):
    """Rows of n bin powers: continuous, quantised (ties), flat (all-zero too),
    ramps and a band over quantised noise."""
    return st.one_of(
        st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.integers(0, 3).map(lambda v: [v] * n),
        st.tuples(st.floats(0.5, 50.0), st.floats(0.5, 50.0)).map(
            lambda ends: np.linspace(*ends, n).tolist()),
        st.tuples(st.lists(st.integers(1, 4), min_size=n, max_size=n),
                  st.integers(0, n - 1), st.integers(1, n), st.integers(5, 60)).map(
            lambda c: [v + c[3] * (c[1] <= i < c[1] + c[2]) for i, v in enumerate(c[0])]),
    )


def rof_cases():
    return st.tuples(
        st.integers(4, 48).flatmap(lambda n: st.lists(rof_rows(n), min_size=1, max_size=5)),
        st.builds(RofParams, st.sampled_from([1.0, 5.0, 50.0, 95.0]),
                  st.sampled_from([0.01, 0.05, 0.3])),
    )


def rof_expected(p: np.ndarray, params: RofParams):
    """The oracle's decision on one row, or the message rof_separate raises."""
    if not p.any():
        return "all-zero power spectrum"
    drops = rof_energy_drops(spectrum(p))
    mask, k, smoothed, bands = rof_decision_naive(p, drops, params)
    if mask.all():
        return "ROF marked every bin as signal"
    return mask, k, drops, smoothed, bands


class TestRofSignalRows:
    @given(rof_cases())
    @example(([[0, 1, 1, 2]], RofParams()))                       # n = 4
    @example(([[1.0, 2.0, 3.0, 4.0, 5.0]], RofParams()))          # a ramp: all signal
    @example(([[0, 0, 0, 0], [1, 3, 0, 2]], RofParams()))         # all zero first
    @example(([[2, 2, 2, 2, 2, 2], [0, 1, 2, 3, 2, 1]], RofParams(50.0, 0.3)))
    @settings(max_examples=120, deadline=None)
    def test_rows_match_one_row_oracle(self, case):
        rows, params = case
        spectra = np.array(rows, dtype=float)
        expected = [rof_expected(p, params) for p in spectra]
        for p, want in zip(spectra, expected):
            if isinstance(want, str):
                with pytest.raises(DegenerateSpectrumError, match=want):
                    rof_separate(spectrum(p), params)
                continue
            mask = rof_separate(spectrum(p), params)
            np.testing.assert_array_equal(mask.is_signal, want[0])
            assert mask.aux["K"] == want[1]
            np.testing.assert_array_equal(mask.aux["d_curve"], want[2])
            np.testing.assert_array_equal(mask.aux["smoothed"], want[3])
            assert mask.aux["runs"] == want[4]
        bad = [i for i, want in enumerate(expected) if isinstance(want, str)]
        if bad:
            with pytest.raises(DegenerateSpectrumError, match=expected[bad[0]]):
                raised(rof_signal_rows(spectra, params))
        good = spectra[:bad[0]] if bad else spectra
        signal, k, _, _ = rof_signal_rows(good, params)
        for row, width, want in zip(signal, k, expected):
            np.testing.assert_array_equal(row, want[0])
            assert width == want[1]

    @pytest.mark.parametrize("chunk", [1, 7, ROF_CHUNK])
    def test_rows_independent_of_chunking(self, monkeypatch, chunk):
        rng = np.random.default_rng(31)
        spectra = rng.exponential(1.0, (2 * ROF_CHUNK + 3, 64))
        spectra[::3, 20:36] += 15.0
        spectra[::5] = np.round(spectra[::5])           # quantised rows with ties
        spectra[7] = 2.0
        monkeypatch.setattr(separation, "ROF_CHUNK", chunk)
        got = rof_signal_rows(spectra)[0]
        for row, p in zip(got, spectra):
            np.testing.assert_array_equal(row, rof_separate(spectrum(p)).is_signal)
        assert got[::3].any(axis=1).all()

    @pytest.mark.parametrize("chunk", [1, 2, ROF_CHUNK])
    @pytest.mark.parametrize("order, message", [
        (("ramp", "zero"), "ROF marked every bin as signal"),
        (("zero", "ramp"), "all-zero power spectrum"),
    ])
    def test_first_degenerate_row_raises(self, monkeypatch, chunk, order, message):
        rng = np.random.default_rng(8)
        spectra = rng.exponential(1.0, (6, 32))
        bad = {"ramp": np.linspace(1.0, 50.0, 32), "zero": np.zeros(32)}
        spectra[3], spectra[4] = bad[order[0]], bad[order[1]]
        monkeypatch.setattr(separation, "ROF_CHUNK", chunk)
        with pytest.raises(DegenerateSpectrumError, match=message):
            raised(rof_signal_rows(spectra))
        assert rof_signal_rows(spectra[:3])[0].shape == (3, 32)

    def test_rows_need_four_bins(self):
        with pytest.raises(ValueError, match="4 bins"):
            rof_signal_rows(np.ones((2, 3)))


def early_stop_row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One row of n bin powers of the given kind, drawn from rng."""
    averaged = rng.exponential(1.0, (16, n)).mean(axis=0)  # min well above 0: stops early
    if kind == "averaged":
        return averaged
    if kind == "band":                                       # a late drop from a wide band
        lo, width = rng.integers(0, n), rng.integers(1, n + 1)
        averaged[lo:lo + width] += rng.choice([0.5, 3.0, 50.0])
        return averaged
    if kind == "ties":                                       # quantised, min positive
        return np.round(4.0 * averaged) + 1.0
    if kind == "zeros":                                      # min 0: the full cascade
        averaged[rng.integers(0, n, size=rng.integers(1, 4))] = 0.0
        return averaged
    if kind == "constant":
        return np.full(n, rng.choice([0.0, 1.0, 7.5]))
    if kind == "alternating":                                # near-tied drops
        return np.tile([1.0, 2.0], n)[:n] * (1.0 + 1e-12 * rng.integers(0, 3, n))
    assert kind == "near-flat"                               # drops at round-off level
    return 3.0 + 1e-13 * rng.integers(0, 4, n)


EARLY_STOP_KINDS = ("averaged", "band", "ties", "zeros", "constant", "alternating", "near-flat")


@st.composite
def early_stop_cases(draw):
    n = draw(st.integers(4, 600))
    w = draw(st.integers(1, 2 * ROF_CHUNK + 3))
    kinds = draw(st.lists(st.sampled_from(EARLY_STOP_KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.stack([early_stop_row(kinds[i % len(kinds)], n, rng) for i in range(w)])
    return rows, draw(st.sampled_from([0.5, 5.0, 50.0, 95.0]))


def window_means(power: np.ndarray, window: int = 100) -> np.ndarray:
    """The trailing window means ML(rof) separates, one per frame."""
    return np.stack([power[max(0, f - window + 1):f + 1].mean(axis=0)
                     for f in range(power.shape[0])])


@pytest.fixture(scope="module")
def reference_window_means():
    return window_means(power_matrix(build_scenario(reference_config(seed=0))[0]))


def assert_early_stop_exact(rows: np.ndarray, lambda1_pct: float) -> np.ndarray:
    """The early-stopping cascade against the full curve; returns each row's step count."""
    full = separation._rof_cascade(rows)[0]
    energy, k, peak = separation._rof_cascade(rows, lambda1_pct)
    full_drops = separation._energy_drops(full)
    want = separation._rof_band_widths(full_drops, lambda1_pct)[0]
    np.testing.assert_array_equal(k, want)
    np.testing.assert_array_equal(peak, np.argmax(full_drops, axis=1))
    computed = ~np.isnan(energy)
    steps = computed.sum(axis=0)
    # Each row's energies are a prefix of its full curve, bit for bit.
    np.testing.assert_array_equal(computed, np.arange(rows.shape[1])[:, None] < steps)
    np.testing.assert_array_equal(energy[computed], full[computed])
    assert (steps[rows.min(axis=1) <= 0] == rows.shape[1]).all()
    params = RofParams(lambda1_pct=lambda1_pct)
    try:
        expected = raised(separation._rof_rows(rows, want, params))[0]
    except DegenerateSpectrumError as exc:
        with pytest.raises(DegenerateSpectrumError, match=str(exc)):
            raised(rof_signal_rows(rows, params))
    else:
        signal, k_rows, peak_rows = raised(rof_signal_rows(rows, params))
        np.testing.assert_array_equal(signal, expected)
        np.testing.assert_array_equal(k_rows, want)
        np.testing.assert_array_equal(peak_rows, peak)
    return steps


def assert_decreases_bounded_by_variation(rows: np.ndarray) -> None:
    """Every energy decrease of the full cascade after step k is at most the
    larger variation of the rows eroded by step k, plus _rof_decided's slack."""
    n = rows.shape[1]
    energy = separation._rof_cascade(rows)[0]
    decrease = energy[:-1] - energy[1:]  # row j: E(j + 1) - E(j + 2), step j + 2's
    later = np.maximum.accumulate(decrease[::-1], axis=0)[::-1]  # row j: max over steps >= j + 2
    eroded = np.array(rows, dtype=np.float64)
    for k in range(1, n):
        step = np.diff(eroded, axis=1)
        variation = np.maximum(np.maximum(step, 0.0).sum(axis=1), np.maximum(-step, 0.0).sum(axis=1))
        slack = 2.0 * n * np.finfo(np.float64).eps * energy[k - 1]
        assert (later[k - 1] <= variation + slack).all(), k
        # Step k + 1 takes each bin's minimum with its left (k + 1 even) or
        # right neighbour, edges replicated; its energies are the cascade's.
        if (k + 1) % 2 == 0:
            near = np.concatenate([eroded[:, :1], eroded[:, :-1]], axis=1)
        else:
            near = np.concatenate([eroded[:, 1:], eroded[:, -1:]], axis=1)
        eroded = np.minimum(eroded, near)
        np.testing.assert_array_equal(np.add.reduce(eroded, axis=1), energy[k])


class TestRofEarlyStop:
    @given(early_stop_cases())
    @settings(max_examples=60, deadline=None)
    def test_k_and_masks_match_full_cascade(self, case):
        assert_early_stop_exact(*case)

    @pytest.mark.parametrize("seed", [261, 262, 263])
    def test_round_off_rows_match_full_cascade(self, seed):
        # Bins a few ulps apart: every computed drop is the rounding of the
        # energy sums, which only _rof_decided's slack covers (seed 262 gets a
        # wrong K without it).
        rng = np.random.default_rng(seed)
        n = int(rng.integers(33, 600))
        scale, base = 10.0 ** rng.uniform(-2, 2), rng.uniform(1, 2)
        ulp = base * np.finfo(np.float64).eps
        rows = np.stack([base + ulp * rng.integers(0, rng.integers(2, 64), n) for _ in range(8)])
        for lambda1_pct in (0.5, 5.0):
            assert_early_stop_exact(rows * scale, lambda1_pct)
        assert_decreases_bounded_by_variation(rows * scale)

    @pytest.mark.parametrize("n", [64, 200, 512])
    def test_edge_ramps_match_full_cascade(self, n):
        # A falling ramp's energy drops only at odd steps, by its down-variation,
        # and a rising one's only at even steps, by its up-variation.
        ramps = np.stack([np.arange(n, 0, -1.0), np.arange(1.0, n + 1)])
        for lambda1_pct in (0.5, 5.0, 50.0):
            assert_early_stop_exact(ramps, lambda1_pct)
        assert_decreases_bounded_by_variation(ramps)

    @given(early_stop_cases())
    @settings(max_examples=60, deadline=None)
    def test_decreases_bounded_by_variation(self, case):
        assert_decreases_bounded_by_variation(case[0])

    @pytest.mark.parametrize("n", [16, 17, 31, 64, 100, 257, 512, 1024, 2048, 4096, 4097])
    def test_counting_frame_decreases_bounded_by_variation(self, n):
        assert_decreases_bounded_by_variation(counting_power(n).power[None, :])

    def test_reference_windows_match_full_cascade(self, reference_window_means):
        for lambda1_pct in (5.0, 0.5, 50.0):
            assert_early_stop_exact(reference_window_means, lambda1_pct)

    def test_switching_trace_windows_match_full_cascade(self, switching_trace_config):
        block = build_scenario(scenario_config_from_file(switching_trace_config))[0]
        assert_early_stop_exact(window_means(power_matrix(block)), 5.0)

    def test_reference_windows_stop_early(self, reference_window_means):
        # A cascade that ran every row to step N - 1 would fail this.
        n = reference_window_means.shape[1]
        steps = assert_early_stop_exact(reference_window_means, RofParams().lambda1_pct)
        assert np.median(steps) <= n // 2
        assert (steps < n).mean() > 0.9
        assert steps.max() <= 192  # every row leaves by the sixth check (measured: 160)


def tone_rows(w: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Periodograms of w tones, each at an off-bin frequency and its own SNR, in white noise."""
    t = np.arange(n)
    freq = rng.uniform(0, n, (w, 1))
    amplitude = 10.0 ** (rng.uniform(-10.0, 30.0, (w, 1)) / 20.0)
    noise = (rng.standard_normal((w, n)) + 1j * rng.standard_normal((w, n))) / np.sqrt(2)
    return np.abs(np.fft.fft(amplitude * np.exp(2j * np.pi * freq * t / n) + noise)) ** 2 / n


class TestRofRowDecisions:
    """rof_signal_rows' K and drop-curve peak, which the counting table reads
    off the early-stopped cascade, against the one-row full curve."""

    LAMBDA1 = (1.0, 5.0, 20.0, 50.0, 90.0)

    @staticmethod
    def assert_full_curve_decisions(rows: np.ndarray, params: RofParams) -> None:
        _, k, peak, _ = rof_signal_rows(rows, params)
        for row, width, top in zip(rows, k, peak):
            assert width == rof_separate(spectrum(row), params).aux["K"]
            assert top == np.argmax(rof_energy_drops(spectrum(row)))

    @pytest.mark.parametrize("n", [16, 17, 31, 64, 100, 257, 512, 1024, 2048, 4096, 4097])
    def test_counting_frames(self, n):
        p = counting_power(n).power[None, :]
        for lambda1_pct in self.LAMBDA1:
            self.assert_full_curve_decisions(p, RofParams(lambda1_pct=lambda1_pct))

    @pytest.mark.parametrize("n", [2048, 4096, 4097])
    def test_counting_frames_stop_early(self, n):
        # Measured steps: 64-256 at 2048, 96-192 at 4096, 128-192 at 4097; a
        # bound that stays near 100% for a row with a low minimum runs to N.
        p = counting_power(n).power[None, :]
        for lambda1_pct in self.LAMBDA1:
            steps = (~np.isnan(separation._rof_cascade(p, lambda1_pct)[0])).sum()
            assert steps <= 256, lambda1_pct

    def test_tone_chunk(self):
        rows = tone_rows(ROF_CHUNK + 5, 256, np.random.default_rng(29))
        steps = (~np.isnan(separation._rof_cascade(rows, 5.0)[0])).sum(axis=0)
        assert (steps < 256).mean() > 0.5  # most rows leave the cascade early
        for lambda1_pct in self.LAMBDA1:
            self.assert_full_curve_decisions(rows, RofParams(lambda1_pct=lambda1_pct))

    def test_zero_minimum_runs_every_step(self):
        rows = tone_rows(1, 200, np.random.default_rng(5))
        rows[0, 77] = 0.0
        for lambda1_pct in self.LAMBDA1:
            energy = separation._rof_cascade(rows, lambda1_pct)[0]
            assert not np.isnan(energy).any()  # E(1..N): all N - 1 erosion steps
            self.assert_full_curve_decisions(rows, RofParams(lambda1_pct=lambda1_pct))


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
        p = counting_power(n).power
        assert fisher_separate(spectrum(p)).aux["split"] == self.fisher_oracle(p)

    def test_counted_scan_books_direct_scan(self):
        # ML(fisher)'s count less the frame's FFT and power spectrum and the
        # mean over the noise bins is the direct scan's.
        n = 48
        noise = int(fisher_separate(counting_power(n)).noise_bins.sum())
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
    @example([[0, 0, 3.0625, 3.0635856462404947]])   # a tight high group
    @example([[0, 0, 6.921875, 6.923042012744874]])
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


class TestSeparationMask:
    @pytest.mark.parametrize("is_signal, method, message", [
        (np.zeros((2, 4), dtype=bool), "ideal", "is_signal must be one-dimensional"),
        (np.zeros(4, dtype=bool), "oracle", "unknown separation method 'oracle'"),
    ], ids=["2-D", "unknown-method"])
    def test_rejects_bad_masks(self, is_signal, method, message):
        with pytest.raises(ValueError) as exc:
            SeparationMask(is_signal=is_signal, method=method)
        assert str(exc.value) == message

    def test_copies_only_writeable_input(self):
        values = np.array([True, False, False, True])
        mask = SeparationMask(is_signal=values, method="fisher")
        assert not np.shares_memory(mask.is_signal, values)
        assert not mask.is_signal.flags.writeable
        values[1] = True
        np.testing.assert_array_equal(mask.is_signal, [True, False, False, True])
        values.setflags(write=False)
        assert SeparationMask(is_signal=values, method="fisher").is_signal is values

    def test_ideal_mask_is_the_ground_truth_row(self):
        _, truth = build_scenario(reference_config())
        mask = ideal_separate(truth, 3).is_signal
        assert np.shares_memory(mask, truth.signal_bin_mask)
        np.testing.assert_array_equal(mask, truth.signal_bin_mask[3])


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
