from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from noisebench import (
    EstimateSeries,
    MethodSpec,
    PowerSpectrum,
    aic_estimate,
    build_scenario,
    count_ops,
    count_ops_table,
    mean_bias_db,
    power_matrix,
    rmse_db,
    run_benchmark,
    run_scenario,
    std_dev_db,
    write_report_csv,
    write_series_csv,
)
from noisebench import bench, estimators
from noisebench.bench import ground_truths, sample_std
from noisebench.scenario import with_seed

from conftest import counting_block_per_frame, noise_only_config, reference_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ism_benchmark.json"


def make_series(snr_est_db, snr_true_db=None, method="ML", separation="ideal"):
    n = len(snr_est_db)
    true = np.zeros(n) if snr_true_db is None else np.asarray(snr_true_db, float)
    return EstimateSeries(
        scenario_id="t", seed=0, method=method, separation=separation,
        frame_index=np.arange(n),
        noise_power_est_mw=np.ones(n),
        noise_power_true_mw=np.ones(n),
        snr_est_db=np.asarray(snr_est_db, dtype=float),
        snr_true_db=true,
    )


class TestMethodSpec:
    def test_ml_requires_separation(self):
        with pytest.raises(ValueError, match="separation"):
            MethodSpec("ML", "none")

    def test_aic_rejects_separation(self):
        with pytest.raises(ValueError, match="its own"):
            MethodSpec("AIC", "rof")

    def test_labels(self):
        assert MethodSpec("MVU", "rof").label == "MVU(rof)"
        assert MethodSpec("CBE").label == "CBE"

    @pytest.mark.parametrize("params, message", [
        ({"gridsize": 7}, "unknown method param(s): gridsize"),
        ({"grid_size": 7, "window": 20, "blnd": False}, "unknown method param(s): blnd, window"),
        ({"occupancy_from": "AIC"}, "occupancy_from must be 'truth' or 'aic', got 'AIC'"),
        ({"occupancy_from": None}, "occupancy_from must be 'truth' or 'aic', got None"),
        ({"occupied_fraction": 1.0}, "occupied_fraction must lie in [0, 1)"),
        ({"occupied_fraction": -0.25}, "occupied_fraction must lie in [0, 1)"),
    ])
    def test_params_checked(self, params, message):
        with pytest.raises(ValueError) as exc:
            MethodSpec("CBE", params=params)
        assert str(exc.value) == message

    def test_known_params_accepted(self):
        MethodSpec("CBE", params={"occupancy_from": "truth", "occupied_fraction": 0.0,
                                  "grid_size": 7, "window_frames": 20, "blind": False})
        MethodSpec("MVU", "rof", params={"lambda1_pct": 60.0, "lambda2_fraction": 0.2})

    def test_params_read_only_after_checks(self):
        given = {"grid_size": 7}
        spec = MethodSpec("CBE", params=given)
        with pytest.raises(TypeError):
            spec.params["gridsize"] = 7
        with pytest.raises(TypeError):
            spec.params["grid_size"] = 9
        given["gridsize"] = 7  # the spec holds its own copy
        assert dict(spec.params) == {"grid_size": 7}
        assert spec == MethodSpec("CBE", params={"grid_size": 7})

    def test_specs_hash_and_key_dicts(self):
        spec = MethodSpec("CBE", params={"grid_size": 7})
        same = MethodSpec("CBE", params={"grid_size": 7})
        assert hash(spec) == hash(same)
        table = {spec: "cbe7", MethodSpec("CBE"): "cbe", MethodSpec("MVU", "rof"): "mvu"}
        assert table[same] == "cbe7" and table[MethodSpec("CBE")] == "cbe"
        assert len(table) == 3 and spec != MethodSpec("CBE")
        with pytest.raises(TypeError):
            spec.params["grid_size"] = 9

    @pytest.mark.parametrize("estimator, separation, params, message", [
        ("MVU", "ideal", {"window_frames": 0}, "window_frames must be an integer >= 1, got 0"),
        ("MVU", "ideal", {"window_frames": -5}, "window_frames must be an integer >= 1, got -5"),
        ("MVU", "ideal", {"window_frames": 2.5}, "window_frames must be an integer >= 1, got 2.5"),
        ("MVU", "ideal", {"window_frames": True},
         "window_frames must be an integer >= 1, got True"),
        ("CBE", "none", {"grid_size": 1}, "grid_size must be an integer >= 2, got 1"),
        ("CBE", "none", {"grid_size": 7.0}, "grid_size must be an integer >= 2, got 7.0"),
        ("CBE", "none", {"grid_size": True}, "grid_size must be an integer >= 2, got True"),
        ("MMSE", "none", {"blind": "false"}, "blind must be a bool, got 'false'"),
        ("MMSE", "none", {"blind": 0}, "blind must be a bool, got 0"),
        ("ML", "rof", {"lambda1_pct": 0.0}, "lambda1_pct must lie in (0, 100)"),
        ("MVU", "rof", {"lambda2_fraction": 1.0}, "lambda2_fraction must lie in (0, 1)"),
    ])
    def test_bad_param_values_rejected_on_build(self, estimator, separation, params, message):
        with pytest.raises(ValueError) as exc:
            MethodSpec(estimator, separation, params=params)
        assert str(exc.value) == message

    def test_numpy_integers_accepted(self):
        spec = MethodSpec("CBE", params={"window_frames": np.int64(20), "grid_size": np.int32(7)})
        assert spec.params["window_frames"] == 20 and spec.params["grid_size"] == 7

    def test_rof_params_default_to_rof_params(self):
        from noisebench import RofParams
        assert bench._rof_params(MethodSpec("ML", "rof")) == RofParams()
        tuned = MethodSpec("ML", "rof", params={"lambda2_fraction": 0.2})
        assert bench._rof_params(tuned) == RofParams(lambda2_fraction=0.2)


class TestMetrics:
    def test_perfect_series_has_zero_rmse(self):
        s = make_series(np.full(8, 3.0), np.full(8, 3.0))
        assert rmse_db(s) == 0.0

    def test_constant_offset(self):
        s = make_series(np.full(8, -2.0), np.full(8, -3.0))
        assert rmse_db(s) == pytest.approx(1.0)
        assert mean_bias_db(s) == pytest.approx(1.0)

    def test_alternating_errors(self):
        s = make_series([1.5, 0.5] * 4, np.ones(8))
        assert rmse_db(s) == pytest.approx(0.5)
        assert mean_bias_db(s) == pytest.approx(0.0)

    def test_errors_follow_the_series_own_true_snr(self):
        # Each entry is compared with the true SNR the series carries for it.
        s = make_series([1.0, 1.0, 1.0, 1.0], [0.0, 2.0, 1.0, 1.0])
        assert rmse_db(s) == pytest.approx(np.sqrt(0.5))
        assert mean_bias_db(s) == pytest.approx(0.0)

    def test_no_finite_true_snr_raises(self):
        s = make_series([1.0, 2.0], [-np.inf, -np.inf])
        for metric in (rmse_db, mean_bias_db):
            with pytest.raises(ValueError, match="no frames with finite true SNR"):
                metric(s)

    def test_no_excess_power_entry_makes_rmse_infinite(self):
        s = make_series([1.0, -np.inf, 0.0], np.zeros(3))
        assert rmse_db(s) == np.inf
        assert mean_bias_db(s) == -np.inf

    def test_constant_series_zero_std(self):
        assert std_dev_db(make_series(np.full(6, 2.0))) == 0.0

    def test_two_point_std(self):
        assert sample_std(np.array([0.0, 2.0])) == pytest.approx(np.sqrt(2.0))

    def test_std_needs_two_entries(self):
        with pytest.raises(ValueError):
            std_dev_db(make_series([1.0]))

    def test_infinite_true_snr_excluded(self):
        s = make_series([1.0, 2.0, 3.0], [0.0, -np.inf, 0.0])
        assert rmse_db(s) == pytest.approx(np.sqrt((1.0 + 9.0) / 2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bias_variance_identity(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(0.3, 1.1, 64)
        s = make_series(vals)
        n = 64
        lhs = rmse_db(s) ** 2
        rhs = mean_bias_db(s) ** 2 + std_dev_db(s) ** 2 * (n - 1) / n
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_ml_power_series_delta_method(self):
        # Sample std of the ML noise-power series in dB is predicted by the
        # delta method: 10/ln(10) / sqrt(N).
        rng = np.random.default_rng(40)
        powers = np.abs(rng.standard_normal((400, 512)) +
                        1j * rng.standard_normal((400, 512))) ** 2 / 2
        series_db = 10 * np.log10(powers.mean(axis=1))
        predicted = 10.0 / np.log(10.0) / np.sqrt(512)
        assert sample_std(series_db) == pytest.approx(predicted, rel=0.2)


class TestRunScenario:
    def test_noise_only_ml_fluctuates_around_reference(self):
        cfg = noise_only_config(seed=3, n_frames=40)
        series = run_scenario(cfg, [MethodSpec("ML", "ideal")], [3])[0]
        assert len(series) == 40
        assert series.noise_power_est_mw.mean() == pytest.approx(1.0, abs=0.02)
        assert np.isneginf(series.snr_true_db).all()

    def test_ml_series_covers_every_frame(self):
        cfg = reference_config(seed=5, n_frames=30)
        series = run_scenario(cfg, [MethodSpec("ML", "rof")], [5])[0]
        assert len(series) == 30
        np.testing.assert_array_equal(series.frame_index, np.arange(30))

    def test_windowed_series_starts_after_warmup(self):
        cfg = reference_config(seed=5, n_frames=30)
        spec = MethodSpec("MVU", "ideal", params={"window_frames": 10})
        series = run_scenario(cfg, [spec], [5])[0]
        assert series.frame_index[0] == 9
        assert len(series) == 21

    def test_shared_context_matches_single_method_runs(self):
        # The nine-method matrix shares one per-seed context (masks, Gram
        # matrix); each method alone must give the very same series.
        cfg = reference_config(seed=2, n_frames=25)
        window = {"window_frames": 12}
        methods = [MethodSpec(e, s, params=window) for e, s in (
            ("ML", "ideal"), ("ML", "fisher"), ("ML", "rof"),
            ("MVU", "ideal"), ("MVU", "fisher"), ("MVU", "rof"),
            ("AIC", "none"), ("CBE", "none"), ("MMSE", "none"),
        )]
        joint = run_scenario(cfg, methods, [1, 2])
        assert len(joint) == 2 * len(methods)
        for i, method in enumerate(methods):
            alone = run_scenario(cfg, [method], [1, 2])
            for a, b in zip(alone, joint[i::len(methods)]):
                assert (b.method, b.separation, b.seed) == (a.method, a.separation, a.seed)
                np.testing.assert_array_equal(a.frame_index, b.frame_index)
                np.testing.assert_array_equal(a.noise_power_est_mw, b.noise_power_est_mw)
                np.testing.assert_array_equal(a.snr_est_db, b.snr_est_db)

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
    def test_aic_windows_match_one_window_estimates(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(estimators, "AIC_CHUNK", chunk)
        cfg = reference_config(seed=4, n_frames=90)
        series = run_scenario(cfg, [MethodSpec("AIC", params={"window_frames": 20})], [4])[0]
        power = power_matrix(build_scenario(with_seed(cfg, 4))[0])
        want = [aic_estimate(PowerSpectrum(power[f - 19:f + 1].mean(axis=0), f), 20).value_mw
                for f in range(19, 90)]
        np.testing.assert_array_equal(series.frame_index, np.arange(19, 90))
        assert series.noise_power_est_mw.tolist() == want

    def test_rof_masks_keyed_by_thresholds(self):
        # Methods with different ROF thresholds must not share window masks.
        cfg = reference_config(seed=3, n_frames=20)
        loose = MethodSpec("ML", "rof", params={"window_frames": 10})
        strict = MethodSpec("ML", "rof", params={"window_frames": 10, "lambda1_pct": 60.0})
        joint = run_scenario(cfg, [loose, strict], [3])
        for spec, series in zip((loose, strict), joint):
            alone = run_scenario(cfg, [spec], [3])[0]
            np.testing.assert_array_equal(series.noise_power_est_mw, alone.noise_power_est_mw)
        assert not np.array_equal(joint[0].noise_power_est_mw, joint[1].noise_power_est_mw)

    def test_gram_block_cbe_matches_window_block(self):
        # Every window's covariance is a diagonal block of the seed's Gram
        # matrix; the fit on that block must agree with the per-window path.
        from noisebench.bench import _SeedContext
        from noisebench.estimators import cbe_estimate, cbe_fit_windows
        from noisebench.scenario import scenario_config_from_file
        cfg = scenario_config_from_file(CONFIG)
        ctx = _SeedContext(cfg, cfg.noise.seed)
        window = 100
        fractions = [ctx.truth.occupied_fraction(hi - 1) for hi in range(window, cfg.n_frames + 1)]
        values, grids, _ = cbe_fit_windows(ctx.gram, cfg.n_bins, window,
                                           np.array([round(window * f) for f in fractions]))
        for lo, fraction in enumerate(fractions):
            want = cbe_estimate(ctx.block.window(lo, lo + window), fraction)
            assert grids[lo, 0] == pytest.approx(want.diagnostics["sigma_min_sq"], rel=1e-12)
            assert grids[lo, -1] == pytest.approx(want.diagnostics["sigma_max_sq"], rel=1e-12)
            assert values[lo] == pytest.approx(want.value_mw, rel=1e-12)

    @pytest.mark.parametrize("separation", ["ideal", "fisher", "rof"])
    def test_mvu_sums_match_list_form(self, separation):
        # The bench feeds MVU per-frame noise sums (one batched pass per seed
        # for ideal/Fisher, row sums under each window's ROF mask); the list
        # form over the masks of the public separation functions must give
        # the very same estimates.
        from noisebench import (PowerSpectrum, RofParams, fisher_separate, ideal_separate,
                                mvu_estimate, rof_separate)
        from noisebench.bench import _SeedContext, _evaluate_method
        from noisebench.scenario import scenario_config_from_file
        cfg = scenario_config_from_file(CONFIG)
        ctx = _SeedContext(cfg, cfg.noise.seed)
        series = _evaluate_method(MethodSpec("MVU", separation), ctx, cfg.name, cfg.noise.seed)
        window = 100
        assert len(series) == cfg.n_frames - window + 1
        spectra = [PowerSpectrum(row, g) for g, row in enumerate(ctx.power)]
        if separation == "ideal":
            frame_masks = [ideal_separate(ctx.truth, g) for g in range(cfg.n_frames)]
        elif separation == "fisher":
            frame_masks = [fisher_separate(ps) for ps in spectra]
        for f, got in zip(series.frame_index, series.noise_power_est_mw):
            lo, hi = f - window + 1, f + 1
            if separation == "rof":
                averaged = PowerSpectrum(ctx.power[lo:hi].mean(axis=0), f)
                masks = [rof_separate(averaged, RofParams())] * window
            else:
                masks = frame_masks[lo:hi]
            assert got == mvu_estimate(spectra[lo:hi], masks).value_mw

    def test_seed_context_holds_one_spectral_matrix(self):
        from noisebench.bench import _SeedContext
        cfg = reference_config(seed=2, n_frames=30)
        ctx = _SeedContext(cfg, 2)
        spectral = ctx.block.spectral
        held = [v for obj in (ctx, ctx.masks) for v in vars(obj).values()
                if isinstance(v, np.ndarray)]
        assert not any(v.dtype.kind == "c" or np.shares_memory(v, spectral) for v in held)

    def test_mmse_slices_match_window_blocks(self):
        from noisebench import mmse_estimate, mmse_fit_windows
        from noisebench.bench import _evaluate_method, _SeedContext
        from noisebench.scenario import scenario_config_from_file
        cfg = scenario_config_from_file(CONFIG)
        ctx = _SeedContext(cfg, cfg.noise.seed)
        window = 100
        # The bench evaluates all windows of the seed in one batched pass.
        series = _evaluate_method(MethodSpec("MMSE"), ctx, cfg.name, cfg.noise.seed)
        np.testing.assert_array_equal(series.frame_index, np.arange(window - 1, cfg.n_frames))
        for lo in range(cfg.n_frames - window + 1):
            hi = lo + window
            values, weight_sums, weight_maxes, residuals = mmse_fit_windows(
                ctx.block.spectral[lo:hi], window)
            want = mmse_estimate(ctx.block.window(lo, hi))
            assert values.tolist() == [want.value_mw]
            assert want.diagnostics == {
                "raw_weight_sum": weight_sums[0], "weight_max": weight_maxes[0],
                "system_residual": residuals[0], "blind": True}
            assert series.noise_power_est_mw[lo] == pytest.approx(want.value_mw, rel=1e-12)

    def test_batched_rof_masks_match_single_windows(self):
        # Row f of the ROF cache is the mask of the window ending at f, built
        # in batched passes; it equals rof_separate of that window's average,
        # however the requests split the rows.
        from noisebench import PowerSpectrum, RofParams, rof_separate
        from noisebench.bench import _SeedContext
        cfg = reference_config(seed=4, n_frames=45)
        ctx = _SeedContext(cfg, 4)
        key = ("rof", 10, RofParams())
        ctx.masks.noise_rows(key, 20)
        noise, sums, counts = ctx.masks.noise_rows(key, 0)
        for f in range(45):
            lo = max(0, f - 9)
            want = rof_separate(PowerSpectrum(ctx.power[lo:f + 1].mean(axis=0), f)).noise_bins
            np.testing.assert_array_equal(noise[f], want)
            assert sums[f] == np.compress(want, ctx.power[f]).sum()
            assert counts[f] == np.count_nonzero(want)

    def test_window_means_are_one_read_only_stack(self):
        # Row f is the mean of the trailing window of at most ``window``
        # frames ending at f, bit for bit.
        from noisebench.bench import _SeedContext
        ctx = _SeedContext(reference_config(seed=5, n_frames=30), 5)
        stack = ctx.masks.window_means(7)
        assert stack.shape == ctx.power.shape
        for f in range(30):
            np.testing.assert_array_equal(stack[f], ctx.power[max(0, f - 6):f + 1].mean(axis=0))
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0
        assert ctx.masks.window_means(7) is stack

    def test_window_means_built_once_per_window(self, monkeypatch):
        # ROF at two threshold sets, AIC and CBE's AIC occupancy all read the
        # one stack of their window length; ROF and AIC read slices of it.
        from noisebench.bench import _MaskProvider, _SeedContext, _evaluate_method
        cfg = reference_config(seed=6, n_frames=40)
        ctx = _SeedContext(cfg, 6)
        stacks, inputs = [], []
        window_means = _MaskProvider.window_means

        def spy_means(self, window):
            stacks.append(window_means(self, window))
            return stacks[-1]

        def spy(engine):
            def call(rows, *args):
                inputs.append(rows)
                return engine(rows, *args)
            return call

        monkeypatch.setattr(_MaskProvider, "window_means", spy_means)
        monkeypatch.setattr(bench.sep, "rof_signal_rows", spy(bench.sep.rof_signal_rows))
        monkeypatch.setattr(bench.est, "aic_fit_rows", spy(bench.est.aic_fit_rows))
        window = {"window_frames": 10}
        for spec in (MethodSpec("ML", "rof", params=window),
                     MethodSpec("MVU", "rof", params=dict(window, lambda1_pct=60.0)),
                     MethodSpec("AIC", params=window),
                     MethodSpec("CBE", params=dict(window, occupancy_from="aic"))):
            _evaluate_method(spec, ctx, cfg.name, 6)
        assert len(stacks) == 4 and all(s is stacks[0] for s in stacks)
        assert len(inputs) == 4
        assert all(np.shares_memory(rows, stacks[0]) for rows in inputs[:3])

    def test_unbuildable_rof_windows_raise_on_request(self):
        # Frame 0 alone, the only partial 2-frame window, has no ROF mask:
        # ML's request, which reads it, raises rof_separate's error; MVU's,
        # over the full windows only, does not.
        from noisebench import DegenerateSpectrumError, RofParams
        from noisebench.bench import _MaskProvider
        key = ("rof", 2, RofParams())
        for head, message in ((0.0, "all-zero"), (np.linspace(10.0, 60.0, 64), "every bin")):
            power = np.random.default_rng(7).exponential(1.0, (5, 64))
            power[0] = head
            masks = _MaskProvider(power, truth=None)
            with pytest.raises(DegenerateSpectrumError, match=message):
                masks.noise_rows(key, 0)
            noise, _, counts = masks.noise_rows(key, 1)
            assert noise.shape == (4, 64) and counts.all()

    def test_mvu_more_stable_than_ml(self):
        cfg = reference_config(seed=9, n_frames=150)
        methods = [MethodSpec("ML", "ideal"),
                   MethodSpec("MVU", "ideal", params={"window_frames": 50})]
        series = run_scenario(cfg, methods, [9])
        ml = next(s for s in series if s.method == "ML")
        mvu = next(s for s in series if s.method == "MVU")
        assert std_dev_db(mvu) < std_dev_db(ml)

    def test_snr_schedule_reflected_in_series(self):
        from noisebench import ScenarioConfig, NoiseSource, SnrStep, SubbandSignal
        cfg = ScenarioConfig(
            n_bins=128, n_frames=30, noise=NoiseSource(seed=14),
            signals=(SubbandSignal(subband_index=1, occupancy_fraction=1.0,
                                   target_snr_db=0.0),),
            snr_schedule=(SnrStep(frame_start=15, frame_end=30, target_snr_db=-3.0),),
        )
        series = run_scenario(cfg, [MethodSpec("ML", "ideal")], [14])[0]
        np.testing.assert_allclose(series.snr_true_db[:15], 0.0, atol=1e-12)
        np.testing.assert_allclose(series.snr_true_db[15:], -3.0, atol=1e-12)
        # measured SNR tracks the schedule within the per-frame noise
        assert abs(series.snr_est_db[:15].mean() - 0.0) < 0.3
        assert abs(series.snr_est_db[15:].mean() + 3.0) < 0.4

    def test_cbe_occupancy_sources(self):
        cfg = reference_config(seed=12, n_frames=110)
        from_truth = run_scenario(
            cfg, [MethodSpec("CBE", params={"window_frames": 100})], [12])[0]
        from_aic = run_scenario(
            cfg, [MethodSpec("CBE", params={"window_frames": 100,
                                            "occupancy_from": "aic"})], [12])[0]
        # Blind occupancy lands near the true 25%, so estimates stay close.
        assert from_aic.noise_power_est_mw[0] == pytest.approx(
            from_truth.noise_power_est_mw[0], rel=0.15)
        # The fraction is AIC's order over the window's averaged periodogram.
        from noisebench.bench import _SeedContext
        from noisebench.estimators import cbe_fit_windows
        ctx = _SeedContext(cfg, 12)
        for i, f in enumerate(from_aic.frame_index):
            window = ctx.power[f - 99:f + 1]
            n_min = aic_estimate(PowerSpectrum(window.mean(axis=0), f), 100).diagnostics["n_min"]
            s = int(round(100 * (n_min / cfg.n_bins)))
            want = cbe_fit_windows(ctx.gram[f - 99:f + 1, f - 99:f + 1], cfg.n_bins, 100,
                                   np.array([s]))[0]
            assert from_aic.noise_power_est_mw[i] == want[0]

    def test_cbe_signal_counts(self):
        # One S = round(window * fraction) per window, from the method's
        # explicit fraction, from ground truth at the window's last frame, or
        # from AIC's order over the window's averaged spectrum.
        from noisebench.bench import _SeedContext, _signal_counts
        cfg = reference_config(seed=12, n_frames=110)
        ctx = _SeedContext(cfg, 12)
        frames = np.arange(99, 110)
        explicit = _signal_counts(MethodSpec("CBE", params={"occupied_fraction": 0.3}),
                                  ctx, frames, 100)
        assert explicit.tolist() == [30] * 11
        truth = _signal_counts(MethodSpec("CBE"), ctx, frames, 100)
        assert truth.tolist() == [round(100 * ctx.truth.occupied_fraction(f)) for f in frames]
        aic = _signal_counts(MethodSpec("CBE", params={"occupancy_from": "aic"}), ctx, frames, 100)
        for f, s in zip(frames, aic):
            n_min = aic_estimate(PowerSpectrum(ctx.power[f - 99:f + 1].mean(axis=0), f),
                                 100).diagnostics["n_min"]
            assert s == round(100 * (n_min / cfg.n_bins))
        for fraction in (1.0, -0.25):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
                _signal_counts(MethodSpec("CBE", params={"occupied_fraction": fraction}),
                               ctx, frames, 100)

    def test_full_occupancy_is_an_empty_noise_group(self):
        # Ground truth marks every bin as signal, so S = window leaves CBE no
        # noise eigenvalue: a data error, not a configuration error.
        from noisebench import EmptyNoiseGroupError, ScenarioConfig, NoiseSource, SubbandSignal
        cfg = ScenarioConfig(
            n_bins=64, n_frames=30, noise=NoiseSource(seed=3),
            signals=tuple(SubbandSignal(subband_index=i, occupancy_fraction=1.0,
                                        target_snr_db=0.0) for i in range(4)),
        )
        with pytest.raises(EmptyNoiseGroupError, match="S=20 .* no noise group"):
            run_scenario(cfg, [MethodSpec("CBE", params={"window_frames": 20})], [3])

    @pytest.mark.parametrize("exponent", [-330, 150])
    def test_default_methods_scale_exactly_by_powers_of_two(self, exponent):
        # A power-of-two reference power scales every sample exactly, so every
        # estimate scales by it bit for bit and every SNR stays the same, down
        # to powers whose squares underflow.
        from dataclasses import replace
        from noisebench.cli import _DEFAULT_METHODS, _parse_method
        from noisebench.scenario import scenario_config_from_file
        cfg = scenario_config_from_file(CONFIG)
        methods = [_parse_method(m) for m in _DEFAULT_METHODS]
        factor = 2.0 ** exponent
        scaled = run_scenario(replace(cfg, reference_noise_power_mw=factor), methods, [0])
        for want, got in zip(run_scenario(cfg, methods, [0]), scaled, strict=True):
            np.testing.assert_array_equal(got.noise_power_est_mw, want.noise_power_est_mw * factor)
            np.testing.assert_array_equal(got.noise_power_true_mw,
                                          want.noise_power_true_mw * factor)
            np.testing.assert_array_equal(got.snr_est_db, want.snr_est_db)
            np.testing.assert_array_equal(got.snr_true_db, want.snr_true_db)

    def test_engine_builds_no_estimate_objects(self, monkeypatch):
        # The nine default methods run on array engines end to end; only the
        # one-block *_estimate wrappers build NoisePowerEstimate objects.
        from noisebench.cli import _DEFAULT_METHODS, _parse_method
        from noisebench.estimators import NoisePowerEstimate
        from noisebench.scenario import scenario_config_from_file
        built = []
        original = NoisePowerEstimate.__post_init__

        def counted(self):
            built.append(self.method)
            original(self)

        monkeypatch.setattr(NoisePowerEstimate, "__post_init__", counted)
        cfg = scenario_config_from_file(CONFIG)
        series = run_scenario(cfg, [_parse_method(m) for m in _DEFAULT_METHODS], [0])
        assert len(series) == 9
        assert built == []


class TestStepResponse:
    def test_mvu_lags_ml_after_noise_step(self):
        # Noise power steps 1.0 -> 0.5 mid-run; ML reacts on the next frame
        # while the sliding-window mean needs ~0.9 W frames to cross within
        # 10% of the new level.
        window = 50
        step_at = 150
        rng = np.random.default_rng(77)
        high = np.abs(rng.standard_normal((step_at, 512)) +
                      1j * rng.standard_normal((step_at, 512))) ** 2 / 2
        low = high * 0.0 + np.abs(rng.standard_normal((150, 512)) +
                                  1j * rng.standard_normal((150, 512))) ** 2 / 4
        power = np.vstack([high, low])

        ml_series = power.mean(axis=1)
        mvu_series = np.array([
            power[f - window + 1:f + 1].mean() for f in range(window - 1, 300)
        ])
        mvu_frames = np.arange(window - 1, 300)

        def first_within(values, frames, level, tol=0.1):
            hit = np.flatnonzero(np.abs(values / level - 1.0) < tol)
            hit = hit[frames[hit] >= step_at]
            return int(frames[hit[0]])

        ml_settle = first_within(ml_series, np.arange(300), 0.5)
        mvu_settle = first_within(mvu_series, mvu_frames, 0.5)
        assert mvu_settle - ml_settle >= window // 2


# count_ops of each variant, recorded when the estimators still booked their
# own operations on a full counting block.
PINNED_COUNTS = {  # (variant, n): (adds, muls, cmps, transcendental)
    ("ML(ideal)", 16): (95, 113, 0, 0),
    ("ML(ideal)", 17): (102, 121, 0, 0),
    ("ML(ideal)", 31): (215, 248, 0, 0),
    ("ML(ideal)", 64): (511, 577, 0, 0),
    ("ML(ideal)", 100): (863, 965, 0, 0),
    ("ML(ideal)", 257): (2570, 2829, 0, 0),
    ("ML(ideal)", 512): (5631, 6145, 0, 0),
    ("ML(fisher)", 16): (924, 191, 77, 16),
    ("ML(fisher)", 17): (1052, 205, 83, 17),
    ("ML(fisher)", 31): (3682, 416, 181, 31),
    ("ML(fisher)", 64): (16125, 943, 445, 64),
    ("ML(fisher)", 100): (39660, 1547, 761, 100),
    ("ML(fisher)", 257): (263679, 4353, 2311, 257),
    ("ML(fisher)", 512): (1048061, 9199, 5117, 512),
    ("ML(fisher)", 1024): (4194301, 19439, 11261, 1024),
    ("ML(fisher)", 2048): (16779261, 40943, 24573, 2048),
    ("ML(rof)", 16): (372, 159, 295, 0),
    ("ML(rof)", 17): (414, 170, 332, 0),
    ("ML(rof)", 31): (1226, 339, 1046, 0),
    ("ML(rof)", 64): (4729, 767, 4236, 0),
    ("ML(rof)", 100): (11063, 1263, 10244, 0),
    ("ML(rof)", 257): (69133, 3598, 66579, 0),
    ("ML(rof)", 512): (268799, 7679, 263207, 0),
    ("ML(rof)", 1024): (1062911, 16383, 1050659, 0),
    ("ML(rof)", 2048): (4225023, 34815, 4198435, 0),
    ("MVU(ideal)", 16): (111, 113, 0, 0),
    ("MVU(ideal)", 17): (119, 121, 0, 0),
    ("MVU(ideal)", 31): (246, 248, 0, 0),
    ("MVU(ideal)", 64): (575, 577, 0, 0),
    ("MVU(ideal)", 100): (963, 965, 0, 0),
    ("MVU(ideal)", 257): (2827, 2829, 0, 0),
    ("MVU(ideal)", 512): (6143, 6145, 0, 0),
    ("MVU(fisher)", 16): (940, 191, 77, 16),
    ("MVU(fisher)", 17): (1069, 205, 83, 17),
    ("MVU(fisher)", 31): (3713, 416, 181, 31),
    ("MVU(fisher)", 64): (16189, 943, 445, 64),
    ("MVU(fisher)", 100): (39760, 1547, 761, 100),
    ("MVU(fisher)", 257): (263936, 4353, 2311, 257),
    ("MVU(fisher)", 512): (1048573, 9199, 5117, 512),
    ("MVU(rof)", 16): (388, 159, 295, 0),
    ("MVU(rof)", 17): (431, 170, 332, 0),
    ("MVU(rof)", 31): (1257, 339, 1046, 0),
    ("MVU(rof)", 64): (4793, 767, 4236, 0),
    ("MVU(rof)", 100): (11163, 1263, 10244, 0),
    ("MVU(rof)", 257): (69390, 3598, 66579, 0),
    ("MVU(rof)", 512): (269311, 7679, 263207, 0),
    ("AIC", 16): (337, 328, 79, 168),
    ("AIC", 17): (376, 358, 85, 187),
    ("AIC", 31): (1147, 898, 183, 558),
    ("AIC", 64): (4546, 2976, 447, 2208),
    ("AIC", 100): (10765, 6514, 763, 5250),
    ("AIC", 257): (68364, 37266, 2313, 33667),
    ("AIC", 512): (267265, 140032, 5119, 132352),
    ("AIC", 1024): (1059841, 543232, 11263, 526848),
    ("AIC", 2048): (4218881, 2137088, 24575, 2102272),
    ("CBE", 16): (17189, 16309, 100, 1200),
    ("CBE", 17): (20194, 19251, 100, 1300),
    ("CBE", 31): (105673, 104458, 100, 2300),
    ("CBE", 64): (885141, 884693, 100, 4800),
    ("CBE", 100): (3347562, 3350462, 100, 7500),
    ("CBE", 257): (56578970, 56626747, 100, 19300),
    ("CBE", 512): (447256746, 447482538, 100, 38400),
    ("CBE grid_size=7", 16): (13841, 14077, 7, 84),
    ("CBE grid_size=7", 17): (16567, 16833, 7, 91),
    ("CBE grid_size=7", 31): (99256, 100180, 7, 161),
    ("CBE grid_size=7", 64): (871749, 875765, 7, 336),
    ("CBE grid_size=7", 100): (3326637, 3336512, 7, 525),
    ("CBE grid_size=7", 257): (56525123, 56590849, 7, 1351),
    ("CBE grid_size=7", 512): (447149610, 447411114, 7, 2688),
    ("MMSE", 16): (1496, 1336, 0, 0),
    ("MMSE", 17): (1684, 1497, 0, 0),
    ("MMSE", 31): (5486, 4711, 0, 0),
    ("MMSE", 64): (23008, 19296, 0, 0),
    ("MMSE", 100): (55814, 46414, 0, 0),
    ("MMSE", 257): (365712, 301205, 0, 0),
    ("MMSE", 512): (1447168, 1188096, 0, 0),
    ("MMSE blind=False", 16): (984, 1320, 0, 0),
    ("MMSE blind=False", 17): (1106, 1480, 0, 0),
    ("MMSE blind=False", 31): (3564, 4680, 0, 0),
    ("MMSE blind=False", 64): (14816, 19232, 0, 0),
    ("MMSE blind=False", 100): (35814, 46314, 0, 0),
    ("MMSE blind=False", 257): (233614, 300948, 0, 0),
    ("MMSE blind=False", 512): (922880, 1187584, 0, 0),
}
PINNED_STAGES = {  # (variant, n, stage): (adds, muls, cmps, transcendental)
    ("CBE", 16, "covariance-matmul"): (7936, 8192, 0, 0),
    ("CBE", 16, "eigensolve"): (5461, 5461, 0, 0),
    ("CBE", 16, "mp-fit"): (3600, 2400, 100, 1200),
    ("CBE", 17, "covariance-matmul"): (9537, 9826, 0, 0),
    ("CBE", 17, "eigensolve"): (6550, 6550, 0, 0),
    ("CBE", 17, "mp-fit"): (3900, 2600, 100, 1300),
    ("CBE", 31, "covariance-matmul"): (58621, 59582, 0, 0),
    ("CBE", 31, "eigensolve"): (39721, 39721, 0, 0),
    ("CBE", 31, "mp-fit"): (6900, 4600, 100, 2300),
    ("CBE", 64, "covariance-matmul"): (520192, 524288, 0, 0),
    ("CBE", 64, "eigensolve"): (349525, 349525, 0, 0),
    ("CBE", 64, "mp-fit"): (14400, 9600, 100, 4800),
    ("CBE", 100, "covariance-matmul"): (1990000, 2000000, 0, 0),
    ("CBE", 100, "eigensolve"): (1333333, 1333333, 0, 0),
    ("CBE", 100, "mp-fit"): (22500, 15000, 100, 7500),
    ("CBE", 257, "covariance-matmul"): (33883137, 33949186, 0, 0),
    ("CBE", 257, "eigensolve"): (22632790, 22632790, 0, 0),
    ("CBE", 257, "mp-fit"): (57900, 38600, 100, 19300),
    ("CBE", 512, "covariance-matmul"): (268173312, 268435456, 0, 0),
    ("CBE", 512, "eigensolve"): (178956970, 178956970, 0, 0),
    ("CBE", 512, "mp-fit"): (115200, 76800, 100, 38400),
    ("CBE grid_size=7", 16, "covariance-matmul"): (7936, 8192, 0, 0),
    ("CBE grid_size=7", 16, "eigensolve"): (5461, 5461, 0, 0),
    ("CBE grid_size=7", 16, "mp-fit"): (252, 168, 7, 84),
    ("CBE grid_size=7", 17, "covariance-matmul"): (9537, 9826, 0, 0),
    ("CBE grid_size=7", 17, "eigensolve"): (6550, 6550, 0, 0),
    ("CBE grid_size=7", 17, "mp-fit"): (273, 182, 7, 91),
    ("CBE grid_size=7", 31, "covariance-matmul"): (58621, 59582, 0, 0),
    ("CBE grid_size=7", 31, "eigensolve"): (39721, 39721, 0, 0),
    ("CBE grid_size=7", 31, "mp-fit"): (483, 322, 7, 161),
    ("CBE grid_size=7", 64, "covariance-matmul"): (520192, 524288, 0, 0),
    ("CBE grid_size=7", 64, "eigensolve"): (349525, 349525, 0, 0),
    ("CBE grid_size=7", 64, "mp-fit"): (1008, 672, 7, 336),
    ("CBE grid_size=7", 100, "covariance-matmul"): (1990000, 2000000, 0, 0),
    ("CBE grid_size=7", 100, "eigensolve"): (1333333, 1333333, 0, 0),
    ("CBE grid_size=7", 100, "mp-fit"): (1575, 1050, 7, 525),
    ("CBE grid_size=7", 257, "covariance-matmul"): (33883137, 33949186, 0, 0),
    ("CBE grid_size=7", 257, "eigensolve"): (22632790, 22632790, 0, 0),
    ("CBE grid_size=7", 257, "mp-fit"): (4053, 2702, 7, 1351),
    ("CBE grid_size=7", 512, "covariance-matmul"): (268173312, 268435456, 0, 0),
    ("CBE grid_size=7", 512, "eigensolve"): (178956970, 178956970, 0, 0),
    ("CBE grid_size=7", 512, "mp-fit"): (8064, 5376, 7, 2688),
}
PINNED_VARIANTS = {
    "ML(ideal)": MethodSpec("ML", "ideal"),
    "ML(fisher)": MethodSpec("ML", "fisher"),
    "ML(rof)": MethodSpec("ML", "rof"),
    "MVU(ideal)": MethodSpec("MVU", "ideal"),
    "MVU(fisher)": MethodSpec("MVU", "fisher"),
    "MVU(rof)": MethodSpec("MVU", "rof"),
    "AIC": MethodSpec("AIC"),
    "CBE": MethodSpec("CBE"),
    "CBE grid_size=7": MethodSpec("CBE", params={"grid_size": 7}),
    "MMSE": MethodSpec("MMSE"),
    "MMSE blind=False": MethodSpec("MMSE", params={"blind": False}),
}


class TestCountOps:
    @pytest.mark.parametrize("spec", [
        MethodSpec("ML", "rof"), MethodSpec("ML", "fisher"), MethodSpec("ML", "ideal"),
        MethodSpec("MVU", "rof"), MethodSpec("AIC"), MethodSpec("CBE"), MethodSpec("MMSE"),
    ], ids=lambda s: s.label)
    def test_counts_monotone_in_size(self, spec):
        totals = [count_ops(spec, n).counts.total() for n in (32, 64, 128)]
        assert totals[0] < totals[1] < totals[2]

    def test_counts_deterministic(self):
        spec = MethodSpec("AIC")
        a = count_ops(spec, 64).counts
        b = count_ops(spec, 64).counts
        assert a == b

    def test_rof_dominated_by_quadratic_term(self):
        spec = MethodSpec("ML", "rof")
        r = count_ops(spec, 256).counts.total() / count_ops(spec, 128).counts.total()
        assert 3.5 <= r <= 4.5

    def test_cbe_exposes_matmul_stage(self):
        counter = count_ops(MethodSpec("CBE"), 64)
        assert "covariance-matmul" in counter.stages
        stage = counter.stages["covariance-matmul"]
        assert stage.muls == 64 * 64 * 128

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            count_ops(MethodSpec("AIC"), 8)

    @pytest.mark.parametrize("variant", PINNED_VARIANTS)
    def test_counts_and_stages_match_pinned_table(self, variant):
        for n in (16, 17, 31, 64, 100, 257, 512):
            counter = count_ops(PINNED_VARIANTS[variant], n)
            c = counter.counts
            assert (c.adds, c.muls, c.cmps, c.transcendental) == PINNED_COUNTS[variant, n], n
            stages = {name: (s.adds, s.muls, s.cmps, s.transcendental)
                      for name, s in counter.stages.items()}
            assert stages == {stage: counts for (v, size, stage), counts in PINNED_STAGES.items()
                              if (v, size) == (variant, n)}, n

    @pytest.mark.parametrize("n", [16, 17, 512])
    def test_counting_frame_matches_per_frame_build(self, n):
        frame = bench._counting_frame(n)
        np.testing.assert_array_equal(frame, counting_block_per_frame(n, n)[-1])
        assert not frame.flags.writeable

    def test_data_free_counts_draw_no_frame(self):
        bench._counting_frame.cache_clear()
        for variant in ("CBE", "CBE grid_size=7", "MMSE", "MMSE blind=False",
                        "ML(ideal)", "MVU(ideal)"):
            count_ops(PINNED_VARIANTS[variant], 64)
        info = bench._counting_frame.cache_info()
        assert (info.hits, info.misses) == (0, 0)

    @pytest.mark.parametrize("variant", ["ML(rof)", "ML(fisher)", "AIC"])
    def test_large_counts_match_pinned_table(self, variant):
        # Counts at the sizes only the ops sweep reaches, recorded before the
        # counting frames came from one stream walk.
        spec = PINNED_VARIANTS[variant]
        for n, counter in zip((1024, 2048), count_ops_table([spec], [1024, 2048])[0]):
            c = counter.counts
            assert (c.adds, c.muls, c.cmps, c.transcendental) == PINNED_COUNTS[variant, n], n

    def test_counting_frames_match_per_frame_build(self):
        bench._counting_frame.cache_clear()
        frames = bench._counting_frames((64, 16, 64, 17))
        assert sorted(frames) == [16, 17, 64]
        for n, frame in frames.items():
            np.testing.assert_array_equal(frame, counting_block_per_frame(n, n)[-1])
            assert not frame.flags.writeable
        info = bench._counting_frame.cache_info()
        assert (info.hits, info.misses) == (0, 0)

    def test_ops_sweep_walks_stream_once(self, tmp_path, monkeypatch):
        from noisebench.cli import _parse_method, main
        walk, walks = bench._counting_frames, []

        def counted_walk(sizes):
            walks.append(tuple(sizes))
            return walk(sizes)

        monkeypatch.setattr(bench, "_counting_frames", counted_walk)
        # More sizes than the frame memo holds, in no order and one repeated.
        sizes = (31, 16, 64, 17, 32, 16)
        bench._counting_frame.cache_clear()
        out = tmp_path / "ops.csv"
        assert main(["ops", "--sizes", ",".join(map(str, sizes)), "--out", str(out)]) == 0
        assert walks == [sizes]
        info = bench._counting_frame.cache_info()
        assert (info.hits, info.misses) == (0, 0)
        want = []
        for spec in map(_parse_method, ["ML:rof", "ML:fisher", "AIC", "CBE", "MMSE"]):
            for size in sizes:
                c = count_ops(spec, size).counts
                want.append("%s,%s,%d,%d,%d,%d,%d,%d" % (
                    spec.estimator, spec.separation, size, c.adds, c.muls, c.cmps,
                    c.transcendental, c.total()))
        assert out.read_text().splitlines()[1:] == want

    def test_table_matches_count_ops(self, monkeypatch):
        methods = [PINNED_VARIANTS[v] for v in ("ML(rof)", "MVU(fisher)", "AIC", "CBE", "MMSE")]
        sizes = [64, 16, 64, 17]
        table = count_ops_table(methods, sizes)
        assert len(table) == len(methods)
        for method, row in zip(methods, table):
            assert len(row) == len(sizes)
            for n, counter in zip(sizes, row):
                want = count_ops(method, n)
                assert (counter.counts, counter.stages) == (want.counts, want.stages)
        monkeypatch.setattr(bench, "_counting_frames", None)  # a walk would fail
        count_ops_table([PINNED_VARIANTS[v] for v in ("CBE", "MMSE", "ML(ideal)")], sizes)

    @pytest.mark.parametrize("sizes", [[], [16, 15]])
    def test_table_rejects_sizes_before_walking(self, sizes, monkeypatch):
        monkeypatch.setattr(bench, "_counting_frames", None)
        with pytest.raises(ValueError):
            count_ops_table([MethodSpec("AIC")], sizes)

    @pytest.mark.parametrize("estimator", ["ML", "MVU"])
    def test_rof_walk_booked_at_own_thresholds(self, estimator):
        from noisebench import RofParams, rof_separate
        n = 512
        params = {"lambda1_pct": 50.0, "lambda2_fraction": 0.2}
        tuned = count_ops(MethodSpec(estimator, "rof", params), n).counts
        default = count_ops(MethodSpec(estimator, "rof"), n).counts
        frame = bench._counting_power(n)
        tuned_mask = rof_separate(frame, RofParams(**params))
        default_mask = rof_separate(frame)
        assert (tuned_mask.aux["K"], default_mask.aux["K"]) == (3, 42)
        # The curve's argmax does not depend on the thresholds: the walks
        # differ by the difference in K, the noise-bin means by the masks.
        assert tuned.cmps - default.cmps == 3 - 42
        noise_diff = int(tuned_mask.noise_bins.sum()) - int(default_mask.noise_bins.sum())
        assert tuned.adds - default.adds == noise_diff
        assert tuned.muls == default.muls

    @pytest.mark.parametrize("params, message", [
        ({"occupied_fraction": 0.99}, "needs a noise group left and grid_size >= 2"),
        ({"grid_size": 1}, "grid_size must be an integer >= 2, got 1"),  # at spec build
    ], ids=["params0", "params1"])
    def test_cbe_count_needs_noise_group_and_grid(self, params, message):
        with pytest.raises(ValueError, match=message):
            count_ops(MethodSpec("CBE", params=params), 16)

    def test_fisher_scan_booked_only_where_fisher_splits(self):
        from noisebench import OpCounter
        n = 64
        flat, scanned = OpCounter(), OpCounter()
        assert bench._book_fisher(flat, PowerSpectrum(np.ones(n))).aux["split"] is None
        assert bench._book_fisher(scanned, bench._counting_power(n)).aux["split"] is not None
        assert scanned.counts.adds - flat.counts.adds == 4 * n * (n - 3)
        assert scanned.counts.muls - flat.counts.muls == 6 * (n - 3)
        assert scanned.counts.cmps - flat.counts.cmps == n - 3

    def test_reports_draw_one_counting_frame(self):
        bench._counting_frame.cache_clear()
        cfg = reference_config(seed=0, n_frames=20)
        methods = [MethodSpec("ML", "ideal"), MethodSpec("ML", "fisher"),
                   MethodSpec("MVU", "ideal"), MethodSpec("AIC"), MethodSpec("CBE")]
        run_benchmark(cfg, methods, [0])
        info = bench._counting_frame.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestCsvEmission:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [])
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario_id,method,separation,seed_count")

    def test_one_method_one_seed_single_row(self, tmp_path):
        cfg = noise_only_config(seed=1, n_frames=20)
        methods = [MethodSpec("ML", "ideal")]
        series, reports = run_benchmark(cfg, methods, [1])
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        rows = path.read_text().splitlines()
        assert len(rows) == 2

    def test_series_round_trip(self, tmp_path):
        cfg = reference_config(seed=4, n_frames=12)
        series = run_scenario(cfg, [MethodSpec("ML", "ideal")], [4])
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for i, row in enumerate(rows):
            assert int(row["frame_index"]) == i
            got = float(row["noise_power_est_mw"])
            assert got == pytest.approx(series[0].noise_power_est_mw[i], rel=1e-8)
            assert row["method"] == "ML"
            assert row["separation"] == "ideal"

    def test_report_round_trip_values(self, tmp_path):
        cfg = reference_config(seed=8, n_frames=25)
        methods = [MethodSpec("MVU", "ideal", params={"window_frames": 10})]
        _, reports = run_benchmark(cfg, methods, [8])
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["rmse_db"]) == pytest.approx(reports[0].rmse_db, rel=1e-8)
        assert int(row["ops_add"]) == reports[0].ops.adds
        assert float(row["wall_time_ms"]) == 0.0

    def test_line_endings_and_precision(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(path, [])
        raw = path.read_bytes()
        assert b"\r" not in raw

    @staticmethod
    def _per_value_text(columns, rows) -> str:
        """The writer's text as formatted one value at a time, then joined: the oracle."""
        def fmt(value) -> str:
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            if isinstance(value, float):
                return "%.9g" % value
            return str(value)
        return "".join(",".join(fmt(v) for v in row) + "\n" for row in [columns, *rows])

    def test_table_formats_match_per_value_formatting(self, tmp_path):
        specials = np.array([np.inf, -np.inf, np.nan, 0.1, -0.0, 1e-300, 123456789.123])
        series = [EstimateSeries(
            scenario_id="s", seed=seed, method=method, separation="rof",
            frame_index=np.arange(3, 3 + specials.size, dtype=np.int64),
            noise_power_est_mw=specials, noise_power_true_mw=specials[::-1].copy(),
            snr_est_db=specials * 3, snr_true_db=np.full(specials.size, -np.inf),
        ) for method, seed in (("ML", np.int64(7)), ("AIC", 2))]
        reports = [bench.BenchmarkReport(
            scenario_id="s", method=method, separation="none", seed_count=seeds,
            rmse_db=rmse, std_dev_db=np.float64(-np.inf), mean_bias_db=np.nan,
            ops=bench.OpCounts(np.int64(2**40), 3, np.int32(0), 12), wall_time_ms=wall,
        ) for method, seeds, rmse, wall in (("CBE", np.int64(2), np.inf, 0.0),
                                            ("ML", 20, 1.25, 3.5))]
        write_series_csv(tmp_path / "series.csv", series)
        write_report_csv(tmp_path / "report.csv", reports)

        series_rows = [
            (s.scenario_id, s.seed, s.method, s.separation, int(s.frame_index[i]),
             float(s.noise_power_est_mw[i]), float(s.noise_power_true_mw[i]),
             float(s.snr_est_db[i]), float(s.snr_true_db[i]))
            for s in sorted(series, key=lambda s: (s.method, s.separation, s.seed))
            for i in range(len(s))
        ]
        report_rows = [
            (r.scenario_id, r.method, r.separation, r.seed_count, r.rmse_db, r.std_dev_db,
             r.mean_bias_db, r.ops.adds, r.ops.muls, r.ops.cmps, r.ops.transcendental,
             r.wall_time_ms)
            for r in sorted(reports, key=lambda r: (r.method, r.separation))
        ]
        assert (tmp_path / "series.csv").read_text() == self._per_value_text(
            bench.SERIES_COLUMNS, series_rows)
        assert (tmp_path / "report.csv").read_text() == self._per_value_text(
            bench.REPORT_COLUMNS, report_rows)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = reference_config(seed=6, n_frames=15)
        methods = [MethodSpec("ML", "ideal"), MethodSpec("AIC")]
        outputs = []
        for name in ("a", "b"):
            series, reports = run_benchmark(cfg, methods, [6, 7])
            s_path = tmp_path / f"series_{name}.csv"
            r_path = tmp_path / f"report_{name}.csv"
            write_series_csv(s_path, series)
            write_report_csv(r_path, reports)
            outputs.append((s_path.read_bytes(), r_path.read_bytes()))
        assert outputs[0] == outputs[1]


class TestReports:
    def test_report_aggregates_seeds(self):
        cfg = reference_config(seed=0, n_frames=20)
        methods = [MethodSpec("ML", "ideal")]
        series, reports = run_benchmark(cfg, methods, [0, 1, 2])
        assert reports[0].seed_count == 3
        manual = np.mean([rmse_db(s) for s in series])
        assert reports[0].rmse_db == pytest.approx(manual)

    def test_series_carry_ground_truth_snr(self):
        # The metrics read the true SNR off the series alone; it must be the
        # scenario's ground truth at the series' frames, bit for bit.
        from noisebench.cli import _DEFAULT_METHODS, _parse_method
        from noisebench.scenario import scenario_config_from_file
        cfg = scenario_config_from_file(CONFIG)
        series = run_scenario(cfg, [_parse_method(m) for m in _DEFAULT_METHODS], [0, 1])
        truths = ground_truths(cfg, [0, 1])
        assert len(series) == 18
        for s in series:
            want = truths[s.seed].true_snr_db[s.frame_index]
            assert s.snr_true_db.tobytes() == want.tobytes(), (s.method, s.separation, s.seed)

    def test_each_seed_built_once(self, monkeypatch):
        # The reports read the series, so each seed's scenario is built once.
        from noisebench import bench
        calls = []
        original = bench.build_scenario

        def counting_build(cfg):
            calls.append(cfg.noise.seed)
            return original(cfg)

        monkeypatch.setattr(bench, "build_scenario", counting_build)
        cfg = reference_config(seed=0, n_frames=20)
        run_benchmark(cfg, [MethodSpec("ML", "ideal"), MethodSpec("AIC")], [0, 1, 2])
        assert calls == [0, 1, 2]

    def test_timing_shares_the_seed_loop(self, monkeypatch, tmp_path):
        # Timing measures each method inside the one per-seed loop: seeds are
        # built once, the series are unchanged and every method gets a time.
        from noisebench import bench
        calls = []
        original = bench.build_scenario

        def counting_build(cfg):
            calls.append(cfg.noise.seed)
            return original(cfg)

        monkeypatch.setattr(bench, "build_scenario", counting_build)
        cfg = reference_config(seed=0, n_frames=20)
        methods = [MethodSpec("ML", "ideal"), MethodSpec("AIC"), MethodSpec("MMSE")]
        timed_series, timed = run_benchmark(cfg, methods, [0, 1], timing=True)
        assert calls == [0, 1]
        series, reports = run_benchmark(cfg, methods, [0, 1])
        assert all(r.wall_time_ms > 0 for r in timed)
        assert all(r.wall_time_ms == 0.0 for r in reports)
        write_series_csv(tmp_path / "timed.csv", timed_series)
        write_series_csv(tmp_path / "plain.csv", series)
        assert (tmp_path / "timed.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_report_rmse_exceeds_population_std(self):
        cfg = reference_config(seed=1, n_frames=40)
        series, reports = run_benchmark(cfg, [MethodSpec("ML", "ideal")], [1])
        n = len(series[0])
        assert reports[0].rmse_db ** 2 >= reports[0].std_dev_db ** 2 * (n - 1) / n - 1e-9
