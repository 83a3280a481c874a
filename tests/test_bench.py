from __future__ import annotations

import ast
import csv
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from noisebench import (
    EstimateSeries,
    MethodSpec,
    PowerSpectrum,
    ResourceBlock,
    ScenarioConfig,
    aic_estimate,
    aic_fit_rows,
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
from noisebench import bench, estimators, separation
from noisebench.bench import ground_truths, sample_std
from noisebench.errors import DataError
from noisebench.scenario import with_seed

from conftest import (
    counting_block_per_frame, counting_frames_walk, counting_power, counting_resume_points,
    noise_only_config, raised, reference_config, resume_table_literal,
)

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


class SharedCalls:
    """A call log that forked seed workers share: each call appends one line to a file.

    A list would record only the calls made in the parent; the workers of a
    multi-seed run inherit the file's path and append to the same file.
    """

    def __init__(self, path: Path):
        self.path = path
        path.write_text("", encoding="utf-8")

    def append(self, value) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{value!r}\n")

    def read(self) -> list:
        return [ast.literal_eval(line)
                for line in self.path.read_text(encoding="utf-8").splitlines()]


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
    ])
    def test_params_checked(self, params, message):
        with pytest.raises(ValueError) as exc:
            MethodSpec("CBE", params=params)
        assert str(exc.value) == message

    def test_known_params_accepted(self):
        MethodSpec("CBE", params={"occupancy_from": "truth", "grid_size": 7,
                                  "window_frames": 20})
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
        # MMSE always works blind, and CBE's S comes from ground truth or AIC.
        ("MMSE", "none", {"blind": True}, "unknown method param(s): blind"),
        ("MMSE", "none", {"blind": False}, "unknown method param(s): blind"),
        ("ML", "rof", {"lambda1_pct": 0.0}, "lambda1_pct must lie in (0, 100)"),
        ("MVU", "rof", {"lambda2_fraction": 1.0}, "lambda2_fraction must lie in (0, 1)"),
        ("ML", "rof", {"lambda1_pct": "5"}, "lambda1_pct must be a real number, got '5'"),
        ("ML", "rof", {"lambda1_pct": True}, "lambda1_pct must be a real number, got True"),
        ("MVU", "rof", {"lambda2_fraction": None},
         "lambda2_fraction must be a real number, got None"),
        ("MVU", "rof", {"lambda2_fraction": False},
         "lambda2_fraction must be a real number, got False"),
        ("CBE", "none", {"occupied_fraction": 0.25}, "unknown method param(s): occupied_fraction"),
        ("CBE", "none", {"occupied_fraction": 0.0, "occupancy_from": "aic"},
         "unknown method param(s): occupied_fraction"),
        ("CBE", "none", {"blind": True, "occupied_fraction": 0.25},
         "unknown method param(s): blind, occupied_fraction"),
        ("ML", "oracle", {}, "unknown separation 'oracle'"),
        # A param the method does not read, whatever its value: unknown names
        # are named first, unread ones next, and values are checked last.
        ("ML", "ideal", {"window_frames": 7}, "ML(ideal) does not read window_frames"),
        ("MMSE", "none", {"grid_size": 7, "occupancy_from": "aic", "lambda1_pct": 50.0},
         "MMSE does not read grid_size, lambda1_pct, occupancy_from"),
        ("ML", "fisher", {"window_frames": 0}, "ML(fisher) does not read window_frames"),
        ("MVU", "rof", {"lambda1_pct": 0.0, "grid_size": 1}, "MVU(rof) does not read grid_size"),
        ("AIC", "none", {"gridsize": 7, "grid_size": 7}, "unknown method param(s): gridsize"),
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
        assert MethodSpec("ML", "rof").rof_params == RofParams()
        tuned = MethodSpec("ML", "rof", params={"lambda2_fraction": 0.2})
        assert tuned.rof_params == RofParams(lambda2_fraction=0.2)


SPECS = {spec.label: spec for spec in (MethodSpec(e, s) for e, s in (
    ("ML", "ideal"), ("ML", "fisher"), ("ML", "rof"), ("MVU", "ideal"), ("MVU", "fisher"),
    ("MVU", "rof"), ("AIC", "none"), ("CBE", "none"), ("MMSE", "none")))}
# Each method param and the labels of the methods that read it.
READERS = {
    "window_frames": set(SPECS) - {"ML(ideal)", "ML(fisher)"},
    "lambda1_pct": {"ML(rof)", "MVU(rof)"},
    "lambda2_fraction": {"ML(rof)", "MVU(rof)"},
    "occupancy_from": {"CBE"},
    "grid_size": {"CBE"},
}
TUNED = {"window_frames": 50, "lambda1_pct": 60.0, "lambda2_fraction": 0.3,
         "occupancy_from": "aic", "grid_size": 7}


class TestMethodParams:
    """One table of method params: each method reads, and accepts, only its own."""

    def test_table_holds_each_params_default_and_readers(self):
        assert {name: (param.default, param.readers)
                for name, param in bench.METHOD_PARAMS.items()} == {
            "window_frames": (100, READERS["window_frames"]),
            "lambda1_pct": (separation.RofParams().lambda1_pct, READERS["lambda1_pct"]),
            "lambda2_fraction": (separation.RofParams().lambda2_fraction,
                                 READERS["lambda2_fraction"]),
            "occupancy_from": ("truth", READERS["occupancy_from"]),
            "grid_size": (estimators.CBE_GRID_SIZE, READERS["grid_size"]),
        }
        assert estimators.CBE_GRID_SIZE == 100

    @pytest.fixture(scope="class")
    def default_series(self):
        from noisebench.scenario import scenario_config_from_file
        config = scenario_config_from_file(CONFIG)
        return config, dict(zip(SPECS, run_scenario(config, list(SPECS.values()), [0])))

    @pytest.mark.parametrize("name, label", [(name, label) for name in READERS
                                             for label in sorted(READERS[name])])
    def test_each_reader_reads_its_param(self, default_series, name, label):
        # A non-default value moves the method's series on the reference config
        # (seed 0) on the frames both series cover.
        config, defaults = default_series
        spec = SPECS[label]
        base = {}
        if label == "CBE" and name != "window_frames":
            # CBE's fit returns its candidate grid's lower edge in every 100-frame
            # window of the reference scenario, where neither the grid size nor
            # the signal count moves that edge; on surrogate noise some 10-frame
            # windows leave it.
            config = dataclasses.replace(config, noise=dataclasses.replace(
                config.noise, kind="surrogate-industrial"))
            base = {"window_frames": 10}
        want = defaults[label] if not base else run_scenario(
            config, [MethodSpec(spec.estimator, spec.separation, params=base)], [0])[0]
        tuned = MethodSpec(spec.estimator, spec.separation, params={**base, name: TUNED[name]})
        got = run_scenario(config, [tuned], [0])[0]
        _, mine, theirs = np.intersect1d(got.frame_index, want.frame_index, return_indices=True)
        assert mine.size > 100
        assert (got.noise_power_est_mw[mine] != want.noise_power_est_mw[theirs]).any()

    @pytest.mark.parametrize("name, label", [(name, label) for name in READERS
                                             for label in SPECS if label not in READERS[name]])
    def test_a_method_rejects_each_param_it_does_not_read(self, name, label):
        spec = SPECS[label]
        for value in (TUNED[name], bench.METHOD_PARAMS[name].default):
            with pytest.raises(ValueError) as exc:
                MethodSpec(spec.estimator, spec.separation, params={name: value})
            assert str(exc.value) == f"{label} does not read {name}"


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

    def test_series_arrays_must_align(self):
        with pytest.raises(ValueError, match="^series arrays must share one length$"):
            EstimateSeries(scenario_id="t", seed=0, method="ML", separation="ideal",
                           frame_index=np.arange(3), noise_power_est_mw=np.ones(3),
                           noise_power_true_mw=np.ones(3), snr_est_db=np.zeros(2),
                           snr_true_db=np.zeros(3))

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
        window = {"window_frames": 12}  # ML(ideal) and ML(fisher) read no window
        methods = [MethodSpec("ML", "ideal"), MethodSpec("ML", "fisher")] + [
            MethodSpec(e, s, params=window) for e, s in (
                ("ML", "rof"), ("MVU", "ideal"), ("MVU", "fisher"), ("MVU", "rof"),
                ("AIC", "none"), ("CBE", "none"), ("MMSE", "none"))]
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
        want = [aic_estimate(PowerSpectrum(power[f - 19:f + 1].mean(axis=0), f), 20)
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
        ctx = _SeedContext(*build_scenario(cfg))
        window = 100
        fractions = [float(ctx.truth.signal_bin_mask[hi - 1].mean())
                     for hi in range(window, cfg.n_frames + 1)]
        values, grids, _, _ = cbe_fit_windows(ctx.gram, cfg.n_bins, window,
                                              np.array([round(window * f) for f in fractions]))
        for lo, fraction in enumerate(fractions):
            block = ResourceBlock(ctx.block.spectral[lo:lo + window])
            # The grid of the one-window fit cbe_estimate makes.
            grid = cbe_fit_windows(estimators.sample_covariance(block), cfg.n_bins, window,
                                   np.array([round(window * fraction)]))[1][0]
            assert grids[lo, 0] == pytest.approx(grid[0], rel=1e-12)
            assert grids[lo, -1] == pytest.approx(grid[-1], rel=1e-12)
            assert values[lo] == pytest.approx(cbe_estimate(block, fraction), rel=1e-12)

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
        ctx = _SeedContext(*build_scenario(cfg))
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
            assert got == mvu_estimate(spectra[lo:hi], masks)

    def test_seed_context_holds_one_spectral_matrix(self):
        from noisebench.bench import _SeedContext
        cfg = reference_config(seed=2, n_frames=30)
        ctx = _SeedContext(*build_scenario(cfg))
        spectral = ctx.block.spectral
        held = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
        assert not any(v.dtype.kind == "c" or np.shares_memory(v, spectral) for v in held)

    def test_mmse_slices_match_window_blocks(self):
        from noisebench import mmse_estimate, mmse_fit_windows
        from noisebench.bench import _evaluate_method, _SeedContext
        from noisebench.scenario import scenario_config_from_file
        cfg = scenario_config_from_file(CONFIG)
        ctx = _SeedContext(*build_scenario(cfg))
        window = 100
        # The bench evaluates all windows of the seed in one batched pass.
        series = _evaluate_method(MethodSpec("MMSE"), ctx, cfg.name, cfg.noise.seed)
        np.testing.assert_array_equal(series.frame_index, np.arange(window - 1, cfg.n_frames))
        for lo in range(cfg.n_frames - window + 1):
            hi = lo + window
            values = mmse_fit_windows(ctx.block.spectral[lo:hi], window)[0]
            want = mmse_estimate(ResourceBlock(ctx.block.spectral[lo:hi]))
            assert values.tolist() == [want]
            assert series.noise_power_est_mw[lo] == pytest.approx(want, rel=1e-12)

    def test_batched_rof_masks_match_single_windows(self):
        # Row f of the ROF cache is the mask of the window ending at f, built
        # in batched passes; it equals rof_separate of that window's average,
        # however the requests split the rows.
        from noisebench import PowerSpectrum, RofParams, rof_separate
        from noisebench.bench import _SeedContext
        cfg = reference_config(seed=4, n_frames=45)
        ctx = _SeedContext(*build_scenario(cfg))
        key = ("rof", 10, RofParams())
        ctx.noise_rows(key, 20)
        noise, sums, counts, _ = ctx.noise_rows(key, 0)
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
        ctx = _SeedContext(*build_scenario(reference_config(seed=5, n_frames=30)))
        stack = ctx.window_means(7)
        assert stack.shape == ctx.power.shape
        for f in range(30):
            np.testing.assert_array_equal(stack[f], ctx.power[max(0, f - 6):f + 1].mean(axis=0))
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0
        assert ctx.window_means(7) is stack

    def test_window_means_built_once_per_window(self, monkeypatch):
        # ROF at two threshold sets and AIC read slices of the one stack of
        # their window length; CBE's AIC occupancy reads AIC's fit of it.
        from noisebench.bench import _SeedContext, _evaluate_method
        cfg = reference_config(seed=6, n_frames=40)
        ctx = _SeedContext(*build_scenario(cfg))
        stacks, inputs = [], []
        window_means = _SeedContext.window_means

        def spy_means(self, window):
            stacks.append(window_means(self, window))
            return stacks[-1]

        def spy(engine):
            def call(rows, *args):
                inputs.append(rows)
                return engine(rows, *args)
            return call

        monkeypatch.setattr(_SeedContext, "window_means", spy_means)
        monkeypatch.setattr(bench.sep, "rof_signal_rows", spy(bench.sep.rof_signal_rows))
        monkeypatch.setattr(bench.est, "aic_fit_rows", spy(bench.est.aic_fit_rows))
        window = {"window_frames": 10}
        for spec in (MethodSpec("ML", "rof", params=window),
                     MethodSpec("MVU", "rof", params=dict(window, lambda1_pct=60.0)),
                     MethodSpec("AIC", params=window),
                     MethodSpec("CBE", params=dict(window, occupancy_from="aic"))):
            _evaluate_method(spec, ctx, cfg.name, 6)
        assert len(stacks) == 3 and all(s is stacks[0] for s in stacks)
        assert len(inputs) == 3
        assert all(np.shares_memory(rows, stacks[0]) for rows in inputs)

    def test_unbuildable_rof_windows_raise_on_request(self):
        # Frame 0 alone, the only partial 2-frame window, has no ROF mask:
        # ML's request, which reads it, raises rof_separate's error; MVU's,
        # over the full windows only, does not.
        # The block's power matrix is the given one up to rounding.
        from noisebench import DegenerateSpectrumError, ResourceBlock, RofParams
        from noisebench.bench import _SeedContext
        key = ("rof", 2, RofParams())
        for head, message in ((0.0, "all-zero"), (np.linspace(10.0, 60.0, 64), "every bin")):
            power = np.random.default_rng(7).exponential(1.0, (5, 64))
            power[0] = head
            ctx = _SeedContext(ResourceBlock(np.sqrt(64 * power)), truth=None)
            with pytest.raises(DegenerateSpectrumError, match=message):
                raised(ctx.noise_rows(key, 0))
            noise, _, counts, _ = ctx.noise_rows(key, 1)
            assert noise.shape == (4, 64) and counts.all()

    def test_grouped_noise_sums_match_per_frame_sums(self):
        # Rows are summed by noise count within chunks of rows, each sum the
        # bits of the frame's own np.compress(keep, row).sum().  Counts 1-16,
        # 127-129 and 511 cover pairwise summation's short, unrolled and split
        # lengths; rows of one count have different masks, and runs of equal
        # counts straddle the chunk edges, the last chunk a partial one.
        from noisebench.bench import _NOISE_SUM_CHUNK, _noise_sums
        rng = np.random.default_rng(12)
        n, chunk = 512, _NOISE_SUM_CHUNK
        cycle = list(range(1, 17)) + [127, 128, 129, 511]
        counts = np.array([cycle[f % len(cycle)] for f in range(2 * chunk + 22)])
        counts[chunk - 5:chunk + 5] = 128
        counts[2 * chunk - 3:2 * chunk + 2] = 7
        shape = (counts.size, n)
        power = rng.exponential(size=shape) * 10.0 ** rng.uniform(-8, 8, shape)
        noise = np.zeros(power.shape, dtype=bool)
        for row, count in zip(noise, counts):
            row[rng.choice(n, count, replace=False)] = True
        got = _noise_sums(power, noise, counts)
        want = np.array([np.compress(keep, row).sum() for keep, row in zip(noise, power)])
        assert got.tobytes() == want.tobytes()
        # Every group of equal counts holds distinct masks.
        assert all(len({noise[f].tobytes() for f in np.flatnonzero(counts == c)})
                   == np.count_nonzero(counts == c) for c in cycle)

    @staticmethod
    def _per_window_sums(power, noise, window):
        """Each window's frames summed under its mask, one np.compress per window."""
        return np.stack([np.compress(keep, power[j:j + window], axis=1).sum(axis=1)
                         for j, keep in enumerate(noise)])

    @pytest.mark.parametrize("seed", range(6))
    def test_rof_window_sums_match_per_window_sums(self, seed):
        # MVU(rof) sums each run of windows that share a ROF mask with one
        # gather; the sums are the bits of one gather per window.
        from noisebench import RofParams
        from noisebench.bench import _masked_window_sums, _SeedContext
        from noisebench.scenario import scenario_config_from_file
        ctx = _SeedContext(*build_scenario(with_seed(scenario_config_from_file(CONFIG), seed)))
        noise = ctx.noise_rows(("rof", 100, RofParams()), 99)[0]
        runs = 1 + np.count_nonzero((noise[1:] != noise[:-1]).any(axis=1))
        assert 1 < runs < len(noise)
        got = _masked_window_sums(ctx.power, noise, 100)
        assert got.tobytes() == self._per_window_sums(ctx.power, noise, 100).tobytes()

    @pytest.mark.parametrize("masks", ["every-window", "one-mask"])
    def test_masked_window_sums_on_synthetic_masks(self, masks):
        # A mask that changes at every window (runs of one window) and one
        # shared by all windows (one run); counts of 1-511 noise bins.
        from noisebench.bench import _masked_window_sums
        rng = np.random.default_rng(31)
        window, n_windows, n = 9, 40, 512
        power = rng.exponential(size=(n_windows + window - 1, n)) * 10.0 ** rng.uniform(-8, 8, n)
        if masks == "every-window":
            noise = np.zeros((n_windows, n), dtype=bool)
            for j, row in enumerate(noise):
                row[rng.choice(n, [1, 2, 7, 17, 128, 129, 511][j % 7], replace=False)] = True
            assert (noise[1:] != noise[:-1]).any(axis=1).all()
        else:
            noise = np.broadcast_to(rng.random(n) < 0.7, (n_windows, n))
        got = _masked_window_sums(power, noise, window)
        assert got.tobytes() == self._per_window_sums(power, noise, window).tobytes()

    def test_rof_last_window_matches_per_window_sums(self):
        # The estimate path (last_only) has one window, so one run.
        from noisebench import RofParams
        from noisebench.bench import _evaluate_method, _SeedContext
        from noisebench.scenario import scenario_config_from_file
        cfg = scenario_config_from_file(CONFIG)
        ctx = _SeedContext(*build_scenario(with_seed(cfg, 3)))
        series = _evaluate_method(MethodSpec("MVU", "rof"), ctx, cfg.name, 3, last_only=True)
        noise = ctx.noise_rows(("rof", 100, RofParams()), cfg.n_frames - 1)[0]
        sums = self._per_window_sums(ctx.power[-100:], noise, 100)
        want = estimators.mvu_fit_rows(sums, np.full(sums.shape, np.count_nonzero(noise)))[0]
        assert series.frame_index.tolist() == [cfg.n_frames - 1]
        assert series.noise_power_est_mw.tobytes() == want.tobytes()

    def test_gram_built_lazily_once_per_seed(self, monkeypatch, tmp_path):
        # Only CBE reads the seed's Gram matrix: the eight other default methods
        # never build it, and two CBE methods on one seed share one build.
        from noisebench.cli import _DEFAULT_METHODS, _parse_method
        calls = SharedCalls(tmp_path / "calls.txt")
        covariance = estimators.sample_covariance

        def counted(block):
            calls.append(block.n_frames)
            return covariance(block)

        monkeypatch.setattr(bench.est, "sample_covariance", counted)
        cfg = reference_config(seed=8, n_frames=30)
        others = [_parse_method(m) for m in _DEFAULT_METHODS if m != "CBE"]
        assert len(others) == 8
        run_scenario(cfg, others, [8, 9])
        assert calls.read() == []
        run_scenario(cfg, [MethodSpec("CBE"), MethodSpec("CBE", params={"occupancy_from": "aic"})],
                     [8, 9])
        assert calls.read() == [30, 30]

    def test_aic_fitted_once_for_aic_and_cbe_occupancy(self, monkeypatch, tmp_path):
        # AIC and CBE(occupancy_from="aic") at one window length share one AIC
        # fit per seed, and their series are those of each method run alone.
        methods = [MethodSpec("AIC", params={"window_frames": 20}),
                   MethodSpec("CBE", params={"window_frames": 20, "occupancy_from": "aic"})]
        cfg = reference_config(seed=8, n_frames=60)
        alone = [series for m in methods for series in run_scenario(cfg, [m], [8, 9])]
        calls = SharedCalls(tmp_path / "calls.txt")
        fit = estimators.aic_fit_rows

        def counted(*args):
            calls.append(args[0].shape)
            return fit(*args)

        monkeypatch.setattr(bench.est, "aic_fit_rows", counted)
        joint = run_scenario(cfg, methods, [8, 9])
        assert calls.read() == [(41, cfg.n_bins)] * 2
        for got, want in zip(sorted(joint, key=lambda s: (s.method, s.seed)), alone):
            assert (got.method, got.seed) == (want.method, want.seed)
            assert got.noise_power_est_mw.tobytes() == want.noise_power_est_mw.tobytes()

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
        ctx = _SeedContext(*build_scenario(cfg))
        for i, f in enumerate(from_aic.frame_index):
            window = ctx.power[f - 99:f + 1]
            n_min = aic_fit_rows(window.mean(axis=0)[None, :], 100)[1][0]
            s = int(round(100 * (n_min / cfg.n_bins)))
            want = cbe_fit_windows(ctx.gram[f - 99:f + 1, f - 99:f + 1], cfg.n_bins, 100,
                                   np.array([s]))[0]
            assert from_aic.noise_power_est_mw[i] == want[0]

    def test_cbe_signal_counts(self):
        # One S = round(window * fraction) per window, from ground truth at the
        # window's last frame, or from AIC's order over the window's averaged
        # spectrum.
        from noisebench.bench import _SeedContext, _signal_counts
        cfg = reference_config(seed=12, n_frames=110)
        ctx = _SeedContext(*build_scenario(cfg))
        frames = np.arange(99, 110)
        truth = _signal_counts(MethodSpec("CBE"), ctx, frames, 100)
        assert truth.tolist() == [round(100 * float(ctx.truth.signal_bin_mask[f].mean()))
                                  for f in frames]
        aic = _signal_counts(MethodSpec("CBE", params={"occupancy_from": "aic"}), ctx, frames, 100)
        for f, s in zip(frames, aic):
            n_min = aic_fit_rows(ctx.power[f - 99:f + 1].mean(axis=0)[None, :], 100)[1][0]
            assert s == round(100 * (n_min / cfg.n_bins))

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
    ("ML(fisher)", 4096): (67117053, 85999, 53245, 4096),
    ("ML(fisher)", 4097): (67149828, 86021, 53259, 4097),
    ("ML(rof)", 16): (372, 159, 295, 0),
    ("ML(rof)", 17): (414, 170, 332, 0),
    ("ML(rof)", 31): (1226, 339, 1046, 0),
    ("ML(rof)", 64): (4729, 767, 4236, 0),
    ("ML(rof)", 100): (11063, 1263, 10244, 0),
    ("ML(rof)", 257): (69133, 3598, 66579, 0),
    ("ML(rof)", 512): (268799, 7679, 263207, 0),
    ("ML(rof)", 1024): (1062911, 16383, 1050659, 0),
    ("ML(rof)", 2048): (4225023, 34815, 4198435, 0),
    ("ML(rof)", 4096): (16842751, 73727, 16785446, 0),
    ("ML(rof)", 4097): (16850961, 73746, 16793637, 0),
    ("MVU(rof)", 1024): (1063935, 16383, 1050659, 0),
    ("MVU(rof)", 2048): (4227071, 34815, 4198435, 0),
    ("MVU(rof)", 4096): (16846847, 73727, 16785446, 0),
    ("MVU(rof)", 4097): (16855058, 73746, 16793637, 0),
    ("MVU(fisher)", 1024): (4195325, 19439, 11261, 1024),
    ("MVU(fisher)", 2048): (16781309, 40943, 24573, 2048),
    ("MVU(fisher)", 4096): (67121149, 85999, 53245, 4096),
    ("MVU(fisher)", 4097): (67153925, 86021, 53259, 4097),
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
    ("AIC", 4096): (16830465, 8472576, 53247, 8398848),
    ("AIC", 4097): (16838672, 8476694, 53261, 8402947),
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
}


def spy_resumes(monkeypatch) -> list[int]:
    """The Philox words at which the counting stream is resumed from now on."""
    resumed, resume = [], bench._normals_from

    def spied(word):
        resumed.append(word)
        return resume(word)

    monkeypatch.setattr(bench, "_normals_from", spied)
    return resumed


def spy_frames(monkeypatch) -> list[int]:
    """The sizes whose counting frame is asked for from now on."""
    drawn, frame = [], bench._counting_frame

    def spied(n):
        drawn.append(n)
        return frame(n)

    monkeypatch.setattr(bench, "_counting_frame", spied)
    return drawn


@pytest.fixture
def fresh_resume_points():
    """Make the next counting frame run the resume table's first-use check again."""
    bench._resume_points.cache_clear()
    yield
    bench._resume_points.cache_clear()


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
        for variant in ("CBE", "CBE grid_size=7", "MMSE",
                        "ML(ideal)", "MVU(ideal)"):
            count_ops(PINNED_VARIANTS[variant], 64)
        info = bench._counting_frame.cache_info()
        assert (info.hits, info.misses) == (0, 0)

    @pytest.mark.parametrize("variant", ["ML(rof)", "ML(fisher)", "MVU(rof)", "MVU(fisher)",
                                         "AIC"])
    def test_large_counts_match_pinned_table(self, variant):
        # Counts at the sizes only the ops sweep reaches, recorded before the
        # counting frames came from one stream walk (MVU's before count_ops_table
        # became the one booking loop).
        spec = PINNED_VARIANTS[variant]
        for n, counter in zip((1024, 2048), count_ops_table([spec], [1024, 2048])[0]):
            c = counter.counts
            assert (c.adds, c.muls, c.cmps, c.transcendental) == PINNED_COUNTS[variant, n], n

    @pytest.mark.parametrize("variant", ["ML(rof)", "ML(fisher)", "MVU(rof)", "MVU(fisher)",
                                         "AIC"])
    def test_counts_past_2048_match_pinned_table(self, variant):
        # 4096 is the last size the resume points cover and 4097 walks on past
        # the last of them; recorded while each frame was walked to from word 0
        # (MVU's before count_ops_table became the one booking loop).
        spec = PINNED_VARIANTS[variant]
        for n, counter in zip((4096, 4097), count_ops_table([spec], [4096, 4097])[0]):
            c = counter.counts
            assert (c.adds, c.muls, c.cmps, c.transcendental) == PINNED_COUNTS[variant, n], n

    def test_resume_points_match_stream(self):
        assert len(bench._RESUME_WORDS) * bench._COUNTING_DRAW == 2 * 4096**2
        words, check = counting_resume_points(len(bench._RESUME_WORDS), bench._COUNTING_DRAW)
        if (words, check) != (bench._RESUME_WORDS, bench._RESUME_CHECK):
            pytest.fail("the resume points in bench.py do not match this numpy's counting "
                        "stream; replace them with:\n" + resume_table_literal(words, check))

    def test_frames_match_walk_around_resume_points(self, monkeypatch, fresh_resume_points):
        draw = bench._COUNTING_DRAW
        # 256 and 1024 end on a resume point and 257 and 1025 start just past
        # it; 314 and 4092 straddle points 3 and 511; past 4092 every frame is
        # walked to from point 511.
        for n, point in ((314, 3), (4092, 511)):
            assert 2 * n * (n - 1) < point * draw < 2 * n * n
        sizes = (4097, 255, 256, 257, 313, 314, 315, 1024, 1025, 4091, 4092, 4093, 4096)
        bench._resume_points()
        bench._counting_frame.cache_clear()
        resumed = spy_resumes(monkeypatch)
        frames = {n: bench._counting_frame(n) for n in sizes}
        want = counting_frames_walk(sizes)
        for n in want:
            np.testing.assert_array_equal(frames[n], want[n])
        assert resumed == [bench._RESUME_WORDS[min(2 * n * (n - 1) // draw, 511)]
                           for n in sizes]

    def test_guard_falls_back_to_point_0(self, monkeypatch, fresh_resume_points):
        # A recorded check normal that this sampler does not draw at the last
        # point stands for a table made by another numpy.
        monkeypatch.setattr(bench, "_RESUME_CHECK", bench._RESUME_CHECK + 1.0)
        bench._counting_frame.cache_clear()
        resumed = spy_resumes(monkeypatch)
        sizes = (16, 256, 257, 700)
        frames = {n: bench._counting_frame(n) for n in sizes}
        assert resumed == [bench._RESUME_WORDS[-1], 0, 0, 0, 0]  # the guard's draw, then the sizes
        want = counting_frames_walk(sizes)
        for n in want:
            np.testing.assert_array_equal(frames[n], want[n])

    def test_count_rejects_sizes_past_max_before_walking(self, monkeypatch):
        monkeypatch.setattr(bench, "_counting_frame", None)  # a draw would fail
        message = "operation counting needs n <= 65536, got 65537$"
        with pytest.raises(ValueError, match=message):
            count_ops(MethodSpec("AIC"), 65537)
        with pytest.raises(ValueError, match=message):
            count_ops(MethodSpec("CBE"), 65537)
        # The largest size is counted where no frame is read.
        count_ops_table([MethodSpec("CBE"), MethodSpec("MMSE")], [bench.MAX_COUNTING_SIZE])

    def test_count_rejects_sizes_below_min_before_walking(self, monkeypatch):
        monkeypatch.setattr(bench, "_counting_frame", None)  # a draw would fail
        with pytest.raises(ValueError, match="operation counting needs n >= 16, got 15$"):
            count_ops(MethodSpec("AIC"), 15)
        with pytest.raises(ValueError, match="operation counting needs n >= 16, got 0$"):
            count_ops_table([MethodSpec("CBE")], [32, 15, 0, 65537])
        count_ops_table([MethodSpec("CBE"), MethodSpec("MMSE")], [bench.MIN_COUNTING_SIZE])

    @pytest.mark.parametrize("sizes, buffer, left", [
        ((4096, 4097), None, 0),  # the shipped buffer: 7 and 9 whole draws
        ((2049,), 512, 0),        # 8 whole draws
        ((2049,), 455, 1),        # one normal past 9 whole draws
        ((2049,), 241, 240),      # one normal short of 17
    ], ids=["shipped", "whole", "one-past", "one-short"])
    def test_frames_match_walk_at_skip_buffer_edges(self, sizes, buffer, left, monkeypatch,
                                                    fresh_resume_points):
        if buffer:
            monkeypatch.setattr(bench, "_SKIP_BUFFER", buffer)
        draw, last = bench._COUNTING_DRAW, len(bench._RESUME_WORDS) - 1
        bench._counting_frame.cache_clear()
        want = counting_frames_walk(sizes)
        for n in sizes:
            start = 2 * n * (n - 1)
            skip = start - min(start // draw, last) * draw  # normals dropped after resuming
            assert skip > bench._SKIP_BUFFER and skip % bench._SKIP_BUFFER == left
            np.testing.assert_array_equal(bench._counting_frame(n), want[n])

    def test_counting_frames_match_per_frame_build(self):
        # A table draws each distinct size once, into the memo.
        bench._counting_frame.cache_clear()
        count_ops_table([MethodSpec("AIC")], [64, 16, 64, 17])
        info = bench._counting_frame.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 3)
        for n in (16, 17, 64):
            frame = bench._counting_frame(n)
            np.testing.assert_array_equal(frame, counting_block_per_frame(n, n)[-1])
            assert not frame.flags.writeable
        info = bench._counting_frame.cache_info()
        assert (info.hits, info.misses) == (3, 3)

    def test_ops_sweep_walks_stream_once(self, tmp_path, monkeypatch):
        from noisebench.cli import _parse_method, main
        memo = bench._counting_frame
        memo.cache_clear()
        drawn = spy_frames(monkeypatch)
        # More sizes than the frame memo holds, in no order and one repeated.
        sizes = (31, 16, 64, 17, 32, 16)
        out = tmp_path / "ops.csv"
        assert main(["ops", "--sizes", ",".join(map(str, sizes)), "--out", str(out)]) == 0
        assert sorted(drawn) == sorted(set(sizes))
        info = memo.cache_info()
        assert (info.hits, info.misses) == (0, 5)
        want = []
        for spec in map(_parse_method, ["ML:rof", "ML:fisher", "AIC", "CBE", "MMSE"]):
            for size in sizes:
                c = count_ops(spec, size).counts
                want.append("%s,%s,%d,%d,%d,%d,%d,%d" % (
                    spec.estimator, spec.separation, size, c.adds, c.muls, c.cmps,
                    c.transcendental, c.total()))
        assert out.read_text().splitlines()[1:] == want

    def test_ops_and_run_draw_each_size_once_through_engines(self, tmp_path, monkeypatch):
        # Counting reads AIC's order, Fisher's split and ROF's K and drop-curve
        # peak off the array engines, not the one-block wrappers or ROF's full
        # one-row cascade, and each table call asks for each distinct size's
        # frame once, also with more sizes than the memo holds.
        from noisebench.cli import _DEFAULT_METHODS, main

        def refuse(*args, **kwargs):
            raise AssertionError("counting called a one-block wrapper")

        monkeypatch.setattr(estimators, "aic_estimate", refuse)
        monkeypatch.setattr(separation, "fisher_separate", refuse)
        monkeypatch.setattr(separation, "rof_separate", refuse)
        monkeypatch.setattr(separation, "rof_energy_drops", refuse)
        sizes = [64, 128, 256, 512, 1024, 2048]  # the ops sweep's sizes
        assert len(sizes) > bench._counting_frame.cache_parameters()["maxsize"]
        drawn = spy_frames(monkeypatch)
        methods = [arg for method in _DEFAULT_METHODS for arg in ("--method", method)]
        for _ in range(2):
            drawn.clear()
            assert main(["ops", "--sizes", ",".join(map(str, sizes + sizes[:1])), *methods,
                         "--out", str(tmp_path / "ops.csv")]) == 0
            assert sorted(drawn) == sizes
        drawn.clear()
        assert main(["run", "--config", str(CONFIG), "--seeds", "0", "--override", "n_frames=20",
                     "--out", str(tmp_path / "run")]) == 0
        assert drawn == [512]

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
        monkeypatch.setattr(bench, "_counting_frame", None)  # a draw would fail
        count_ops_table([PINNED_VARIANTS[v] for v in ("CBE", "MMSE", "ML(ideal)")], sizes)

    @pytest.mark.parametrize("sizes", [[], [16, 15], [16, 65537]])
    def test_table_rejects_sizes_before_walking(self, sizes, monkeypatch):
        monkeypatch.setattr(bench, "_counting_frame", None)
        with pytest.raises(ValueError):
            count_ops_table([MethodSpec("AIC")], sizes)

    @pytest.mark.parametrize("estimator", ["ML", "MVU"])
    def test_rof_walk_booked_at_own_thresholds(self, estimator):
        from noisebench import RofParams, rof_separate
        n = 512
        params = {"lambda1_pct": 50.0, "lambda2_fraction": 0.2}
        tuned = count_ops(MethodSpec(estimator, "rof", params), n).counts
        default = count_ops(MethodSpec(estimator, "rof"), n).counts
        frame = counting_power(n)
        tuned_mask = rof_separate(frame, RofParams(**params))
        default_mask = rof_separate(frame)
        assert (tuned_mask.aux["K"], default_mask.aux["K"]) == (3, 42)
        # The curve's argmax does not depend on the thresholds: the walks
        # differ by the difference in K, the noise-bin means by the masks.
        assert tuned.cmps - default.cmps == 3 - 42
        noise_diff = int(tuned_mask.noise_bins.sum()) - int(default_mask.noise_bins.sum())
        assert tuned.adds - default.adds == noise_diff
        assert tuned.muls == default.muls

    @pytest.mark.parametrize("n", [16, 17, 31, 64, 100, 257, 512])
    def test_cbe_count_books_one_signal_count_for_every_source(self, n):
        # The model books S = round(0.25 n) whether S would come from ground
        # truth or from AIC, and the fit's n - S noise eigenvalues are never none.
        s = round(n * bench.COUNTING_OCCUPIED_FRACTION)
        truth, aic = (count_ops(MethodSpec("CBE", params={"occupancy_from": source}), n)
                      for source in ("truth", "aic"))
        assert aic.counts == truth.counts and aic.stages == truth.stages
        assert truth.stages["mp-fit"].transcendental == estimators.CBE_GRID_SIZE * (n - s) > 0

    def test_cbe_count_needs_a_grid(self):
        with pytest.raises(ValueError, match="grid_size must be an integer >= 2, got 1"):
            count_ops(MethodSpec("CBE", params={"grid_size": 1}), 16)  # at spec build

    def test_fisher_scan_booked_only_where_fisher_splits(self):
        from noisebench import OpCounter
        n = 64
        flat, scanned = OpCounter(), OpCounter()
        # A constant spectrum has no split and an all-noise mask.
        assert bench._book_fisher(flat, PowerSpectrum(np.ones(n))) == n
        frame = counting_power(n)
        signal, split, _ = separation.fisher_signal_rows(frame.power[None, :])
        assert split[0] >= 0
        assert bench._book_fisher(scanned, frame) == n - signal.sum()
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
        assert (info.hits, info.misses) == (0, 1)

    def test_run_rejects_block_too_large_to_count_before_any_scenario(self, monkeypatch):
        built = []
        monkeypatch.setattr(bench, "build_scenario", lambda config: built.append(config))
        cfg = ScenarioConfig(n_bins=65540, n_frames=20)
        with pytest.raises(ValueError, match="run needs n_bins <= 65536, got 65540$"):
            run_benchmark(cfg, [MethodSpec("ML", "ideal")], [0, 1])
        assert built == []

    def test_run_rejects_uncountable_block_before_any_scenario(self, monkeypatch):
        built = []
        monkeypatch.setattr(bench, "build_scenario", lambda config: built.append(config))
        cfg = ScenarioConfig(n_bins=12, n_frames=20)
        with pytest.raises(ValueError, match="run needs n_bins >= 16, got 12$"):
            run_benchmark(cfg, [MethodSpec("ML", "ideal")], [0, 1])
        assert built == []


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

    def test_each_seed_built_once(self, monkeypatch, tmp_path):
        # The reports read the series, so each seed's scenario is built once.
        # Seed workers build in any order.
        from noisebench import bench
        calls = SharedCalls(tmp_path / "calls.txt")
        original = bench.build_scenario

        def counting_build(cfg):
            calls.append(cfg.noise.seed)
            return original(cfg)

        monkeypatch.setattr(bench, "build_scenario", counting_build)
        cfg = reference_config(seed=0, n_frames=20)
        run_benchmark(cfg, [MethodSpec("ML", "ideal"), MethodSpec("AIC")], [0, 1, 2])
        assert sorted(calls.read()) == [0, 1, 2]

    def test_label_given_twice_rejected_before_any_seed(self, monkeypatch):
        # Reports are keyed by label, which leaves out the params.
        from noisebench import bench
        calls = []
        monkeypatch.setattr(bench, "build_scenario", calls.append)
        methods = [MethodSpec("MVU", "ideal", params={"window_frames": 5}),
                   MethodSpec("AIC"), MethodSpec("MVU", "ideal")]
        with pytest.raises(ValueError, match=r"^method MVU\(ideal\) is given more than once$"):
            run_benchmark(reference_config(seed=0, n_frames=20), methods, [0])
        assert calls == []

    @pytest.mark.parametrize("methods, seeds, error", [
        ([], [0], "need at least one method"),
        ([MethodSpec("AIC")], [], "need at least one seed"),
    ], ids=["no-methods", "no-seeds"])
    def test_empty_matrix_rejected(self, methods, seeds, error):
        with pytest.raises(ValueError) as exc:
            run_scenario(reference_config(seed=0, n_frames=20), methods, seeds)
        assert str(exc.value) == error

    def test_method_without_series_gets_no_report(self):
        cfg = reference_config(seed=0, n_frames=20)
        series = run_scenario(cfg, [MethodSpec("ML", "ideal")], [0])
        reports = bench.build_reports(cfg, [MethodSpec("AIC"), MethodSpec("ML", "ideal")], series)
        assert [(r.method, r.separation) for r in reports] == [("ML", "ideal")]

    @pytest.mark.parametrize("seed, error", [
        (-1, r"^seed -1 lies outside \[0, 2\*\*64\)$"),
        (2**64, rf"^seed {2**64} lies outside \[0, 2\*\*64\)$"),
        (1.5, r"^seed 1\.5 is not an integer$"),
    ])
    def test_bad_seed_rejected_before_any_seed(self, monkeypatch, seed, error):
        from noisebench import bench
        calls = []
        monkeypatch.setattr(bench, "build_scenario", calls.append)
        cfg = reference_config(seed=0, n_frames=20)
        with pytest.raises(ValueError, match=error):
            run_benchmark(cfg, [MethodSpec("AIC")], [1, seed])
        assert calls == []
        with pytest.raises(ValueError, match=error):
            with_seed(cfg, seed)

    def test_timing_shares_the_seed_loop(self, monkeypatch, tmp_path):
        # Timing measures each method inside the one per-seed loop: seeds are
        # built once, the series are unchanged and every method gets a time.
        # Seed workers build in any order.
        from noisebench import bench
        calls = SharedCalls(tmp_path / "calls.txt")
        original = bench.build_scenario

        def counting_build(cfg):
            calls.append(cfg.noise.seed)
            return original(cfg)

        monkeypatch.setattr(bench, "build_scenario", counting_build)
        cfg = reference_config(seed=0, n_frames=20)
        methods = [MethodSpec("ML", "ideal"), MethodSpec("AIC"), MethodSpec("MMSE")]
        timed_series, timed = run_benchmark(cfg, methods, [0, 1], timing=True)
        assert sorted(calls.read()) == [0, 1]
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


def two_seed_workers(n_seeds: int) -> int:
    """Two workers whenever there are two seeds, however many CPUs the machine has."""
    return min(2, n_seeds)


class TestSeedPool:
    """Several seeds run in forked worker processes; nothing a caller sees may change."""

    METHODS = [MethodSpec("ML", "ideal"), MethodSpec("ML", "fisher")] + [
        MethodSpec(e, s, params={"window_frames": 12}) for e, s in (
            ("ML", "rof"), ("MVU", "ideal"), ("MVU", "fisher"), ("MVU", "rof"), ("AIC", "none"),
            ("CBE", "none"), ("MMSE", "none"))]

    def _outputs(self, out: Path, seeds: list[int]) -> tuple[list, dict[str, bytes]]:
        """The series' (seed, method) order, which the CSV writer sorts away, and the CSVs."""
        series, reports = run_benchmark(reference_config(seed=0, n_frames=30), self.METHODS,
                                        seeds)
        out.mkdir()
        write_series_csv(out / "series.csv", series)
        write_report_csv(out / "report.csv", reports)
        order = [(s.seed, s.method, s.separation) for s in series]
        return order, {name: (out / name).read_bytes() for name in ("series.csv", "report.csv")}

    def test_pool_writes_the_serial_bytes(self, monkeypatch, tmp_path):
        pids = SharedCalls(tmp_path / "pids.txt")
        build = bench.build_scenario

        def logged_build(cfg):
            pids.append(os.getpid())
            time.sleep(0.2 if cfg.noise.seed == 0 else 0.0)  # seed 0 finishes after seed 1
            return build(cfg)

        monkeypatch.setattr(bench, "build_scenario", logged_build)
        monkeypatch.setattr(bench, "_seed_workers", two_seed_workers)
        pooled = self._outputs(tmp_path / "pool", [0, 1, 2, 3])
        assert pooled[0] == [(seed, m.estimator, m.separation)
                             for seed in range(4) for m in self.METHODS]
        assert multiprocessing.active_children() == []
        workers = set(pids.read())  # a busy machine may hand one worker every seed
        assert 1 <= len(workers) <= 2 and os.getpid() not in workers
        monkeypatch.setattr(bench, "_seed_workers", lambda n_seeds: 1)
        assert self._outputs(tmp_path / "serial", [0, 1, 2, 3]) == pooled
        assert set(pids.read()[4:]) == {os.getpid()}

    @pytest.mark.parametrize("failing", [{1}, {1, 2}], ids=["seed1", "seeds1-2"])
    def test_first_failing_seed_raises(self, monkeypatch, tmp_path, capsys, failing):
        # Seed 1 fails last in time: a worker is still on it when seed 2 has failed.
        evaluate = bench._evaluate_method

        def failing_evaluate(method, ctx, scenario_id, seed, last_only=False):
            if seed in failing:
                time.sleep(0.2 if seed == 1 else 0.0)
                raise DataError(f"seed {seed} has no usable spectrum")
            return evaluate(method, ctx, scenario_id, seed, last_only)

        monkeypatch.setattr(bench, "_evaluate_method", failing_evaluate)
        monkeypatch.setattr(bench, "_seed_workers", two_seed_workers)
        cfg = reference_config(seed=0, n_frames=20)
        with pytest.raises(DataError) as exc:
            run_benchmark(cfg, [MethodSpec("ML", "ideal")], [0, 1, 2, 3])
        assert type(exc.value) is DataError
        assert str(exc.value) == "seed 1 has no usable spectrum"
        assert multiprocessing.active_children() == []

        from noisebench.cli import main
        code = main(["run", "--config", str(CONFIG), "--override", "n_frames=20",
                     "--method", "ML:ideal", "--seeds", "0,1,2,3", "--out", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err == "error: seed 1 has no usable spectrum\n"
        assert multiprocessing.active_children() == []

    def test_one_seed_never_forks(self, monkeypatch):
        contexts = []
        get_context = multiprocessing.get_context

        def spy(method=None):
            contexts.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        monkeypatch.setattr(bench, "_seed_workers", two_seed_workers)
        cfg = reference_config(seed=0, n_frames=20)
        run_benchmark(cfg, [MethodSpec("ML", "ideal")], [5])
        assert contexts == []
        run_benchmark(cfg, [MethodSpec("ML", "ideal")], [5, 6])
        assert contexts == ["fork"]

    def test_workers_bounded_by_cpus_and_seeds(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [bench._seed_workers(n) for n in (1, 2, 20)] == [1, 2, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert bench._seed_workers(20) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert bench._seed_workers(20) == 1


def test_cli_import_loads_no_multiprocessing():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys, noisebench.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "False"
