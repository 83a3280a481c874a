from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisebench import (ComplexSeries, ZeroPowerError, bench, cli, errors, estimators, load_iq_trace,
                        scenario_config_from_dict, synth_white_noise, write_iq_trace)
from noisebench.cli import _DEFAULT_METHODS, _parse_method, main

from conftest import traced_peak

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small_config(tmp_path):
    data = {
        "name": "cli-test",
        "n_bins": 128,
        "n_frames": 40,
        "reference_noise_power_mw": 1.0,
        "noise": {"kind": "white-gaussian", "seed": 0},
        "signals": [
            {"subband_index": 2, "occupancy_fraction": 1.0, "target_snr_db": 0.0}
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def noise_config(tmp_path):
    data = {
        "name": "cli-noise",
        "n_bins": 256,
        "n_frames": 4,
        "reference_noise_power_mw": 1.0,
        "noise": {"kind": "white-gaussian", "seed": 1},
    }
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(data))
    return path


class TestGenerate:
    def test_trace_size(self, noise_config, tmp_path):
        out = tmp_path / "trace.iq"
        rc = main(["generate", "--config", str(noise_config), "--out", str(out)])
        assert rc == 0
        assert out.stat().st_size == 256 * 4 * 8

    def test_round_trip_samples(self, noise_config, tmp_path):
        out = tmp_path / "trace.iq"
        main(["generate", "--config", str(noise_config), "--out", str(out)])
        series = load_iq_trace(out)
        assert len(series) == 1024
        assert series.mean_power() == pytest.approx(1.0, rel=1e-3)

    def test_generated_scenario_reanalyzes_to_target_snr(self, small_config, tmp_path, capsys):
        trace = tmp_path / "sig.iq"
        rc = main(["generate", "--config", str(small_config), "--out", str(trace)])
        assert rc == 0
        series = load_iq_trace(trace)
        # Whole-band mean power of a 0 dB scenario is twice the noise power.
        measured = series.mean_power()
        snr_db = 10 * np.log10(measured / 1.0 - 1.0)
        assert snr_db == pytest.approx(0.0, abs=0.2)

    def test_long_stream_peak_within_three_streams(self, tmp_path, capsys):
        # The long-stream workload's noise: 1000 frames of 512 bins of the
        # impulsive, tilted surrogate.  Synthesis, spectra, inverse transform
        # and the float32 write must fit in 3 complex128 copies of the stream.
        n_bins, n_frames = 512, 1000
        config = tmp_path / "generate.json"
        config.write_text(json.dumps({
            "name": "long-stream-noise", "n_bins": n_bins, "n_frames": n_frames,
            "noise": {"kind": "surrogate-industrial", "seed": 0,
                      "params": {"impulse_rate": 0.002, "impulse_amplitude_factor": 8.0,
                                 "spectral_tilt_db_per_decade": -3.0}},
        }))
        argv = ["generate", "--config", str(config), "--out", str(tmp_path / "noise.iq")]
        codes = []
        peak = traced_peak(lambda: codes.append(main(argv)))
        assert codes == [0]
        assert peak <= 3 * 16 * n_bins * n_frames

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["generate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.iq")])
        assert rc == 2


class TestRun:
    def test_default_method_matrix(self, small_config, tmp_path):
        out = tmp_path / "results"
        rc = main(["run", "--config", str(small_config), "--out", str(out),
                   "--seeds", "0"])
        assert rc == 0
        report_rows = (out / "report.csv").read_text().splitlines()
        assert len(report_rows) - 1 == 9  # ML/MVU x 3 separations + AIC + CBE + MMSE

    def test_unknown_method_exits_2(self, small_config, tmp_path):
        rc = main(["run", "--config", str(small_config),
                   "--out", str(tmp_path / "r"), "--method", "KALMAN"])
        assert rc == 2

    def test_unknown_override_exits_2(self, small_config, tmp_path):
        rc = main(["run", "--config", str(small_config), "--out", str(tmp_path / "r"),
                   "--method", "AIC", "--override", "bogus_key=1"])
        assert rc == 2

    def test_multi_seed_run(self, small_config, tmp_path):
        out = tmp_path / "r"
        rc = main(["run", "--config", str(small_config), "--out", str(out),
                   "--method", "AIC", "--seeds", "0,1"])
        assert rc == 0
        seeds = {row.split(",")[1] for row in (out / "series.csv").read_text().splitlines()[1:]}
        assert seeds == {"0", "1"}

    def test_repeated_seed_exits_2(self, small_config, tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["run", "--config", str(small_config), "--out", str(out),
                   "--method", "AIC", "--seeds", "3,0,3"])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed 3 is given more than once\n"
        assert not (out / "series.csv").exists()

    def test_override_list_index(self, small_config, tmp_path, capsys):
        rc = main(["generate", "--config", str(small_config), "--out", str(tmp_path / "s.iq"),
                   "--override", "signals.0.target_snr_db=-10"])
        assert rc == 0
        assert "true SNR range: -10 .. -10 dB" in capsys.readouterr().out

    @pytest.mark.parametrize("part, message", [
        ("1", "index 1 out of range"),
        ("first", "'first' is not a list index"),
    ])
    def test_override_bad_list_index_exits_2(self, small_config, tmp_path, capsys,
                                             part, message):
        rc = main(["run", "--config", str(small_config), "--out", str(tmp_path / "r"),
                   "--method", "AIC", "--override", f"signals.{part}.target_snr_db=-10"])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("head, message", [
        ("zero", "error: all-zero power spectrum"),
        ("ramp", "error: ROF marked every bin as signal"),
    ])
    def test_degenerate_rof_window_exits_3(self, tmp_path, capsys, head, message):
        # The first frame of the trace is its own first ML(rof) window; its
        # mask cannot be built, whether or not the windows after it are batched.
        n_bins, n_frames = 16, 6
        rng = np.random.default_rng(5)
        size = n_bins * n_frames
        samples = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if head == "zero":
            samples[:n_bins] = 0.0
        else:
            samples[:n_bins] = np.fft.ifft(np.sqrt(n_bins * np.linspace(1.0, 50.0, n_bins)))
        trace = tmp_path / "head.iq"
        write_iq_trace(trace, ComplexSeries(samples=samples))
        config = tmp_path / "head.json"
        config.write_text(json.dumps({
            "name": "degenerate-head", "n_bins": n_bins, "n_frames": n_frames,
            "noise": {"kind": "trace-file", "path": str(trace)},
        }))
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                   "--method", "ML:rof"])
        assert rc == 3
        assert capsys.readouterr().err.strip() == message
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                   "--method", "MVU:rof"])
        assert rc == 0

    @pytest.mark.parametrize("method", ["ML:ideal", "MVU:ideal"])
    def test_all_signal_ideal_frame_exits_3(self, tmp_path, capsys, method):
        # One subband spanning the band, fully occupied from frame 30 on:
        # those ground-truth frames have no noise bin to estimate from.
        config = tmp_path / "full.json"
        config.write_text(json.dumps({
            "name": "all-signal", "n_bins": 64, "n_frames": 40, "subband_count": 1,
            "noise": {"kind": "white-gaussian", "seed": 2},
            "signals": [{"subband_index": 0, "occupancy_fraction": 1.0,
                         "target_snr_db": 0.0, "frame_start": 30}],
        }))
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                   "--method", method])
        assert rc == 3
        assert capsys.readouterr().err.strip() == "error: mask classifies every bin as signal"
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                   "--method", method.replace("ideal", "fisher")])
        assert rc == 0

    @pytest.mark.parametrize("method, message", [
        ("CBE", "error: S=100 signal eigenvalues leave no noise group (M=100)"),
        ("MVU:ideal", "error: mask classifies every bin as signal"),
    ])
    def test_full_occupancy_exits_3(self, tmp_path, capsys, method, message):
        # A valid config whose four signals cover every bin: ground truth
        # leaves no noise bin, so every method that reads it meets bad data.
        signals = [{"subband_index": i, "occupancy_fraction": 1.0, "target_snr_db": 0.0}
                   for i in range(4)]
        config = tmp_path / "full.json"
        config.write_text(json.dumps({
            "name": "full-occupancy", "n_bins": 128, "n_frames": 110,
            "noise": {"kind": "white-gaussian", "seed": 3}, "signals": signals,
        }))
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                   "--method", method])
        assert rc == 3
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("fraction", [1.0, -0.1])
    def test_explicit_occupied_fraction_out_of_range_exits_2(self, small_config, tmp_path,
                                                             capsys, monkeypatch, fraction):
        # The CLI has no flag for method parameters, so the parsed method is swapped in.
        from noisebench import cli
        monkeypatch.setattr(cli, "_parse_method", lambda text: bench.MethodSpec(
            "CBE", params={"occupied_fraction": fraction, "window_frames": 20}))
        rc = main(["run", "--config", str(small_config), "--out", str(tmp_path / "r"),
                   "--method", "CBE"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == "error: occupied_fraction must lie in [0, 1)"

    @pytest.mark.parametrize("method", ["ML:ideal", "ML:fisher"])
    def test_zero_power_frame_under_ml(self, tmp_path, capsys, method):
        # A silent third frame: every separation leaves noise bins of zero
        # power there, and ML's estimate of that frame is 0.
        n_bins, n_frames = 32, 8
        rng = np.random.default_rng(6)
        size = n_bins * n_frames
        samples = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        samples[2 * n_bins:3 * n_bins] = 0.0
        trace = tmp_path / "silent.iq"
        write_iq_trace(trace, ComplexSeries(samples=samples))
        data = {"name": "silent-frame", "n_bins": n_bins, "n_frames": n_frames,
                "noise": {"kind": "trace-file", "path": str(trace)}}
        config = tmp_path / "silent.json"
        config.write_text(json.dumps(data))
        spec = bench.MethodSpec("ML", method.partition(":")[2])
        with pytest.raises(ZeroPowerError, match="ml: .* positive, got 0.0"):
            bench.run_scenario(scenario_config_from_dict(data), [spec], [0])
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                   "--method", method])
        assert rc == 3
        assert "ml: estimate must be finite and positive" in capsys.readouterr().err

    def test_mmse_on_switching_trace_exits_3(self, switching_trace_config, tmp_path, capsys):
        rc = main(["run", "--config", str(switching_trace_config), "--out", str(tmp_path / "r"),
                   "--method", "MMSE"])
        assert rc == 3
        assert "non-positive estimate" in capsys.readouterr().err

    def test_singular_mmse_system_exits_3(self, small_config, tmp_path, capsys, monkeypatch):
        # No window converges by conjugate gradients, and Levinson fails even with the ridge.
        monkeypatch.setattr(estimators, "MMSE_PCG_MAX_ITER", 0)
        monkeypatch.setattr(estimators, "_try_toeplitz", lambda column, rhs: None)
        rc = main(["run", "--config", str(small_config), "--out", str(tmp_path / "r"),
                   "--method", "MMSE"])
        assert rc == 3
        assert capsys.readouterr().err.strip() == (
            "error: MMSE weight system is singular even after ridge")

    def test_override_determinism(self, small_config, tmp_path):
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["run", "--config", str(small_config), "--out", str(out),
                       "--method", "MVU:rof", "--method", "AIC",
                       "--seeds", "3,4", "--override", "noise.seed=7"])
            assert rc == 0
            outputs.append(((out / "series.csv").read_bytes(),
                            (out / "report.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (errors.InsufficientSamplesError, 3), (errors.TraceFormatError, 3),
        (errors.ZeroPowerError, 3), (errors.DegenerateSpectrumError, 3),
        (errors.EmptyNoiseGroupError, 3), (ValueError, 2),
    ])
    def test_data_errors_exit_3_and_other_value_errors_2(self, error, code, monkeypatch,
                                                          capsys):
        def fail(args):
            raise error("boom")
        monkeypatch.setattr(cli, "cmd_ops", fail)
        assert main(["ops", "--sizes", "16"]) == code
        assert capsys.readouterr().err == "error: boom\n"

    def test_invalid_json_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (")

    @pytest.mark.parametrize("args", [["run", "--out", "r"], ["estimate", "--method", "AIC"]],
                             ids=["run", "estimate"])
    def test_bad_sample_rate_exits_2(self, small_config, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        rc = main([args[0], "--config", str(small_config), "--override", "sample_rate_hz=-1",
                   *args[1:]])
        assert rc == 2
        assert capsys.readouterr().err == "error: sample_rate_hz must be positive and finite\n"


@pytest.fixture(scope="module")
def typed_config(tmp_path_factory):
    """A small config with an entry in every section, for the override type checks."""
    path = tmp_path_factory.mktemp("typed") / "config.json"
    path.write_text(json.dumps({
        "name": "typed", "n_bins": 128, "n_frames": 40,
        "noise": {"kind": "white-gaussian", "seed": 0, "params": {"impulse_rate": 0.001}},
        "signals": [{"subband_index": 2, "occupancy_fraction": 1.0, "target_snr_db": 0.0}],
        "snr_schedule": [{"frame_start": 10, "frame_end": 30, "target_snr_db": -3.0}],
    }))
    return path


# One value key of every section, with the Python types its JSON value may have.
TYPED_KEYS = {
    "subband_count": (int,), "noise.seed": (int,), "noise.params.impulse_rate": (int, float),
    "signals.0.subband_index": (int,), "snr_schedule.0.target_snr_db": (int, float),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=6)


class TestConfigTypes:
    @pytest.mark.parametrize("override, message", [
        ("n_bins=512.0", "n_bins must be an integer, got 512.0"),
        ("n_frames=true", "n_frames must be an integer, got True"),
        ("subband_count=4.0", "subband_count must be an integer, got 4.0"),
        ("n_bins=abc", "n_bins must be an integer, got 'abc'"),
        ("noise.seed=1.5", "noise.seed must be an integer, got 1.5"),
        ("name=7", "name must be a string, got 7"),
        ("reference_noise_power_mw=false", "reference_noise_power_mw must be a number, got False"),
        ("signals.0.frame_end=\"7\"", "signals.0.frame_end must be an integer or null, got '7'"),
        ("noise=7", "noise must be an object, got 7"),
        ("signals=7", "signals must be an array, got 7"),
        ("signals=[{}]", "missing key(s) in signals[0]: occupancy_fraction, subband_index"),
    ])
    def test_wrong_type_exits_2_naming_the_key(self, typed_config, capsys, override, message):
        rc = main(["estimate", "--config", str(typed_config), "--method", "AIC",
                   "--override", override])
        assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("override, message", [
        ("reference_noise_power_mw=1e300",
         "reference_noise_power_mw must be finite and at most 1e+50 mW"),
        ("reference_noise_power_mw=NaN",
         "reference_noise_power_mw must be finite and at most 1e+50 mW"),
        ("snr_schedule.0.target_snr_db=3056",   # 10 ** 305.6 overflowed the block's powers
         "a target SNR of 3056 dB must give a finite signal power of at most 1e+50 mW"),
        ("signals.0.target_snr_db=5000",        # 10 ** 500 overflows a Python float
         "a target SNR of 5000 dB must give a finite signal power of at most 1e+50 mW"),
    ])
    def test_power_out_of_range_exits_2(self, typed_config, capsys, override, message):
        rc = main(["estimate", "--config", str(typed_config), "--method", "AIC",
                   "--override", override])
        assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("overrides", [
        ["signals.0.frame_end=-3"],
        ["signals.0.frame_start=10", "signals.0.frame_end=10"],
    ], ids=["negative-end", "empty-range"])
    def test_signal_without_active_frames_exits_2(self, typed_config, capsys, overrides):
        args = [arg for override in overrides for arg in ("--override", override)]
        rc = main(["estimate", "--config", str(typed_config), "--method", "AIC", *args])
        assert (rc, capsys.readouterr().err) == (2, "error: frame_end must lie after frame_start\n")

    def test_integer_for_a_number_and_null_for_an_optional_key(self, typed_config, capsys):
        rc = main(["estimate", "--config", str(typed_config), "--method", "AIC",
                   "--override", "reference_noise_power_mw=1", "--override",
                   "signals.0.frame_end=null", "--override", "noise.params.impulse_rate=0"])
        assert rc == 0

    @given(st.sampled_from([*TYPED_KEYS, "noise.params", "snr_schedule"]), JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_any_json_value_is_never_an_internal_error(self, typed_config, key, value):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["estimate", "--config", str(typed_config), "--method", "AIC",
                       "--override", f"{key}={json.dumps(value)}"])
        assert rc != 1, err.getvalue()
        types = TYPED_KEYS.get(key)
        if types and (isinstance(value, bool) or not isinstance(value, types)):
            assert rc == 2 and err.getvalue().startswith(f"error: {key} must be ")


class TestSeparate:
    def _write_power_csv(self, path, values):
        path.write_text("\n".join("%.9g" % v for v in values) + "\n")

    def test_two_band_spectrum(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        p = rng.exponential(1.0, 512)
        p[50:80] += 50.0
        p[300:360] += 50.0
        src = tmp_path / "power.csv"
        self._write_power_csv(src, p)
        out = tmp_path / "sep.csv"
        rc = main(["separate", "--power-csv", str(src), "--out", str(out)])
        assert rc == 0
        assert "2 signal band(s)" in capsys.readouterr().out

    def test_flat_spectrum_all_noise(self, tmp_path):
        src = tmp_path / "flat.csv"
        self._write_power_csv(src, np.full(64, 2.0))
        out = tmp_path / "sep.csv"
        rc = main(["separate", "--power-csv", str(src), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        bin_rows = [r for r in rows if r.startswith("bin,")]
        assert all(r.split(",")[4] == "0" for r in bin_rows)

    def test_diagnostics_row_count(self, tmp_path):
        rng = np.random.default_rng(3)
        src = tmp_path / "p.csv"
        n = 128
        self._write_power_csv(src, rng.exponential(1.0, n))
        out = tmp_path / "sep.csv"
        assert main(["separate", "--power-csv", str(src), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) - 1 == n + (n - 1)  # mask rows plus energy-drop rows

    def test_degenerate_spectrum_exits_3(self, tmp_path):
        src = tmp_path / "ramp.csv"
        self._write_power_csv(src, np.linspace(1.0, 50.0, 64))
        rc = main(["separate", "--power-csv", str(src), "--out", str(tmp_path / "o.csv")])
        assert rc == 3

    def test_trace_input(self, noise_config, tmp_path):
        trace = tmp_path / "t.iq"
        main(["generate", "--config", str(noise_config), "--out", str(trace)])
        out = tmp_path / "sep.csv"
        rc = main(["separate", "--input", str(trace), "--n-bins", "256",
                   "--frames", "4", "--out", str(out)])
        assert rc == 0


class TestEstimate:
    def test_single_estimate(self, small_config, capsys):
        rc = main(["estimate", "--config", str(small_config), "--method", "AIC"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("method,separation")
        fields = out[1].split(",")
        assert fields[0] == "AIC"
        assert float(fields[3]) > 0


class TestEstimateLastWindow:
    # More frames than the 100-frame default window, so the windowed methods
    # have 31 windows and the estimate evaluates only the last of them.
    DATA = {
        "name": "estimate-last", "n_bins": 128, "n_frames": 130,
        "noise": {"kind": "white-gaussian", "seed": 4},
        "signals": [{"subband_index": 2, "occupancy_fraction": 1.0, "target_snr_db": 0.0}],
    }

    @pytest.mark.parametrize("method", _DEFAULT_METHODS)
    def test_line_matches_last_series_entry(self, tmp_path, capsys, method):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.DATA))
        assert main(["estimate", "--config", str(config), "--method", method]) == 0
        printed = capsys.readouterr().out
        spec = _parse_method(method)
        series = bench.run_scenario(scenario_config_from_dict(self.DATA), [spec], [4])[0]
        i = len(series) - 1
        header = "method,separation,frame_index,noise_power_est_mw,snr_est_db\n"
        want = header + "%s,%s,%d,%.9g,%.9g\n" % (
            series.method, series.separation, series.frame_index[i],
            series.noise_power_est_mw[i], series.snr_est_db[i])
        assert printed == want
        assert series.frame_index[i] == 129


class TestOps:
    def test_two_sizes_quadratic_ratio(self, tmp_path, capsys):
        rc = main(["ops", "--sizes", "128,256", "--method", "ML:rof"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        small = int(lines[1].split(",")[-1])
        large = int(lines[2].split(",")[-1])
        assert 3.5 <= large / small <= 4.5

    def test_empty_sizes_exits_2(self):
        assert main(["ops", "--sizes", " "]) == 2

    def test_small_sizes_exits_2(self):
        assert main(["ops", "--sizes", "8"]) == 2

    def test_all_default_methods_one_size(self, capsys):
        rc = main(["ops", "--sizes", "32"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) - 1 == 5

    def test_rows_follow_given_sizes(self, capsys):
        assert main(["ops", "--sizes", "512,16,512,64"]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = []
        for spec in map(_parse_method, ["ML:rof", "ML:fisher", "AIC", "CBE", "MMSE"]):
            for size in (512, 16, 512, 64):
                c = bench.count_ops(spec, size).counts
                want.append("%s,%s,%d,%d,%d,%d,%d,%d" % (
                    spec.estimator, spec.separation, size, c.adds, c.muls, c.cmps,
                    c.transcendental, c.total()))
        assert lines[1:] == want

    def test_output_file(self, tmp_path):
        out = tmp_path / "ops.csv"
        rc = main(["ops", "--sizes", "32", "--method", "AIC", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("method,separation,size")


class TestConvert:
    def test_raw_csv_raw_round_trip(self, noise_config, tmp_path):
        trace = tmp_path / "t.iq"
        main(["generate", "--config", str(noise_config), "--out", str(trace)])
        as_csv = tmp_path / "t.csv"
        back = tmp_path / "t2.iq"
        assert main(["convert", "--input", str(trace), "--out", str(as_csv),
                     "--to", "csv"]) == 0
        assert main(["convert", "--input", str(as_csv), "--out", str(back),
                     "--to", "raw"]) == 0
        assert trace.read_bytes() == back.read_bytes()


    def test_empty_trace_round_trip(self, tmp_path, capsys):
        trace, as_csv, back = tmp_path / "e.iq", tmp_path / "e.csv", tmp_path / "e2.iq"
        trace.write_bytes(b"")
        assert main(["convert", "--input", str(trace), "--out", str(as_csv), "--to", "csv"]) == 0
        assert as_csv.read_bytes() == b""
        assert main(["convert", "--input", str(as_csv), "--out", str(back), "--to", "raw"]) == 0
        assert back.read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_blank_lines_skipped(self, tmp_path):
        as_csv, back = tmp_path / "t.csv", tmp_path / "t.iq"
        as_csv.write_text("1,-2\n\n0.5,3\n")
        assert main(["convert", "--input", str(as_csv), "--out", str(back), "--to", "raw"]) == 0
        np.testing.assert_array_equal(load_iq_trace(back).samples, [1 - 2j, 0.5 + 3j])

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3,x\n", "could not convert string 'x'"),
        ("1,2\n3,4,5\n", "the number of columns changed from 2 to 3"),
        ("1,2,3\n4,5,6\n", "expected two columns (I, Q), got 3"),
        ("1\n2\n", "expected two columns (I, Q), got 1"),
        ("1,2\nnan,4\n", "non-finite value at sample 1"),
        ("1,2\n3,4\n5,-inf\n", "non-finite value at sample 2"),
        ("1e39,2\n", "non-finite value at sample 0"),
        ("\xff\n", "can't decode byte"),
    ], ids=["non-numeric", "ragged", "three-columns", "one-column", "nan", "inf",
            "float32-overflow", "not-text"])
    def test_malformed_csv_exits_3_naming_the_file(self, tmp_path, capsys, text, message):
        as_csv, back = tmp_path / "t.csv", tmp_path / "t.iq"
        as_csv.write_bytes(text.encode("latin-1"))
        assert main(["convert", "--input", str(as_csv), "--out", str(back), "--to", "raw"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {as_csv}: ") and message in err
        assert not back.exists()

    def test_csv_text_matches_per_sample_formatting(self, noise_config, tmp_path):
        trace = tmp_path / "t.iq"
        main(["generate", "--config", str(noise_config), "--out", str(trace)])
        as_csv = tmp_path / "t.csv"
        assert main(["convert", "--input", str(trace), "--out", str(as_csv), "--to", "csv"]) == 0
        want = "".join("%.9g,%.9g\n" % (s.real, s.imag) for s in load_iq_trace(trace).samples)
        assert as_csv.read_text() == want

    def test_csv_peak_within_two_streams(self, tmp_path, monkeypatch):
        # The Python floats of one slice are alive at a time; those of the
        # whole trace would add about 4 complex128 copies of the stream.
        monkeypatch.setattr(cli, "_CSV_SLICE", 4096)
        n = 16 * 4096
        trace = tmp_path / "t.iq"
        write_iq_trace(trace, synth_white_noise(n, 1.0, seed=0))
        argv = ["convert", "--input", str(trace), "--out", str(tmp_path / "t.csv"), "--to", "csv"]
        codes = []
        peak = traced_peak(lambda: codes.append(main(argv)))
        assert codes == [0]
        assert peak <= 2 * 16 * n


class TestSampleConfig:
    def test_checked_in_config_parses(self):
        from noisebench import scenario_config_from_file
        cfg = scenario_config_from_file("configs/ism_benchmark.json")
        assert cfg.n_bins == 512
        assert cfg.signals[0].target_snr_db == 0.0


@pytest.fixture
def blas_threads():
    """Reader of numpy's OpenBLAS thread count, set to 2 for the test and restored after."""
    functions = cli._openblas_thread_functions()
    if functions is None:
        pytest.skip("no OpenBLAS thread-count symbol resolves in this numpy")
    get, set_ = functions
    original = get()
    set_(2)
    try:
        yield get
    finally:
        set_(original)


class TestBlasPin:
    def test_run_computes_on_one_thread_and_restores(self, small_config, tmp_path,
                                                     blas_threads, monkeypatch):
        seen = []
        fit = estimators.cbe_fit_windows

        def recording_fit(*args, **kwargs):
            seen.append(blas_threads())
            return fit(*args, **kwargs)

        monkeypatch.setattr(estimators, "cbe_fit_windows", recording_fit)
        before = blas_threads()
        assert main(["run", "--config", str(small_config), "--out", str(tmp_path / "r")]) == 0
        assert seen == [1]
        assert blas_threads() == before

    def test_exit_3_restores(self, small_config, tmp_path, capsys, blas_threads, monkeypatch):
        seen = []

        def failing_toeplitz(column, rhs):
            seen.append(blas_threads())
            return None

        monkeypatch.setattr(estimators, "MMSE_PCG_MAX_ITER", 0)
        monkeypatch.setattr(estimators, "_try_toeplitz", failing_toeplitz)
        before = blas_threads()
        rc = main(["run", "--config", str(small_config), "--out", str(tmp_path / "r"),
                   "--method", "MMSE"])
        assert rc == 3
        assert "singular even after ridge" in capsys.readouterr().err
        assert seen and set(seen) == {1}
        assert blas_threads() == before

    def test_outputs_match_unpinned_run(self, tmp_path, blas_threads, monkeypatch):
        argv = ["run", "--config", str(ROOT / "configs" / "ism_benchmark.json"),
                "--seeds", "0,1", "--out"]
        assert main(argv + [str(tmp_path / "pinned")]) == 0
        monkeypatch.setattr(cli, "_one_blas_thread", contextlib.nullcontext)
        assert main(argv + [str(tmp_path / "free")]) == 0
        for name in ("series.csv", "report.csv"):
            assert ((tmp_path / "pinned" / name).read_bytes()
                    == (tmp_path / "free" / name).read_bytes())


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, noisebench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"
