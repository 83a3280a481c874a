from __future__ import annotations

import json

import numpy as np
import pytest

from noisebench import (ComplexSeries, ZeroPowerError, bench, load_iq_trace,
                        scenario_config_from_dict, write_iq_trace)
from noisebench.cli import _DEFAULT_METHODS, _parse_method, main


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
        write_iq_trace(trace, ComplexSeries(samples=samples, sample_rate_hz=10e6))
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
        write_iq_trace(trace, ComplexSeries(samples=samples, sample_rate_hz=10e6))
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


class TestSampleConfig:
    def test_checked_in_config_parses(self):
        from noisebench import scenario_config_from_file
        cfg = scenario_config_from_file("configs/ism_benchmark.json")
        assert cfg.n_bins == 512
        assert cfg.signals[0].target_snr_db == 0.0
