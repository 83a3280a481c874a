from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse(compare, *argv):
    return compare.build_parser().parse_args(["--parent", ".", "--change", ".", *argv])


class TestCompareOutputs:
    def test_default_set(self, compare, tmp_path):
        calls = compare.invocations(parse(compare), tmp_path)
        labels = [call.label for call in calls]
        # Two seed lists of a white and a surrogate run, eight long-stream entries
        # of a generate, two trace separates (512 and 509 bins), two converts,
        # six runs, a run shorter than the trace and two power-file separates,
        # ops, nine estimates.
        assert len(calls) == 2 * 2 + 8 * 14 + 1 + 9 == 126
        twenty = ",".join(map(str, range(20)))
        assert labels[:4] == ["run --seeds 0,1", "surrogate run --seeds 0,1",
                              f"run --seeds {twenty}", f"surrogate run --seeds {twenty}"]
        assert calls[1].argv[5:11] == ("--override", "name=ism-surrogate-industrial--3dB",
                                       "--override", "noise.kind=surrogate-industrial",
                                       "--override", "signals.0.target_snr_db=-3")
        assert labels[4:18] == ["long-stream 0 generate", "long-stream 0 separate",
                                "long-stream 0 separate --n-bins 509",
                                "long-stream 0 convert --to csv",
                                "long-stream 0 convert --to raw"] + [
            f"long-stream 0 run {m}" for m in ("ML:ideal", "ML:fisher", "MVU:ideal",
                                               "MVU:fisher", "AIC", "MMSE")] + [
            "long-stream 0 run MVU:fisher --override n_frames=900",
            "long-stream 0 separate --power-csv power.csv",
            "long-stream 0 separate --power-csv negative-power.csv"]
        assert [call.exit for call in calls[4:18]] == [None, None, 0, 0, 0] + [None] * 6 + [0, 0, 3]
        assert calls[15].argv == ("run", "--config", "long-stream-0/run.json", "--method",
                                  "MVU:fisher", "--override", "n_frames=900", "--out",
                                  "long-stream-0/out-MVU-fisher-900")
        assert calls[6].argv == ("separate", "--input", "long-stream-0/noise.iq", "--frames",
                                 "100", "--n-bins", "509", "--out",
                                 "long-stream-0/separate-509.csv")
        assert calls[7].argv == ("convert", "--input", "long-stream-0/noise.iq", "--to", "csv",
                                 "--out", "long-stream-0/noise.csv")
        assert calls[8].argv == ("convert", "--input", "long-stream-0/noise.csv", "--to", "raw",
                                 "--out", "long-stream-0/round-trip.iq")
        assert calls[8].outputs == ("long-stream-0/round-trip.iq",)
        assert labels[-10] == "ops --sizes 16,17,64,64,128,256,512,1024,2048,4096,4097"
        assert calls[-10].argv[3:-2] == tuple(
            arg for method in compare.DEFAULT_METHODS for arg in ("--method", method))
        assert (tmp_path / "long-stream-7" / "run.json").exists()

    @pytest.mark.parametrize("entry", range(8))
    def test_shorter_run_reads_the_entrys_longer_trace(self, compare, tmp_path, entry):
        # The 900-frame run reads the config of the entry's other runs, whose
        # trace holds more frames than the run uses, at the same bin count.
        args = parse(compare, "--seeds", "", "--entries", str(entry), "--ops-sizes", "",
                     "--estimate-methods", "")
        calls = {call.label: call for call in compare.invocations(args, tmp_path)}
        short = calls[f"long-stream {entry} run MVU:fisher --override n_frames=900"]
        assert short.exit == 0
        assert short.argv[:5] == calls[f"long-stream {entry} run MVU:fisher"].argv[:5]
        folder = tmp_path / f"long-stream-{entry}"
        run = json.loads((folder / "run.json").read_text(encoding="utf-8"))
        generate = json.loads((folder / "generate.json").read_text(encoding="utf-8"))
        assert run["noise"] == {"kind": "trace-file", "path": str(folder / "noise.iq")}
        assert calls[f"long-stream {entry} generate"].outputs == (f"{folder.name}/noise.iq",)
        assert run["n_bins"] == generate["n_bins"]
        assert run["n_frames"] == generate["n_frames"] > 900

    def test_power_files_separate_and_a_negative_bin_exits_3(self, compare, tmp_path):
        args = parse(compare, "--seeds", "", "--entries", "3", "--ops-sizes", "",
                     "--estimate-methods", "")
        power, negative = compare.invocations(args, tmp_path)[-2:]
        lines = (tmp_path / "long-stream-3" / "negative-power.csv").read_text().splitlines()
        assert len(lines) == 512 and lines[103] == "-1"
        assert lines[:103] + lines[104:] == ["%.9g" % v for i, v in
                                            enumerate(compare.power_values(3)) if i != 103]
        ok = compare.run_side(ROOT, tmp_path, power)
        assert ok["exit"] == 0 and ok["long-stream-3/separate-power.csv"] is not None
        assert ok["stdout"].startswith(b"K = ")
        bad = compare.run_side(ROOT, tmp_path, negative)
        assert bad["exit"] == 3 and bad["long-stream-3/separate-negative-power.csv"] is None
        assert bad["stderr"] == (b"error: long-stream-3/negative-power.csv: "
                                 b"value -1 at bin 103 outside [0, 1e+50]\n")

    def test_an_unexpected_exit_code_fails_on_both_sides(self, compare, monkeypatch, capsys):
        # ops at size 3 is a usage error, exit 2, on either side.
        call = compare.Invocation("ops --sizes 3", ("ops", "--sizes", "3"), (), 0)
        monkeypatch.setattr(compare, "invocations", lambda args, work: [call])
        assert compare.main(["--parent", str(ROOT), "--change", str(ROOT)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "ops --sizes 3: exit 2, DIFFERS in exit code (expected 0)",
            "0 of 1 invocations agree"]

    def test_sets_can_be_left_out(self, compare, tmp_path):
        args = parse(compare, "--seeds", "", "--entries", "", "--ops-sizes", "",
                     "--estimate-methods", "AIC")
        assert [call.label for call in compare.invocations(args, tmp_path)] == ["estimate AIC"]

    def test_same_checkout_agrees_and_a_changed_one_does_not(self, compare, tmp_path, capsys):
        argv = ["--seeds", "", "--entries", "", "--ops-sizes", "16,32",
                "--estimate-methods", "AIC"]
        assert compare.main(["--parent", str(ROOT), "--change", str(ROOT), *argv]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 invocations agree"
        changed = tmp_path / "changed"
        shutil.copytree(ROOT / "src", changed / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        cli = changed / "src" / "noisebench" / "cli.py"
        header = "method,separation,frame_index,noise_power_est_mw,snr_est_db"
        cli.write_text(cli.read_text().replace(header, header.upper()))
        assert compare.main(["--parent", str(ROOT), "--change", str(changed), *argv]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ops --sizes 16,32: exit 0, same"
        assert out[1] == "estimate AIC: exit 0, DIFFERS in stdout"
        assert out[-1] == "1 of 2 invocations agree"
