from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ESTIMATE_HEADER = "method,separation,frame_index,noise_power_est_mw,snr_est_db"


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
        cli.write_text(cli.read_text().replace(ESTIMATE_HEADER, ESTIMATE_HEADER.upper()))
        assert compare.main(["--parent", str(ROOT), "--change", str(changed), *argv]) == 1
        # The differing invocation says which lines of its stdout differ.
        assert capsys.readouterr().out.splitlines() == [
            "ops --sizes 16,32: exit 0, same",
            "estimate AIC: exit 0, DIFFERS in stdout",
            "  stdout:",
            "    2 lines differ",
            f"    -{ESTIMATE_HEADER}",
            f"    +{ESTIMATE_HEADER.upper()}",
            "1 of 2 invocations agree"]


# Scratch copies of src/, each with one change to its outputs.
EDITS = {
    # The last field, snr_true_db, of the fourth series row.
    "value": ("bench.py", "    _write_csv(path, SERIES_COLUMNS, lines)",
              "    lines[3] = lines[3].rsplit(',', 1)[0] + ',9\\n'\n"
              "    _write_csv(path, SERIES_COLUMNS, lines)"),
    "column": ("bench.py", '"wall_time_ms",\n)', '"wall_time_ms", "extra",\n)'),
}


@pytest.fixture(scope="module")
def checkouts(tmp_path_factory):
    """Scratch checkouts, one per entry of EDITS; the column edit also ends each
    report row with its new field."""
    made = {}
    for name, (module, old, new) in EDITS.items():
        root = tmp_path_factory.mktemp(name)
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = root / "src" / "noisebench" / module
        text = path.read_text()
        assert text.count(old) == 1
        text = text.replace(old, new)
        if name == "column":
            row = '_REPORT_ROW = "%s,%s,%s,%d,%.9g,%.9g,%.9g,%d,%d,%d,%d,%.9g\\n"'
            assert text.count(row) == 1
            text = text.replace(row, row.replace('\\n"', ',0\\n"'))
        path.write_text(text)
        made[name] = root
    return made


def small_run(compare, monkeypatch):
    """The invocation set becomes one 20-frame run of ML(ideal) on seed 0."""
    call = compare.Invocation(
        "run ML:ideal", ("run", "--config", str(ROOT / "configs" / "ism_benchmark.json"),
                         "--seeds", "0", "--method", "ML:ideal", "--override", "n_frames=20",
                         "--out", "r"), ("r/series.csv", "r/report.csv"))
    monkeypatch.setattr(compare, "invocations", lambda args, work: [call])


def declare(tmp_path, changes) -> str:
    path = tmp_path / "expect.json"
    path.write_text(json.dumps(changes), encoding="utf-8")
    return str(path)


class TestDiffAndExpect:
    def test_one_changed_series_value_is_reported_and_expect_passes_it(
            self, compare, checkouts, monkeypatch, tmp_path, capsys):
        small_run(compare, monkeypatch)
        expect = declare(tmp_path, [{"output": "*/series.csv", "change": "value",
                                     "column": "snr_true_db", "method": "ML(ideal)"}])
        assert compare.main(["--parent", str(ROOT), "--change", str(checkouts["value"]),
                             "--expect", expect]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == ["run ML:ideal: exit 0, DIFFERS in r/series.csv", "  r/series.csv:",
                           "    changed rows: 1"]
        assert out[3].startswith("      (0, ML, ideal, 3): snr_true_db ")
        assert out[3].endswith(" -> 9")
        assert out[4].startswith("    column snr_true_db: 1 changed, largest change ")
        assert out[5:] == ["0 of 1 invocations agree",
                           "1 of 1 changes declared; 1 of 1 declared changes happened"]

    def test_an_added_report_column_is_reported_and_expect_fails_it_undeclared(
            self, compare, checkouts, monkeypatch, tmp_path, capsys):
        small_run(compare, monkeypatch)
        argv = ["--parent", str(ROOT), "--change", str(checkouts["column"])]
        assert compare.main([*argv, "--expect", declare(tmp_path, [])]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "run ML:ideal: exit 0, DIFFERS in r/report.csv",
            "  r/report.csv:",
            "    column added: extra",
            "0 of 1 invocations agree",
            'undeclared change: {"invocation": "run ML:ideal", "output": "r/report.csv", '
            '"change": "column added", "column": "extra"}',
            "0 of 1 changes declared; 0 of 0 declared changes happened"]

    def test_expect_fails_a_declared_change_that_did_not_happen(
            self, compare, checkouts, monkeypatch, tmp_path, capsys):
        small_run(compare, monkeypatch)
        expect = declare(tmp_path, [
            {"invocation": "run *", "column": "snr_true_db"},
            {"output": "*/report.csv", "change": "column added", "column": "extra"}])
        assert compare.main(["--parent", str(ROOT), "--change", str(checkouts["value"]),
                             "--expect", expect]) == 1
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "0 of 1 invocations agree",
            'declared change did not happen: {"output": "*/report.csv", '
            '"change": "column added", "column": "extra"}',
            "1 of 1 changes declared; 1 of 2 declared changes happened"]

    def test_self_comparison_with_an_empty_declaration_passes(self, compare, tmp_path, capsys):
        argv = ["--parent", str(ROOT), "--change", str(ROOT), "--seeds", "", "--entries", "",
                "--ops-sizes", "16", "--estimate-methods", "",
                "--expect", declare(tmp_path, [])]
        assert compare.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "ops --sizes 16: exit 0, same", "1 of 1 invocations agree",
            "0 of 0 changes declared; 0 of 0 declared changes happened"]

    @pytest.mark.parametrize("declared", [{}, [{}], [{"colum": "x"}], [{"column": 1}]])
    def test_a_malformed_declaration_is_a_usage_error(self, compare, tmp_path, declared):
        with pytest.raises(SystemExit) as exc:
            compare.main(["--parent", ".", "--change", ".", "--expect",
                          declare(tmp_path, declared)])
        assert exc.value.code == 2

    def test_csv_rows_are_keyed_and_changes_measured(self, compare):
        # ops rows repeat a size, so the second occurrence of a key is its own row.
        old = (b"method,separation,size,ops_add\n"
               b"ML,rof,64,10\nML,rof,64,10\nAIC,none,64,5\nCBE,none,16,0\n")
        new = (b"method,separation,size,ops_add\n"
               b"ML,rof,64,10\nML,rof,64,12\nAIC,none,64,inf\nMMSE,none,16,1\n")
        lines, changes = compare.diff_csv(old, new)
        assert lines == [
            "rows removed: 1 ((CBE, none, 16))",
            "rows added: 1 ((MMSE, none, 16))",
            "changed rows: 2",
            "  (ML, rof, 64, #2): ops_add 10 -> 12",
            "  (AIC, none, 64): ops_add 5 -> inf",
            "column ops_add: 2 changed, largest change inf absolute, inf relative"]
        assert changes == [{"change": "rows removed", "method": "CBE"},
                           {"change": "rows added", "method": "MMSE"},
                           {"change": "value", "column": "ops_add", "method": "ML(rof)"},
                           {"change": "value", "column": "ops_add", "method": "AIC"}]
        # A file whose first line holds a number (a converted trace) has no header.
        lines, changes = compare.diff_csv(b"1,2\n3,4\n", b"1,2\n3,5\n7,8\n")
        assert lines == ["rows added: 1 ((3))", "changed rows: 1", "  (2): 2 4 -> 5",
                         "column 2: 1 changed, largest change 1 absolute, 0.25 relative"]
        assert changes == [{"change": "rows added"}, {"change": "value", "column": "2"}]
        # The first SHOWN changed rows are listed; the counts cover them all.
        lines, _ = compare.diff_csv(b"".join(b"%d\n" % i for i in range(12)),
                                    b"".join(b"%d\n" % -i for i in range(1, 13)))
        assert lines[0] == "changed rows: 12" and lines[1] == "  (1): 1 0 -> -1"
        assert lines[compare.SHOWN + 1:] == [
            "  ... 2 more", "column 1: 12 changed, largest change 23 absolute, inf relative"]
