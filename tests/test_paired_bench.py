from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired_bench",
                                                  ROOT / "scripts" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(rows_per_s: float, peak_rss_mb: float = 50.0, correct: bool = True) -> dict:
    values = {"setup_s": 0.3, "rows_per_s": rows_per_s, "cpu_ms_per_row": 1000.0 / rows_per_s,
              "peak_rss_mb": peak_rss_mb, "success_ratio": 1.0}
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}


def write_details(checkout: Path, workload: str, seed: int, rounds: list[tuple[float, float, int]],
                  speed: float) -> None:
    """The details file of one perfbench run: untraced (wall_s, cpu_s, rows) rounds, then a
    traced round that the raw numbers must skip."""
    out = checkout / ".perfbench_out"
    out.mkdir(exist_ok=True)
    rows = [{"traced": False, "wall_s": w, "cpu_s": c, "rows": n, "rows_per_s": n / w}
            for w, c, n in rounds]
    rows.append({"traced": True, "wall_s": 1.0, "cpu_s": 9.0, "rows": 1, "rows_per_s": 1.0})
    details = {"rounds": rows, "speed": {"during_median": speed, "idle_before": 1.1,
                                         "idle_after": 1.2}}
    (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(details))


class TestPairedBench:
    def test_quartiles_are_inclusive(self, paired):
        q = paired.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q["q1"], q["median"], q["q3"]) == (2.0, 3.0, 4.0)
        assert paired.quartiles([7.0])["q1"] == paired.quartiles([7.0])["q3"] == 7.0

    def test_metric_summary_follows_the_better_direction(self, paired):
        faster = paired.summarise_metric([100.0, 100.0, 100.0], [110.0, 90.0, 120.0],
                                         "rows/s", "higher", 0.25)
        assert faster["pairs_change_better"] == 2
        assert faster["median_change_relative"] == pytest.approx(0.10)
        leaner = paired.summarise_metric([50.0, 50.0], [60.0, 60.0], "MB", "lower", 0.15)
        assert leaner["pairs_change_better"] == 0
        assert leaner["median_change_relative"] == pytest.approx(-0.2)
        assert not leaner["within_bound"]

    @pytest.mark.parametrize("change, met", [
        ([110.0] * 9 + [99.0], True),     # 9 of 10 and well beyond the spread
        ([110.0] * 8 + [99.0] * 2, False),  # only 8 of 10
        ([101.0] * 10, False),            # every pair, but inside the spread
        ([100.0] * 10, False),            # ties count for neither side
    ])
    def test_claim_rule(self, paired, change, met):
        parent = [96.0, 98.0, 99.0, 100.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]
        metric = paired.summarise_metric(parent, change, "rows/s", "higher", 0.25)
        assert paired.claim_result(metric)["met"] is met

    def test_raw_numbers_are_round_medians_of_untraced_rounds(self, paired, tmp_path):
        write_details(tmp_path, "ref-matrix", 3, [(2.0, 1.0, 1000), (1.0, 0.2, 400),
                                                  (1.0, 0.3, 0)], speed=1.25)
        raw = paired.raw_numbers(tmp_path, "ref-matrix", 3)
        assert raw["rows_per_s"] == 400.0  # of 500, 400 and 0 rows/s
        assert raw["cpu_ms_per_row"] == 1.0  # of 1.0, 0.5 and 300 (a failed round is one row)
        assert raw["speed"] == {"during_median": 1.25, "idle_before": 1.1, "idle_after": 1.2}

    def test_record_alternates_and_merges_workloads(self, paired, tmp_path, monkeypatch):
        calls = []

        def run_once(checkout, workload, seed, seconds):
            calls.append((checkout.name, seed))
            # The change's scaled rate wins every pair, its raw rate only the first.
            raw_rate = 150.0 if checkout.name == "change" and seed == 5 else 100.0
            write_details(checkout, workload, seed, [(1.0, 0.5, raw_rate)], speed=1.3)
            return fake_run(120.0 if checkout.name == "change" else 100.0 + seed), {"nproc": 2}

        monkeypatch.setattr(paired, "run_once", run_once)
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
        (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        out = tmp_path / "BENCH_test.json"
        base = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--out", str(out), "--seconds", "1"]
        assert paired.main([*base, "--workload", "ops-sweep", "--pairs", "1"]) == 0
        calls.clear()
        assert paired.main([*base, "--workload", "ref-matrix", "--pairs", "3",
                            "--first-seed", "5", "--claim", "ref-matrix:rows_per_s"]) == 0
        assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                         ("parent", 7), ("change", 7)]
        record = json.loads(out.read_text())
        assert set(record["workloads"]) == {"ops-sweep", "ref-matrix"}
        ref = record["workloads"]["ref-matrix"]
        assert ref["seeds"] == [5, 6, 7]
        assert ref["first_in_pair"] == ["parent", "change", "parent"]
        assert ref["correct"] == {"parent": [True] * 3, "change": [True] * 3}
        assert record["claim"]["result"]["pairs_change_better"] == 3
        raw = ref["raw"]
        assert raw["metrics"]["rows_per_s"]["parent"]["runs"] == [100.0] * 3
        assert raw["metrics"]["rows_per_s"]["change"]["runs"] == [150.0, 100.0, 100.0]
        assert set(raw["metrics"]) == {"rows_per_s", "cpu_ms_per_row"}
        assert raw["speed"]["change"] == [{"during_median": 1.3, "idle_before": 1.1,
                                           "idle_after": 1.2}] * 3
        assert record["claim"]["raw_result"]["pairs_change_better"] == 1
        assert record["claim"]["raw_result"]["met"] is False
        assert record["command"].endswith("--seconds T --trace 0")

    def test_each_workload_keeps_its_run_length(self, paired, tmp_path, monkeypatch):
        lengths = []

        def run_once(checkout, workload, seed, seconds):
            lengths.append((workload, seconds))
            write_details(checkout, workload, seed, [(1.0, 0.5, 100.0)], speed=1.0)
            return fake_run(100.0), {"nproc": 2}

        monkeypatch.setattr(paired, "run_once", run_once)
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
        (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        out = tmp_path / "BENCH_lengths.json"
        base = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--out", str(out)]
        assert paired.main([*base, "--workload", "ops-sweep", "--pairs", "2",
                            "--seconds", "25"]) == 0
        assert paired.main([*base, "--workload", "ref-matrix", "--pairs", "1",
                            "--seconds", "10"]) == 0
        assert sorted(set(lengths)) == [("ops-sweep", 25.0), ("ref-matrix", 10.0)]
        workloads = json.loads(out.read_text())["workloads"]
        assert (workloads["ops-sweep"]["seconds"], workloads["ops-sweep"]["pairs"]) == (25.0, 2)
        assert (workloads["ref-matrix"]["seconds"], workloads["ref-matrix"]["pairs"]) == (10.0, 1)
