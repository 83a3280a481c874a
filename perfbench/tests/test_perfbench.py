"""Tests of the benchmark's own code: spans, ratios, failure accounting, golden check.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import concurrent.futures
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import golden  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import Invocation  # noqa: E402

cli = run.load_program()


def span(span_id, parent, name, start, end):
    return tracing.Span(span_id, parent, name, start, end, thread=0, invocation=1)


# --- self time ---------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert tracing.covered([], 0, 10) == 0
    assert tracing.covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(1, None, "outer", 0.0, 10.0),
        span(2, 1, "child", 1.0, 3.0),
        span(3, 1, "child", 2.0, 5.0),   # overlaps its sibling, as in a pool thread
        span(4, 3, "leaf", 2.5, 4.0),    # a grandchild is not the outer span's child
    ]
    totals = tracing.layer_totals(spans)
    assert totals["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert totals["child"]["busy_s"] == 5.0
    assert totals["child"]["self_s"] == pytest.approx(5.0 - 1.5)
    assert totals["leaf"]["self_s"] == 1.5


def test_tracer_links_nested_calls_counts_inputs_and_restores_functions():
    from noisebench import separation
    from noisebench.spectral import PowerSpectrum

    original = separation.rof_separate
    power = PowerSpectrum(np.r_[np.ones(48), 30 * np.ones(16)])
    with tracing.Tracer() as tracer:
        separation.rof_separate(power)
        separation.rof_separate(power)
    assert separation.rof_separate is original
    spans, distinct = tracer.take()
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    outer = by_name["separation.rof_separate"]
    inner = by_name["separation.rof_energy_drops"]
    assert len(outer) == 2 and len(inner) == 2
    assert {s.parent_id for s in inner} == {s.span_id for s in outer}
    assert distinct["separation.rof_separate"] == 1


def test_pool_thread_spans_attach_to_the_main_thread_span():
    tracer = tracing.Tracer()
    work = tracer.wrap("work", lambda x: x * 2)
    with tracer.span("outer"):
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            assert sorted(pool.map(work, range(4))) == [0, 2, 4, 6]
    spans, _ = tracer.take()
    outer = next(s for s in spans if s.name == "outer")
    assert [s.parent_id for s in spans if s.name == "work"] == [outer.span_id] * 4


# --- ratio metrics -----------------------------------------------------------


def test_round_ratios():
    r = run.Round(wall_s=2.0, cpu_s=3.0, rows=300)
    assert r.rows_per_s == 150.0
    assert r.cpu_ms_per_row == 10.0
    assert run.Round(wall_s=1.0, cpu_s=0.5, rows=0).cpu_ms_per_row == 500.0


def test_end_to_end_takes_medians_of_scaled_rounds_and_counts_failures():
    rounds = [run.Round(wall_s=1.0, cpu_s=1.0, rows=100, attempted=6, failed=1, speed=1.0,
                        peak_rss_mb=100.0),
              run.Round(wall_s=2.0, cpu_s=1.0, rows=100, attempted=6, failed=1, speed=2.0,
                        peak_rss_mb=120.0),
              run.Round(wall_s=4.0, cpu_s=1.0, rows=100, attempted=6, failed=1, speed=0.5,
                        peak_rss_mb=130.0)]
    metrics = run.end_to_end(rounds, setup_s=0.5)
    # Scaled rates 100, 100, 12.5 rows/s; scaled CPU 10, 5, 20 ms per row.
    assert metrics["rows_per_s"] == (100.0, "rows/s")
    assert metrics["cpu_ms_per_row"] == (10.0, "ms/row")
    assert metrics["success_ratio"] == (15 / 18, "ratio")
    assert metrics["setup_s"] == (0.5, "s")
    assert metrics["peak_rss_mb"] == (100.0, "MB")


def test_per_layer_ratios_and_tracing_overhead():
    layers = {"scenario.build_scenario": {"calls": 4, "busy_s": 1.0, "self_s": 0.5},
              "separation.rof_separate": {"calls": 6, "busy_s": 2.0, "self_s": 0.2}}
    traced = [run.Round(wall_s=2.0, rows=100, seeds=2, layers=layers,
                        distinct_inputs={"separation.rof_separate": 4})]
    untraced = [run.Round(wall_s=1.0, rows=100)]
    metrics = run.per_layer(traced, untraced, golden_entry={})
    assert metrics["scenario.build_scenario.calls_per_seed"][0] == 2.0
    assert metrics["separation.rof_separate.calls_per_window"][0] == 1.5
    assert metrics["separation.rof_separate.self_s"][0] == 0.2
    assert metrics["estimators.mp_cdf.calls"][0] == 0
    assert metrics["trace.overhead_ratio"][0] == 2.0


def test_speed_factor_is_the_median_snippet_time_in_the_window(tmp_path):
    monitor = speed.SpeedMonitor(tmp_path / "speed.txt")
    ref = speed.REFERENCE_S
    monitor.samples = [(0.0, ref), (1.0, 2 * ref), (1.05, 3 * ref), (1.2, 4 * ref), (5.0, ref)]
    assert monitor.factor(1.0, 1.1) == 3.0            # widened by one period: 2, 3, 4
    assert monitor.factor(3.0, 3.5) == 2.0            # no samples: the whole run's median


def test_speed_monitor_samples_and_stops(tmp_path):
    with speed.SpeedMonitor(tmp_path / "speed.txt") as monitor:
        start = time.monotonic()
        time.sleep(0.6)
    assert monitor._proc.returncode is not None
    assert len(monitor.samples) >= 2
    assert monitor.factor(start, time.monotonic()) > 0


def test_idle_factor_is_the_median_snippet_time_over_the_reference(monkeypatch):
    times = iter([3.0, 1.0, 2.0])
    monkeypatch.setattr(speed, "snippet_cpu_s", lambda: next(times) * speed.REFERENCE_S)
    monkeypatch.setattr(speed, "IDLE_GAP_S", 0.0)
    assert speed.idle_factor(samples=3) == 2.0


# --- golden check and failure accounting -------------------------------------

SERIES = ("scenario_id,seed,method,separation,frame_index,noise_power_est_mw,"
          "noise_power_true_mw,snr_est_db,snr_true_db\n"
          "s,0,ML,ideal,0,1.00000001,1,-inf,0\n"
          "s,0,ML,ideal,1,0.99,1,3.5,0\n")
REPORT = ("scenario_id,method,separation,seed_count,rmse_db,std_dev_db,mean_bias_db,"
          "ops_add,ops_mul,ops_cmp,ops_transcendental,wall_time_ms\n"
          "s,ML,ideal,1,inf,nan,0.25,10,20,0,0,0\n")
FILES = {"series.csv": SERIES, "report.csv": REPORT}
ATTEMPT = [("ML", "ideal", "0")]


def test_float_tolerance_allows_one_printed_digit_and_no_more():
    assert golden.float_matches("1.00000001", "1.00000002")       # last printed digit
    assert golden.float_matches("1.00000001", "1.000000011")
    assert not golden.float_matches("1.0000001", "1.0000003")
    assert golden.float_matches("-inf", "-inf") and golden.float_matches("nan", "nan")
    assert not golden.float_matches("inf", "1e308")
    assert not golden.float_matches("0", "1e-30")


def test_check_run_compares_floats_loosely_and_integers_exactly():
    want = {"exit": 0, "files": FILES}
    assert golden.check_run(ATTEMPT, 0, FILES, want) == [(golden.OK, 2)]
    drifted = dict(FILES, **{"series.csv": SERIES.replace("0.99,", "0.990000001,")})
    assert golden.check_run(ATTEMPT, 0, drifted, want) == [(golden.OK, 2)]
    wrong = dict(FILES, **{"report.csv": REPORT.replace(",10,20,", ",11,20,")})
    assert golden.check_run(ATTEMPT, 0, wrong, want) == [(golden.MISMATCH, 0)]
    not_inf = dict(FILES, **{"series.csv": SERIES.replace("-inf", "-80")})
    assert golden.check_run(ATTEMPT, 0, not_inf, want) == [(golden.MISMATCH, 0)]
    assert golden.check_run(ATTEMPT, 0, {}, want) == [(golden.MISMATCH, 0)]


def test_check_run_failures_the_golden_record_shares_are_expected():
    assert golden.check_run(ATTEMPT, 3, {}, {"exit": 3}) == [(golden.EXPECTED, 0)]
    assert golden.check_run(ATTEMPT, 3, {}, {"exit": 0, "files": FILES}) == [(golden.MISMATCH, 0)]
    # A failure with another exit code than the recorded one is a different failure.
    assert golden.check_run(ATTEMPT, 1, {}, {"exit": 3}) == [(golden.MISMATCH, 0)]
    assert golden.check_run(ATTEMPT, 2, {}, {"exit": 3}) == [(golden.MISMATCH, 0)]
    assert golden.check_ops([("ML", "rof", "64")], 1, {}, {"exit": 3}) == [(golden.MISMATCH, 0)]
    assert golden.check_ops([("ML", "rof", "64")], 3, {}, {"exit": 3}) == [(golden.EXPECTED, 0)]
    # A method that failed in the golden record and now succeeds is checked for shape.
    assert golden.check_run(ATTEMPT, 0, FILES, {"exit": 3}) == [(golden.OK, 2)]


def test_check_ops_requires_exact_counts():
    text = "method,separation,size,ops_add\nML,rof,64,10\n"
    want = {"exit": 0, "files": {"ops.csv": text}}
    key = [("ML", "rof", "64")]
    assert golden.check_ops(key, 0, {"ops.csv": text}, want) == [(golden.OK, 1)]
    assert golden.check_ops(key, 0, {"ops.csv": text.replace("10", "11")}, want) == [(golden.MISMATCH, 0)]


class FakeCli:
    """Writes prepared outputs, or fails with a prepared exit code, per label."""

    def __init__(self, plan):
        self.plan = plan
        self.calls = []

    def main(self, argv):
        label = argv[0]
        self.calls.append(label)
        code, files, out = self.plan[label]
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
        if code == 99:
            raise SystemExit(2)
        return code


def test_run_round_counts_failed_invocations_and_continues(tmp_path):
    def inv(label):
        return Invocation(label=label, argv=(label,), out_dir=tmp_path / label,
                          outputs=("series.csv", "report.csv"), attempts=tuple(ATTEMPT),
                          check=golden.check_run, seeds=1)

    invocations = [inv("defect"), inv("good"), inv("regressed"), inv("usage")]
    fake = FakeCli({
        "defect": (3, {}, tmp_path / "defect"),
        "good": (0, FILES, tmp_path / "good"),
        "regressed": (1, {}, tmp_path / "regressed"),
        "usage": (99, {}, tmp_path / "usage"),
    })
    golden_entry = {"defect": {"exit": 3}, "good": {"exit": 0, "files": FILES},
                    "regressed": {"exit": 0, "files": FILES}, "usage": {"exit": 0, "files": FILES}}
    r = run.run_round(fake, invocations, golden_entry)
    assert fake.calls == ["defect", "good", "regressed", "usage"]
    assert (r.attempted, r.failed, r.mismatched, r.rows, r.seeds) == (4, 3, 2, 2, 4)
    assert [rec["exit"] for rec in r.invocations] == [3, 0, 1, 2]
    assert len(r.errors) == 3


# --- tracing leaves outputs unchanged -----------------------------------------


@pytest.mark.parametrize("argv", [
    ["run", "--config", str(run.ROOT / "configs" / "ism_benchmark.json"),
     "--override", "n_frames=24", "--seeds", "0,1",
     "--method", "ML:rof", "--method", "MVU:fisher", "--method", "AIC",
     "--method", "CBE", "--method", "MMSE"],
    ["ops", "--sizes", "16,32"],
])
def test_traced_output_equals_untraced_output(tmp_path, argv):
    outputs = []
    for traced in (False, True):
        out = tmp_path / f"traced{int(traced)}"
        out.mkdir()
        full = argv + (["--out", str(out)] if argv[0] == "run" else ["--out", str(out / "ops.csv")])
        if traced:
            with tracing.Tracer() as tracer:
                assert run.call_cli(cli, full)[0] == 0
            assert tracer.take()[0], "no spans recorded"
        else:
            assert run.call_cli(cli, full)[0] == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
