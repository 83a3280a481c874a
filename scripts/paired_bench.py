#!/usr/bin/env python3
"""Paired perfbench runs of a parent and a change checkout, summarised as a BENCH_*.json record.

Each pair runs ``perfbench/run.py --trace 0`` once from each checkout on the
same seed, alternating which side runs first, so slow phases of a shared
machine fall on both sides alike.  The record gives, per workload, the run
length, the pair count, the seeds, the order, each run's ``correct`` flag
and, per end-to-end metric of
``BENCHMARK.json``, each side's runs with their median and quartiles, the
pairs the change won and whether the median change stays within the
metric's bound.  With ``--claim WORKLOAD:METRIC`` it also applies the
paired-gain rule: the change wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the parent's
quartile spread.

perfbench scales its rates by the machine speed it samples during the run.
The record also keeps each run's raw numbers, read from the details file the
run leaves in its checkout's ``.perfbench_out/``: the median over rounds of
the unscaled rows/s and CPU ms per row, summarised and paired like the
scaled metrics, and the run's speed factors (during the rounds, and idle
before and after).  A claim is also judged on its raw metric, where there is
one, so a gain that rests on the speed factor alone shows.

Running it again with the same ``--out`` adds or replaces one workload and
keeps the others, so workloads can be measured with different pair counts
and run lengths; each workload's entry keeps its own.

Usage:
    python scripts/paired_bench.py --parent ../parent --change . --workload ref-matrix \\
        --pairs 10 --first-seed 301 --claim ref-matrix:rows_per_s --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RULE = ("change better in at least 9 of 10 alternating pairs (ties count for neither) "
        "and the median difference larger than the parent's quartile spread")
PAIRING = ("parent and change alternate which runs first; each side runs from its own "
           "checkout directory")
RAW_METRICS = ("rows_per_s", "cpu_ms_per_row")  # end-to-end metrics perfbench scales by speed


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced perfbench run from ``checkout``: its result line and its machine record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def raw_numbers(checkout: Path, workload: str, seed: int) -> dict:
    """One run's unscaled medians over its rounds, and its speed factors, from its details file."""
    path = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    details = json.loads(path.read_text(encoding="utf-8"))
    rounds = [r for r in details["rounds"] if not r["traced"]]
    return {
        "rows_per_s": statistics.median(r["rows_per_s"] for r in rounds),
        # perfbench charges a round where every attempt failed as one row.
        "cpu_ms_per_row": statistics.median(1e3 * r["cpu_s"] / max(r["rows"], 1)
                                            for r in rounds),
        "speed": {k: details["speed"][k] for k in ("during_median", "idle_before", "idle_after")},
    }


def quartiles(runs: list[float]) -> dict:
    """Median and inclusive quartiles of the runs, with the runs themselves."""
    if len(runs) == 1:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def gain(parent: float, change: float, better: str) -> float:
    """The change's improvement over the parent, positive when it is better."""
    return change - parent if better == "higher" else parent - change


def summarise_metric(parent: list[float], change: list[float], unit: str, better: str,
                     bound: float) -> dict:
    """One metric of one workload: both sides' runs and how the change compares."""
    p, c = quartiles(parent), quartiles(change)
    relative = gain(p["median"], c["median"], better) / abs(p["median"]) if p["median"] else 0.0
    return {
        "unit": unit, "better": better, "parent": p, "change": c,
        "pairs_change_better": sum(gain(a, b, better) > 0 for a, b in zip(parent, change)),
        "median_change_relative": relative,
        "within_bound": relative >= -bound,
    }


def claim_result(metric: dict) -> dict:
    """The paired-gain rule applied to one summarised metric."""
    pairs = len(metric["parent"]["runs"])
    difference = gain(metric["parent"]["median"], metric["change"]["median"], metric["better"])
    spread = metric["parent"]["q3"] - metric["parent"]["q1"]
    return {
        "pairs_change_better": metric["pairs_change_better"], "pairs": pairs,
        "median_difference": difference, "parent_quartile_spread": spread,
        "met": 10 * metric["pairs_change_better"] >= 9 * pairs and difference > spread,
    }


def measure(parent: Path, change: Path, workload: str, seeds: list[int], seconds: float,
            end_to_end: list[dict]) -> tuple[dict, dict]:
    """Alternating pairs on the given seeds: the workload's summary and a machine record."""
    sides = {"parent": parent, "change": change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    raw: dict[str, list[dict]] = {"parent": [], "change": []}
    first, machine = [], {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            result, machine = run_once(sides[side], workload, seed, seconds)
            results[side].append(result)
            raw[side].append(raw_numbers(sides[side], workload, seed))
            value = result["metrics"].get("rows_per_s", {}).get("value")
            print(f"{workload} seed {seed} {side}: rows_per_s {value} "
                  f"(raw {raw[side][-1]['rows_per_s']:.1f}) correct {result['correct']}",
                  file=sys.stderr)
    metrics = {
        m["name"]: summarise_metric(
            [r["metrics"][m["name"]]["value"] for r in results["parent"]],
            [r["metrics"][m["name"]]["value"] for r in results["change"]],
            m["unit"], m["better"], m["bound"])
        for m in end_to_end
    }
    raw_metrics = {
        m["name"]: summarise_metric([r[m["name"]] for r in raw["parent"]],
                                    [r[m["name"]] for r in raw["change"]],
                                    m["unit"], m["better"], m["bound"])
        for m in end_to_end if m["name"] in RAW_METRICS
    }
    summary = {
        "seconds": seconds, "pairs": len(seeds), "seeds": seeds, "first_in_pair": first,
        "correct": {side: [r["correct"] for r in results[side]] for side in sides},
        "metrics": metrics,
        "raw": {"metrics": raw_metrics,
                "speed": {side: [r["speed"] for r in raw[side]] for side in sides}},
    }
    return summary, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=Path("."), help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="pair i runs seed FIRST_SEED + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default the run_seconds of BENCHMARK.json")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="apply the paired-gain rule to this metric")
    parser.add_argument("--note", help="what the change does, for the record's 'change' field")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    summary, machine = measure(args.parent.resolve(), args.change.resolve(), args.workload,
                               seeds, seconds, benchmark["end_to_end"])

    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    if args.note:
        record["change"] = args.note
    # W, S and T: each run's workload, seed and its workload's seconds.
    record["command"] = "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0"
    record["pairing"] = PAIRING
    record["machine"] = machine
    record.setdefault("workloads", {})[args.workload] = summary
    if args.claim:
        workload, metric = args.claim.split(":", 1)
        if workload not in record["workloads"]:
            parser.error(f"--claim names {workload!r}, which the record does not hold")
        claimed = record["workloads"][workload]
        record["claim"] = {
            "workload": workload, "metric": metric, "rule": RULE,
            "result": claim_result(claimed["metrics"][metric]),
        }
        raw_metrics = claimed.get("raw", {}).get("metrics", {})  # none in older records
        if metric in raw_metrics:
            record["claim"]["raw_result"] = claim_result(raw_metrics[metric])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = [f"{name}: {side}" for name, w in record["workloads"].items()
              for side, flags in w["correct"].items() if not all(flags)]
    for line in failed:
        print(f"outputs differ from the golden record: {line}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
