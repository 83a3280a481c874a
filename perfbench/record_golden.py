"""Record the golden outputs of every workload and pool entry at the current commit.

    python3 perfbench/record_golden.py

Run from the root of a checkout.  Each pool entry's round runs once, traced,
and its exit codes, output files and call counts replace golden/<workload>.json.gz.
Re-record only in a change that means to change the program's outputs.
"""

from __future__ import annotations

import golden
import run
import tracing
import workloads


def record(workload: str) -> dict:
    cli = run.load_program()
    entries = {}
    for entry in range(workloads.POOL_SIZES[workload]):
        _, invocations = run.prepare(cli, workload, entry, run.OUT / "work" / workload)
        with tracing.Tracer() as tracer:
            r = run.run_round(cli, invocations, None, tracer)
        entries[str(entry)] = {
            rec["label"]: {"exit": rec["exit"], "files": rec["files"], "calls": rec["calls"]}
            for rec in r.invocations
        }
        exits = {rec["label"]: rec["exit"] for rec in r.invocations}
        print(f"{workload} entry {entry}: {r.wall_s:.1f} s, exits {exits}", flush=True)
    return {"workload": workload, "pool": workloads.POOL_SIZES[workload], "entries": entries}


def main() -> None:
    for name in sorted(workloads.WORKLOADS):
        golden.save(run.HERE / "golden" / f"{name}.json.gz", record(name))


if __name__ == "__main__":
    main()
