#!/usr/bin/env python3
"""Run one set of noisebench invocations from two checkouts and compare what they produce.

Each invocation runs once from each checkout's ``src/``, in a fresh
interpreter, and the two runs must agree byte for byte: the exit code,
stdout and stderr (with each side's work directory replaced by ``<work>``)
and every output file.  The default set is the one a change that claims
unchanged outputs is held to:

- ``run`` of the nine default methods on ``configs/ism_benchmark.json`` at
  seeds 0,1 and at seeds 0-19, each once as it is and once with the README's
  surrogate-noise overrides;
- the long-stream workload of perfbench on pool entries 0-7: ``generate`` of
  the entry's noise trace, ``separate`` of its first 100 frames (ROF's mask
  and full energy-drop curve) at 512 bins and at the prime 509 (the FFT's
  non-radix-2 path; it must exit 0), ``convert --to csv`` of the trace and
  ``convert --to raw`` of that CSV (each must exit 0), and the six
  ``run --method`` calls on the trace, with the configs of
  ``perfbench/workloads.long_stream_configs`` (read, not changed); then
  ``separate --power-csv`` of a power file drawn from the entry number
  (:func:`power_values`), and of the same file with one bin negative, which
  must exit 3 naming that bin;
- ``ops`` of the nine default methods at sizes 16, 17, 64 (twice) and the powers
  of two 128-4096, then 4097: both edges of the counting stream's resume table
  and a repeated size;
- ``estimate`` of each of the nine default methods.

Giving ``--parent`` and ``--change`` the same checkout checks that a rerun
reproduces every byte.  Exit status 0 when every invocation agrees (and exits
as its set expects, where it does), 1 otherwise.

Usage:
    python scripts/compare_outputs.py --parent ../parent --change .
    python scripts/compare_outputs.py --parent . --change . --seeds 0,1 --entries 0 \\
        --ops-sizes "" --estimate-methods ""
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_METHODS = ("ML:ideal", "ML:fisher", "ML:rof", "MVU:ideal", "MVU:fisher", "MVU:rof",
                   "AIC", "CBE", "MMSE")
DEFAULT_SEEDS = ("0,1", ",".join(str(s) for s in range(20)))
DEFAULT_ENTRIES = ",".join(str(e) for e in range(8))
DEFAULT_OPS_SIZES = "16,17,64,64,128,256,512,1024,2048,4096,4097"
# The README's surrogate-noise command: its streams stay float64 from synthesis
# to report, unlike the long-stream runs, which read a float32 trace.
SURROGATE_OVERRIDES = ("name=ism-surrogate-industrial--3dB", "noise.kind=surrogate-industrial",
                       "signals.0.target_snr_db=-3")


class Invocation(NamedTuple):
    """One CLI call: its arguments, the files it writes, relative to a side's work
    directory, and the exit code it must give (None: any)."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    exit: int | None = None


def split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def power_values(entry: int) -> list[float]:
    """A deterministic 512-bin spectrum for ``separate --power-csv``: unit
    exponential noise drawn from the entry number, with a 64-bin band 20 mW
    above it that moves with the entry."""
    draw = random.Random(entry)
    band = 16 + 64 * (entry % 7)
    return [draw.expovariate(1.0) + (20.0 if band <= i < band + 64 else 0.0)
            for i in range(512)]


def load_workloads():
    """perfbench's workload module, for the long-stream configs and methods."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def invocations(args, work: Path) -> list[Invocation]:
    """The invocation set; writes the config files the long-stream calls read into ``work``."""
    config = str(ROOT / "configs" / "ism_benchmark.json")
    calls = []
    for seeds in [seeds for seeds in args.seeds or DEFAULT_SEEDS if seeds.strip()]:
        for label, overrides in (("run", ()), ("surrogate run", SURROGATE_OVERRIDES)):
            out = f"{label.replace(' ', '-')}-{seeds.replace(',', '_')}"
            flags = [arg for override in overrides for arg in ("--override", override)]
            calls.append(Invocation(f"{label} --seeds {seeds}",
                                    ("run", "--config", config, "--seeds", seeds, *flags,
                                     "--out", out),
                                    (f"{out}/series.csv", f"{out}/report.csv")))
    workloads = load_workloads()
    for entry in map(int, split_list(args.entries)):
        folder = work / f"long-stream-{entry}"
        folder.mkdir()
        generate, run = workloads.long_stream_configs(entry, folder / "noise.iq")
        (folder / "generate.json").write_text(json.dumps(generate, indent=1), encoding="utf-8")
        (folder / "run.json").write_text(json.dumps(run, indent=1), encoding="utf-8")
        rel = folder.name
        calls.append(Invocation(f"long-stream {entry} generate",
                                ("generate", "--config", f"{rel}/generate.json",
                                 "--out", f"{rel}/noise.iq"), (f"{rel}/noise.iq",)))
        calls.append(Invocation(f"long-stream {entry} separate",
                                ("separate", "--input", f"{rel}/noise.iq", "--frames", "100",
                                 "--out", f"{rel}/separate.csv"), (f"{rel}/separate.csv",)))
        calls.append(Invocation(f"long-stream {entry} separate --n-bins 509",
                                ("separate", "--input", f"{rel}/noise.iq", "--frames", "100",
                                 "--n-bins", "509", "--out", f"{rel}/separate-509.csv"),
                                (f"{rel}/separate-509.csv",), 0))
        for source, to, out in (("noise.iq", "csv", "noise.csv"),
                                ("noise.csv", "raw", "round-trip.iq")):
            calls.append(Invocation(f"long-stream {entry} convert --to {to}",
                                    ("convert", "--input", f"{rel}/{source}", "--to", to,
                                     "--out", f"{rel}/{out}"), (f"{rel}/{out}",), 0))
        for method in workloads.LONG_STREAM_METHODS:
            out = f"{rel}/out-{method.replace(':', '-')}"
            calls.append(Invocation(f"long-stream {entry} run {method}",
                                    ("run", "--config", f"{rel}/run.json", "--method", method,
                                     "--out", out), (f"{out}/series.csv", f"{out}/report.csv")))
        power = ["%.9g" % value for value in power_values(entry)]
        negative = list(power)
        negative[100 + entry] = "-1"
        for name, values, code in (("power", power, 0), ("negative-power", negative, 3)):
            (folder / f"{name}.csv").write_text("\n".join(values) + "\n", encoding="utf-8")
            calls.append(Invocation(f"long-stream {entry} separate --power-csv {name}.csv",
                                    ("separate", "--power-csv", f"{rel}/{name}.csv",
                                     "--out", f"{rel}/separate-{name}.csv"),
                                    (f"{rel}/separate-{name}.csv",), code))
    if split_list(args.ops_sizes):
        methods = [arg for method in DEFAULT_METHODS for arg in ("--method", method)]
        calls.append(Invocation(f"ops --sizes {args.ops_sizes}",
                                ("ops", "--sizes", args.ops_sizes, *methods, "--out", "ops.csv"),
                                ("ops.csv",)))
    for method in split_list(args.estimate_methods):
        calls.append(Invocation(f"estimate {method}",
                                ("estimate", "--config", config, "--method", method)))
    return calls


def run_side(checkout: Path, work: Path, call: Invocation) -> dict:
    """One invocation from ``checkout`` inside ``work``: exit code, streams and output bytes."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "noisebench.cli", *call.argv], cwd=work,
                          env=env, capture_output=True, check=False)
    token = str(work).encode()
    result = {"exit": proc.returncode,
              "stdout": proc.stdout.replace(token, b"<work>"),
              "stderr": proc.stderr.replace(token, b"<work>")}
    for name in call.outputs:
        path = work / name
        result[name] = path.read_bytes() if path.exists() else None
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seeds", action="append", metavar="LIST",
                        help="seed list of one `run` of the default methods and one with "
                             "surrogate noise; repeatable "
                             "(default: 0,1 and 0-19; empty for none)")
    parser.add_argument("--entries", default=DEFAULT_ENTRIES,
                        help="long-stream pool entries (default: 0-7; empty for none)")
    parser.add_argument("--ops-sizes", default=DEFAULT_OPS_SIZES,
                        help=f"sizes of one `ops` call of the nine default methods "
                             f"(default: {DEFAULT_OPS_SIZES}; empty for none)")
    parser.add_argument("--estimate-methods", default=",".join(DEFAULT_METHODS),
                        help="methods to `estimate` (default: the nine; empty for none)")
    parser.add_argument("--work", type=Path,
                        help="directory for both sides' outputs, kept afterwards "
                             "(default: a temporary one, removed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    base = Path(tempfile.mkdtemp(prefix="compare-outputs-")) if args.work is None else args.work
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    works = {side: base / side for side in sides}
    try:
        for work in works.values():
            work.mkdir(parents=True, exist_ok=False)
            calls = invocations(args, work)
        failed = 0
        for call in calls:
            parent, change = (run_side(sides[side], works[side], call) for side in sides)
            diff = [key for key in parent if parent[key] != change[key]]
            if call.exit is not None and change["exit"] != call.exit:
                diff.append(f"exit code (expected {call.exit})")
            failed += bool(diff)
            state = f"DIFFERS in {', '.join(diff)}" if diff else "same"
            print(f"{call.label}: exit {change['exit']}, {state}", flush=True)
        print(f"{len(calls) - failed} of {len(calls)} invocations agree")
        return 1 if failed else 0
    finally:
        if args.work is None:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
