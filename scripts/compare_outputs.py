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
  ``perfbench/workloads.long_stream_configs`` (read, not changed), then one
  ``run --method MVU:fisher --override n_frames=900`` (it must exit 0), a
  scenario 100 frames shorter than its trace; then
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

Under each invocation that differs, the report says what differs:
- for a CSV output, the columns found on one side only; the rows found on one
  side only; the changed rows, each keyed by (seed, method, separation,
  frame_index) in a series, (method, separation, size) in ``ops``, (record,
  index) in ``separate`` and (method, separation) in a report, else by line
  number (a file whose first line holds a number has no header, and its
  columns are numbered from 1); and per column, the count of changed values
  with the largest absolute and relative change;
- for stdout and stderr (work directory normalised), the lines that differ;
- for any other file, its size on each side; and a changed exit code.

``--expect FILE`` reads a JSON list of declared changes and makes them the
rule instead: the run fails on a change that no declaration matches, on a
declaration that matches no change, and on an exit code its set does not
expect.  A declaration is an object whose keys are among ``invocation``
(the label printed), ``output`` (a file relative to the work directory,
``stdout``, ``stderr`` or ``exit``), ``change`` (one of ``value``, ``column
added``, ``column removed``, ``rows added``, ``rows removed``, ``lines``,
``bytes``, ``file added``, ``file removed`` and ``code``), ``column`` and
``method`` (a label such as ``MVU(rof)``, for rows that name a method); each
value is a shell-style pattern, and a declaration matches a change when
every key it gives matches.  For example, ``[{"output": "*/report.csv",
"change": "column added", "column": "failed_windows"}]``.

Usage:
    python scripts/compare_outputs.py --parent ../parent --change .
    python scripts/compare_outputs.py --parent . --change . --seeds 0,1 --entries 0 \\
        --ops-sizes "" --estimate-methods ""
    python scripts/compare_outputs.py --parent ../parent --change . --expect changes.json
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from fnmatch import fnmatchcase
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
# The columns that key a CSV's rows: the first set that both sides' headers hold.
KEY_COLUMNS = (("seed", "method", "separation", "frame_index"), ("method", "separation", "size"),
               ("record", "index"), ("method", "separation"))
DECLARATION_KEYS = ("invocation", "output", "change", "column", "method")
SHOWN = 10  # changed rows or lines listed per output; the counts cover them all


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
        out = f"{rel}/out-MVU-fisher-900"
        calls.append(Invocation(f"long-stream {entry} run MVU:fisher --override n_frames=900",
                                ("run", "--config", f"{rel}/run.json", "--method", "MVU:fisher",
                                 "--override", "n_frames=900", "--out", out),
                                (f"{out}/series.csv", f"{out}/report.csv"), 0))
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


def number(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def read_csv(data: bytes) -> tuple[list[str], list[str]]:
    """A CSV output's column names and its data lines, unsplit."""
    lines = data.decode("utf-8", "replace").splitlines()
    first = lines[0].split(",") if lines else []
    if first and all(number(field) is None for field in first):
        return first, lines[1:]
    width = max((line.count(",") + 1 for line in lines), default=0)
    return [str(i + 1) for i in range(width)], lines


def keyed_rows(columns: list[str], lines: list[str], key: tuple[str, ...]) -> dict:
    """Each data line, keyed by the values of its ``key`` columns; a repeated key
    gets its occurrence count appended."""
    where = [columns.index(column) for column in key]
    table, seen = {}, Counter()
    for line in lines:
        row = line.split(",")
        name = tuple(field(row, i) for i in where)
        seen[name] += 1
        table[name if seen[name] == 1 else (*name, f"#{seen[name]}")] = line
    return table


def field(row: list[str], i: int) -> str | None:
    return row[i] if i < len(row) else None


def row_name(name: tuple) -> str:
    return f"({', '.join(map(str, name))})"


def method_of(columns: list[str], row: list[str]) -> tuple:
    """The row's method label as the items of a change's ``method`` field, if it names one."""
    if "method" not in columns:
        return ()
    method = field(row, columns.index("method"))
    separation = field(row, columns.index("separation")) if "separation" in columns else None
    return (("method", method if separation in (None, "", "none") else f"{method}({separation})"),)


def diff_csv(old: bytes, new: bytes) -> tuple[list[str], list[dict]]:
    """Report lines and distinct changes of a CSV output that differs.

    Rows are keyed by the first set of ``KEY_COLUMNS`` that both headers hold,
    else by line number."""
    (old_columns, old_lines), (new_columns, new_lines) = read_csv(old), read_csv(new)
    lines, changes = [], {}  # the changes as an ordered set of their items
    for kind, columns, others in (("column removed", old_columns, new_columns),
                                  ("column added", new_columns, old_columns)):
        for column in columns:
            if column not in others:
                lines.append(f"{kind}: {column}")
                changes[("change", kind), ("column", column)] = None
    shared = [(column, old_columns.index(column), new_columns.index(column))
              for column in old_columns if column in new_columns]
    key = next((key for key in KEY_COLUMNS if set(key) <= {column for column, *_ in shared}), ())
    if key:
        parent = keyed_rows(old_columns, old_lines, key)
        change = keyed_rows(new_columns, new_lines, key)
        pairs = ((name, line, change[name]) for name, line in parent.items() if name in change)
        removed = [(name, parent[name]) for name in parent if name not in change]
        added = [(name, change[name]) for name in change if name not in parent]
    else:
        both = min(len(old_lines), len(new_lines))
        pairs = (((i + 1,), a, b) for i, (a, b) in enumerate(zip(old_lines, new_lines)))
        removed = [((i + 1,), line) for i, line in enumerate(old_lines[both:], both)]
        added = [((i + 1,), line) for i, line in enumerate(new_lines[both:], both)]
    for kind, only, columns in (("rows removed", removed, old_columns),
                                ("rows added", added, new_columns)):
        if only:
            shown = " ".join(row_name(name) for name, _ in only[:SHOWN])
            lines.append(f"{kind}: {len(only)} ({shown}{' ...' if len(only) > SHOWN else ''})")
            changes.update(dict.fromkeys((("change", kind), *method_of(columns, line.split(",")))
                                         for _, line in only))
    changed, shown = 0, []  # changed rows, and the first SHOWN of them
    stats = {}  # column: [changed values, largest absolute and relative change]
    for name, old_line, new_line in pairs:
        if old_line == new_line:
            continue
        row, other = old_line.split(","), new_line.split(",")
        differ = [(column, field(row, i), field(other, j)) for column, i, j in shared
                  if field(row, i) != field(other, j)]
        changed += bool(differ)
        if differ and len(shown) < SHOWN:
            shown.append(f"{row_name(name)}: " + ", ".join(
                f"{column} {a} -> {b}" for column, a, b in differ))
        for column, a, b in differ:
            count = stats.setdefault(column, [0, 0.0, 0.0])
            count[0] += 1
            a, b = number(a), number(b)
            if a is not None and b is not None:
                step = abs(b - a)
                relative = step / abs(a) if a else math.inf
                # A change to or from inf or nan counts as infinite.
                count[1] = max(count[1], math.inf if math.isnan(step) else step)
                count[2] = max(count[2], math.inf if math.isnan(relative) else relative)
            changes[("change", "value"), ("column", column), *method_of(old_columns, row)] = None
    if changed:
        lines.append(f"changed rows: {changed}")
        lines.extend(f"  {row}" for row in shown)
        if changed > SHOWN:
            lines.append(f"  ... {changed - SHOWN} more")
    for column, (count, step, relative) in stats.items():
        lines.append(f"column {column}: {count} changed, largest change {step:.3g} absolute, "
                     f"{relative:.3g} relative")
    return lines, [dict(items) for items in changes]


def describe(name: str, old, new) -> tuple[list[str], list[dict]]:
    """Report lines and changes of one output (or exit code or stream) that differs."""
    if name == "exit":
        return [f"exit code {old} -> {new}"], [{"change": "code"}]
    if old is None or new is None:
        kind = "file added" if old is None else "file removed"
        return [kind], [{"change": kind}]
    if name in ("stdout", "stderr"):
        diff = [line for line in difflib.unified_diff(
            old.decode("utf-8", "replace").splitlines(),
            new.decode("utf-8", "replace").splitlines(), lineterm="", n=0)
                if line[:1] in "-+" and line[:3] not in ("---", "+++")]
        more = [f"... {len(diff) - SHOWN} more"] if len(diff) > SHOWN else []
        return [f"{len(diff)} lines differ", *diff[:SHOWN], *more], [{"change": "lines"}]
    if name.endswith(".csv"):
        return diff_csv(old, new)
    return ([f"bytes differ: {len(old)} in the parent, {len(new)} in the change"],
            [{"change": "bytes"}])


def read_declarations(path: Path) -> list[dict]:
    """The declared changes of ``--expect``; a file of another shape raises ValueError."""
    declared = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(declared, list) or not all(
            isinstance(item, dict) and item and set(item) <= set(DECLARATION_KEYS)
            and all(isinstance(value, str) for value in item.values()) for item in declared):
        raise ValueError(f"{path}: expected a JSON list of non-empty objects with string "
                         f"values, keyed by {', '.join(DECLARATION_KEYS)}")
    return declared


def matches(declaration: dict, change: dict) -> bool:
    return all(key in change and fnmatchcase(change[key], pattern)
               for key, pattern in declaration.items())


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
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="JSON list of declared changes: fail on a change outside it "
                             "and on a declared change that did not happen")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        declared = None if args.expect is None else read_declarations(args.expect)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    base = Path(tempfile.mkdtemp(prefix="compare-outputs-")) if args.work is None else args.work
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    works = {side: base / side for side in sides}
    try:
        for work in works.values():
            work.mkdir(parents=True, exist_ok=False)
            calls = invocations(args, work)
        failed = unexpected_exits = 0
        changes = []
        for call in calls:
            parent, change = (run_side(sides[side], works[side], call) for side in sides)
            diff = [key for key in parent if parent[key] != change[key]]
            shown = list(diff)
            if call.exit is not None and change["exit"] != call.exit:
                shown.append(f"exit code (expected {call.exit})")
                unexpected_exits += 1
            failed += bool(shown)
            state = f"DIFFERS in {', '.join(shown)}" if shown else "same"
            print(f"{call.label}: exit {change['exit']}, {state}", flush=True)
            for key in diff:
                lines, found = describe(key, parent[key], change[key])
                changes.extend({"invocation": call.label, "output": key, **item} for item in found)
                print(f"  {key}:", *(f"    {line}" for line in lines), sep="\n", flush=True)
        print(f"{len(calls) - failed} of {len(calls)} invocations agree")
        if declared is None:
            return 1 if failed else 0
        undeclared = [c for c in changes if not any(matches(d, c) for d in declared)]
        missing = [d for d in declared if not any(matches(d, c) for c in changes)]
        for item in undeclared:
            print(f"undeclared change: {json.dumps(item)}")
        for item in missing:
            print(f"declared change did not happen: {json.dumps(item)}")
        print(f"{len(changes) - len(undeclared)} of {len(changes)} changes declared; "
              f"{len(declared) - len(missing)} of {len(declared)} declared changes happened")
        return 1 if undeclared or missing or unexpected_exits else 0
    finally:
        if args.work is None:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
