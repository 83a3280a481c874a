"""noisebench benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload ref-matrix --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` and
driven in-process through ``noisebench.cli.main``, one invocation at a time,
with its own worker default and BLAS threading left as users get them.  One
round is the workload's list of invocations; rounds repeat until ``--seconds``
of invocation time have passed.  Every invocation's outputs are checked
against the golden record.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  Full results, the machine record
and, when traced, the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import golden
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = ("src/noisebench/cli.py", "configs/ism_benchmark.json")
IMPORT_REPEATS = 5
PREPARE_REPEATS = 3


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Round:
    """One pass over a workload's invocations."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    start: float = 0.0  # time.monotonic() bounds of the round
    end: float = 0.0
    speed: float = 1.0  # snippet time during the round / speed.REFERENCE_S
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    seeds: int = 0
    series_bytes: int = 0
    peak_rss_mb: float = 0.0  # the process's peak so far, read at the end of the round
    errors: list[str] = field(default_factory=list)
    invocations: list[dict] = field(default_factory=list)
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    distinct_inputs: dict[str, int] = field(default_factory=dict)

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.wall_s

    @property
    def cpu_ms_per_row(self) -> float:
        # A round where every attempt failed is charged as one row.
        return 1e3 * self.cpu_s / max(self.rows, 1)

    # Scaled to the reference machine speed: a round run while the host was
    # slow (speed > 1) did more work per second than its wall time shows.
    @property
    def scaled_rows_per_s(self) -> float:
        return self.rows_per_s * self.speed

    @property
    def scaled_cpu_ms_per_row(self) -> float:
        return self.cpu_ms_per_row / self.speed


def load_program():
    """Import noisebench from this checkout's src/, or raise BenchmarkError."""
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise BenchmarkError(f"checkout at {ROOT} lacks {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    from noisebench import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "noisebench":
        raise BenchmarkError(f"imported noisebench from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def call_cli(cli, argv) -> tuple[int, str]:
    """Run one CLI invocation in-process; return its exit code and error output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue().strip()


def run_round(cli, invocations, golden_entry: dict | None,
              tracer: tracing.Tracer | None = None) -> Round:
    r = Round(start=time.monotonic())
    for inv in invocations:
        inv.out_dir.mkdir(parents=True, exist_ok=True)
        for name in inv.outputs:
            (inv.out_dir / name).unlink(missing_ok=True)
        if tracer is not None:
            tracer.invocation += 1
        ru0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        if tracer is None:
            code, err = call_cli(cli, inv.argv)
        else:
            with tracer.span("cli.main"):
                code, err = call_cli(cli, inv.argv)
        t1, ru1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        r.wall_s += t1 - t0
        r.cpu_s += (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        files = {name: (inv.out_dir / name).read_text(encoding="utf-8")
                 for name in inv.outputs if (inv.out_dir / name).is_file()}
        want = (golden_entry or {}).get(inv.label)
        outcomes = inv.check(inv.attempts, code, files, want)
        r.attempted += len(outcomes)
        r.failed += sum(status != golden.OK for status, _ in outcomes)
        r.mismatched += sum(status == golden.MISMATCH for status, _ in outcomes)
        r.rows += sum(rows for _, rows in outcomes)
        r.seeds += inv.seeds
        r.series_bytes += len(files.get("series.csv", "").encode("utf-8"))
        if code != 0:
            r.errors.append(f"{inv.label}: exit {code}: {err}")
        r.invocations.append({"label": inv.label, "exit": code, "files": files,
                              "id": tracer.invocation if tracer else None})
    r.end = time.monotonic()
    r.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        spans, r.distinct_inputs = tracer.take()
        r.layers = tracing.layer_totals(spans)
        for record in r.invocations:
            record["calls"] = dict(sorted(_count_calls(spans, record["id"]).items()))
    return r


def _count_calls(spans, invocation: int) -> dict[str, int]:
    calls: dict[str, int] = {}
    for s in spans:
        if s.invocation == invocation and s.name != "cli.main":
            calls[s.name] = calls.get(s.name, 0) + 1
    return calls


def measure(cli, invocations, golden_entry, seconds: float,
            tracer: tracing.Tracer | None = None) -> list[Round]:
    """Repeat rounds until their invocation time reaches ``seconds`` (at least one)."""
    rounds: list[Round] = []
    while not rounds or sum(r.wall_s for r in rounds) < seconds:
        r = run_round(cli, invocations, golden_entry, tracer)
        for record in r.invocations:
            del record["files"]  # checked already; keeping them would grow the heap per round
        rounds.append(r)
    return rounds


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "rows_per_s": (_median(r.scaled_rows_per_s for r in rounds), "rows/s"),
        "cpu_ms_per_row": (_median(r.scaled_cpu_ms_per_row for r in rounds), "ms/row"),
        # After set-up and one round: repeating the CLI in one process keeps
        # raising the peak, which a user running the CLI once does not see and
        # which would tie the peak to how many rounds fit in the run.
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(traced: list[Round], untraced: list[Round], golden_entry: dict) -> dict:
    n = len(traced)
    out: dict[str, tuple[float, str]] = {}
    for module, fn in tracing.TARGETS:
        name = f"{module}.{fn}"
        rows = [r.layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}) for r in traced]
        out[f"{name}.busy_s"] = (sum(x["busy_s"] for x in rows) / n, "s")
        out[f"{name}.calls"] = (sum(x["calls"] for x in rows) / n, "count")
        if name in tracing.WITH_CHILDREN:
            out[f"{name}.self_s"] = (sum(x["self_s"] for x in rows) / n, "s")
    seeds = sum(r.seeds for r in traced)
    builds = sum(r.layers.get("scenario.build_scenario", {}).get("calls", 0) for r in traced)
    out["scenario.build_scenario.calls_per_seed"] = (builds / seeds if seeds else 0.0, "ratio")
    rof = "separation.rof_separate"
    rof_calls = sum(r.layers.get(rof, {}).get("calls", 0) for r in traced)
    windows = sum(r.distinct_inputs.get(rof, 0) for r in traced)
    out[f"{rof}.calls_per_window"] = (rof_calls / windows if windows else 0.0, "ratio")
    out["bench.series_csv_bytes"] = (sum(r.series_bytes for r in traced) / n, "bytes")
    plain = _median(r.scaled_rows_per_s for r in untraced)
    with_spans = _median(r.scaled_rows_per_s for r in traced)
    out["trace.rows_per_s_untraced"] = (plain, "rows/s")
    out["trace.rows_per_s_traced"] = (with_spans, "rows/s")
    out["trace.overhead_ratio"] = (plain / with_spans, "ratio")
    out["golden.call_count_mismatches"] = (float(len(call_mismatches(traced, golden_entry))), "count")
    return out


def call_mismatches(traced: list[Round], golden_entry: dict) -> set[tuple[str, str]]:
    """(invocation, function) pairs whose traced call count differs from the golden record.

    Reported, not counted as failures: removing redundant calls is the point
    of several planned optimisations.
    """
    bad = set()
    for r in traced:
        for record in r.invocations:
            want = golden_entry.get(record["label"], {}).get("calls", {})
            got = record["calls"]
            for name in set(want) | set(got):
                if want.get(name, 0) != got.get(name, 0):
                    bad.add((record["label"], name))
    return bad


# --- set-up ----------------------------------------------------------------


def time_import() -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import noisebench.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return _median(times)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare(cli, workload: str, entry: int, work: Path):
    """Write the workload's inputs PREPARE_REPEATS times; median time and invocations."""
    def quiet_cli(argv):
        return call_cli(cli, argv)[0]

    times, digests = [], set()
    for _ in range(PREPARE_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        invocations = workloads.WORKLOADS[workload](entry, work, quiet_cli)
        times.append(time.perf_counter() - t0)
        digests.add(_digest(work))
    if len(digests) != 1:
        raise BenchmarkError(f"{workload} inputs differ between identical set-ups")
    return _median(times), invocations


# --- machine record --------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, read from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "noisebench_workers": os.environ.get("NOISEBENCH_THREADS") or os.cpu_count(),
    }


# --- entry point -----------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    record = golden.load(HERE / "golden" / f"{workload}.json.gz")
    entry = seed % workloads.POOL_SIZES[workload]
    golden_entry = record["entries"][str(entry)]
    work = OUT / "work" / workload

    import_s = time_import()
    generate_s, invocations = prepare(cli, workload, entry, work)
    setup_s = import_s + generate_s

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    traced: list[Round] = []
    tracer = None
    idle_before = speed.idle_factor()
    with speed.SpeedMonitor(OUT / f"{stem}-speed.txt") as monitor:
        untraced = measure(cli, invocations, golden_entry, seconds)
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                traced = measure(cli, invocations, golden_entry, seconds, tracer)
    idle_after = speed.idle_factor()
    rounds = untraced + traced
    for r in rounds:
        r.speed = monitor.factor(r.start, r.end)

    if trace:
        metrics = per_layer(traced, untraced, golden_entry)
    else:
        metrics = end_to_end(untraced, setup_s)
    result = {
        "correct": all(r.mismatched == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "pool_entry": entry, "seconds": seconds,
        "machine": machine_record(),
        "setup": {"import_s": import_s, "generate_s": generate_s},
        "speed": {"idle_before": idle_before, "idle_after": idle_after,
                  "during_median": _median(r.speed for r in rounds)},
        "rounds": [{"traced": i >= len(untraced), "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                    "speed": r.speed, "rows_per_s": r.rows_per_s, "rows": r.rows,
                    "peak_rss_mb": r.peak_rss_mb,
                    "attempted": r.attempted, "failed": r.failed,
                    "mismatched": r.mismatched, "errors": r.errors}
                   for i, r in enumerate(rounds)],
        "result": result,
    }
    if trace:
        details["call_count_mismatches"] = sorted(map(list, call_mismatches(traced, golden_entry)))
        tracing.write_spans(OUT / f"{stem}-spans.csv", tracer.recorded)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print("machine " + json.dumps(details["machine"], sort_keys=True))
    for message in sorted({e for r in rounds for e in r.errors}):
        print(f"failed invocation (program defect): {message}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
