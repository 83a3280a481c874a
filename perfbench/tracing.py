"""Spans around the public functions of noisebench's modules.

A :class:`Tracer` replaces each traced function with a wrapper in every
``noisebench`` module that holds a reference to it, so calls are caught where
the caller looks the function up (``bench.build_scenario``,
``estimators.mp_cdf`` inside ``cbe_estimate``, ``cli.bench.count_ops`` ...).
Each call records one span: id, parent id, name, start, end, thread and the
invocation it belongs to.  Spans stay in memory and are written out at the
end of the run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

PACKAGE = "noisebench"

# (module, function) pairs; the metric prefix is "<module>.<function>".
TARGETS = (
    ("scenario", "build_scenario"),
    ("scenario", "load_iq_trace"),
    ("spectral", "power_spectrum"),
    ("separation", "rof_separate"),
    ("separation", "rof_energy_drops"),
    ("separation", "fisher_separate"),
    ("estimators", "covariance_eigenvalues"),
    ("estimators", "mp_cdf"),
    ("estimators", "cbe_estimate"),
    ("estimators", "mvu_estimate"),
    ("estimators", "mmse_estimate"),
    ("estimators", "ml_estimate"),
    ("estimators", "aic_estimate"),
    ("bench", "count_ops"),
    ("bench", "ground_truths"),
    ("bench", "run_scenario"),
    ("bench", "write_series_csv"),
    ("bench", "write_report_csv"),
)

# Functions that call another traced function; their self time is reported.
WITH_CHILDREN = (
    "scenario.build_scenario",
    "separation.rof_separate",
    "estimators.cbe_estimate",
    "bench.count_ops",
    "bench.ground_truths",
    "bench.run_scenario",
)

# Functions whose distinct inputs are counted, to measure repeated work.
# rof_separate takes the power spectrum of one (averaged) window first.
INPUT_KEYS: dict[str, Callable] = {
    "separation.rof_separate": lambda power, *args, **kwargs: power.power.tobytes(),
}


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    thread: int
    invocation: int


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []     # since the last take()
        self.recorded: list[Span] = []  # everything taken so far
        self.inputs: dict[str, set] = defaultdict(set)
        self.invocation = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None, list[int]]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # A pool thread works for whatever the main thread is inside of.
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, span_id, parent, stack, name, start) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append(Span(span_id, parent, name, start, end,
                               threading.get_ident(), self.invocation))

    @contextmanager
    def span(self, name: str):
        """Record one span around a block, e.g. a whole CLI invocation."""
        state = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(*state, name, start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        key = INPUT_KEYS.get(name)
        inputs = self.inputs[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                inputs.add(hash(key(*args, **kwargs)))
            state = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(*state, name, start)

        return traced

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Swap every reference to a target in the package's modules for a wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            wrapped = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- output ------------------------------------------------------------

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Spans and distinct-input counts since the last take; the counts restart."""
        spans, self.spans = self.spans, []
        self.recorded.extend(spans)
        distinct = {name: len(keys) for name, keys in self.inputs.items()}
        for keys in self.inputs.values():
            keys.clear()
        return spans, distinct


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (summed over threads) and self_s.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children running in parallel threads count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        duration = s.end - s.start
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += duration - covered(children.get(s.span_id, []), s.start, s.end)
    return dict(out)


def write_spans(path: Path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("span_id,parent_id,name,start_s,end_s,thread,invocation\n")
        for s in spans:
            fh.write("%d,%s,%s,%.9f,%.9f,%d,%d\n" % (
                s.span_id, "" if s.parent_id is None else s.parent_id, s.name,
                s.start, s.end, s.thread, s.invocation))
