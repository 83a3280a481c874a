"""Golden records: the CLI outputs recorded at a reference commit, and the check.

A golden file holds, per pool entry and per invocation label, the exit code,
the text of each output file and the traced call counts.  A run's output is
compared attempt by attempt: text columns and integer columns (seeds, frame
indices, sizes, operation counts) must match exactly; float columns must agree
to REL_TOL relative, allowing one unit in the ninth significant digit because
the CLI prints floats with ``%.9g``; infinities and NaNs must be identical.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REL_TOL = 1e-9

FLOAT_COLUMNS = frozenset({
    "noise_power_est_mw", "noise_power_true_mw", "snr_est_db", "snr_true_db",
    "rmse_db", "std_dev_db", "mean_bias_db", "wall_time_ms",
})

# Attempt outcomes.  "expected" is a failure the golden record has too: it
# counts as failed, but the run still reproduces the reference behaviour.
OK, EXPECTED, MISMATCH = "ok", "expected", "mismatch"


def load(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(path: Path, record: dict) -> None:
    data = json.dumps(record, sort_keys=True, indent=0).encode("utf-8")
    # mtime=0 keeps the file byte-identical when re-recorded from the same outputs.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)


def float_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(g) and math.isfinite(w)):
        return False  # non-finite values must be printed identically
    quantum = 10.0 ** (math.floor(math.log10(abs(w))) - 8) if w else 0.0
    return abs(g - w) <= REL_TOL * abs(w) + quantum


def rows_match(header: list[str], got: list[list[str]], want: list[list[str]]) -> bool:
    if len(got) != len(want):
        return False
    floats = [name in FLOAT_COLUMNS for name in header]
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        for is_float, g, w in zip(floats, g_row, w_row):
            if g != w and not (is_float and float_matches(g, w)):
                return False
    return True


class Table:
    """A parsed CLI output CSV, rows grouped by key columns."""

    def __init__(self, text: str, key: tuple[str, ...]):
        lines = text.splitlines()
        self.header = lines[0].split(",")
        index = [self.header.index(k) for k in key]
        self.groups: dict[tuple[str, ...], list[list[str]]] = {}
        for line in lines[1:]:
            row = line.split(",")
            if len(row) != len(self.header):
                raise ValueError(f"malformed CSV row: {line!r}")
            self.groups.setdefault(tuple(row[i] for i in index), []).append(row)

    def column(self, rows: list[list[str]], name: str) -> list[str]:
        i = self.header.index(name)
        return [r[i] for r in rows]


def _table(files: dict[str, str] | None, name: str, key: tuple[str, ...]) -> Table | None:
    text = (files or {}).get(name)
    return Table(text, key) if text else None


def _plausible_series(table: Table, rows: list[list[str]]) -> bool:
    """Shape check for a series the golden record lacks (its method failed there)."""
    values = [float(v) for v in table.column(rows, "noise_power_est_mw")]
    return bool(values) and all(math.isfinite(v) and v > 0 for v in values)


def _failure(exit_code: int, golden: dict | None) -> str:
    """A failed invocation is expected only with the exit code the golden record has."""
    return EXPECTED if golden is not None and golden["exit"] == exit_code else MISMATCH


def check_run(attempts: list[tuple[str, str, str]], exit_code: int,
              files: dict[str, str], golden: dict | None) -> list[tuple[str, int]]:
    """Outcome and row count of each (method, separation, seed) series of a `run`."""
    golden_ok = golden is not None and golden["exit"] == 0
    if exit_code != 0:
        return [(_failure(exit_code, golden), 0)] * len(attempts)
    series = _table(files, "series.csv", ("method", "separation", "seed"))
    report = _table(files, "report.csv", ("method", "separation"))
    g_series = _table(golden["files"], "series.csv", ("method", "separation", "seed")) if golden_ok else None
    g_report = _table(golden["files"], "report.csv", ("method", "separation")) if golden_ok else None
    out = []
    for key in attempts:
        rows = series.groups.get(key) if series else None
        report_rows = report.groups.get(key[:2]) if report else None
        if not rows or not report_rows:
            out.append((MISMATCH, 0))
            continue
        if g_series is not None and key in g_series.groups:
            good = (rows_match(series.header, rows, g_series.groups[key])
                    and rows_match(report.header, report_rows, g_report.groups.get(key[:2], [])))
        else:
            good = _plausible_series(series, rows)
        out.append((OK if good else MISMATCH, len(rows) if good else 0))
    return out


def check_ops(attempts: list[tuple[str, str, str]], exit_code: int,
              files: dict[str, str], golden: dict | None) -> list[tuple[str, int]]:
    """Outcome of each (method, separation, size) row of an `ops` sweep: exact counts."""
    golden_ok = golden is not None and golden["exit"] == 0
    if exit_code != 0:
        return [(_failure(exit_code, golden), 0)] * len(attempts)
    key = ("method", "separation", "size")
    table = _table(files, "ops.csv", key)
    g_table = _table(golden["files"], "ops.csv", key) if golden_ok else None
    out = []
    for attempt in attempts:
        rows = table.groups.get(attempt) if table else None
        want = g_table.groups.get(attempt) if g_table else None
        good = bool(rows) and (rows == want if want is not None else len(rows) == 1)
        out.append((OK if good else MISMATCH, 1 if good else 0))
    return out
