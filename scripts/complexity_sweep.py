#!/usr/bin/env python3
"""Operation-count sweep over block sizes for the complexity comparison.

A thin front end to ``noisebench ops`` (its five default methods): it writes
the per-size counts to ``--out``, reads them back and prints each method's
totals with the growth ratio per doubling.  The counts are the paper's
operation model, not timings: its leading terms are quadratic for ML, AIC
and MMSE and cubic for CBE, whose covariance product and eigensolve are
booked at m**2 * 2m and 4m**3 / 3 multiply-adds for m frames.

Usage:
    python scripts/complexity_sweep.py [--sizes 64,128,256,512] [--out ops.csv]
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from noisebench.cli import main as cli_main


def growth_table(path: Path) -> list[str]:
    """One line per method: total operations per size, then the ratio per step."""
    totals: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            label = row["method"] if row["separation"] == "none" else \
                f"{row['method']}({row['separation']})"
            totals.setdefault(label, []).append((int(row["size"]), int(row["ops_total"])))
    sizes = [size for size, _ in next(iter(totals.values()))]
    lines = [f"{'method':<12} " + " ".join(f"{s:>12}" for s in sizes) + "   growth"]
    for label, points in totals.items():
        counts = [total for _, total in points]
        growth = " ".join(f"x{b / a:.2f}" for a, b in zip(counts, counts[1:]))
        lines.append(f"{label:<12} " + " ".join(f"{t:>12}" for t in counts) + f"   {growth}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="64,128,256,512")
    parser.add_argument("--out", default="ops.csv", help="counts CSV path")
    args = parser.parse_args()
    code = cli_main(["ops", "--sizes", args.sizes, "--out", args.out])
    if code == 0:
        print("\n".join(growth_table(Path(args.out))))
    return code


if __name__ == "__main__":
    sys.exit(main())
