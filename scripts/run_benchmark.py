#!/usr/bin/env python3
"""Reproduce the accuracy/stability comparison on the reference ISM scenario.

A thin front end to ``noisebench run`` on ``configs/ism_benchmark.json``
(four equal subbands, third one fully occupied over 1 mW noise) with the
full method matrix: ML/MVU with ideal, Fisher and rank-order-filter
separation, plus AIC, CBE and MMSE.  The flags below become config
overrides; the per-frame series and the aggregated report are written to
``--out``.

Usage:
    python scripts/run_benchmark.py [--seeds 0,1,...,19] [--out results/]
    python scripts/run_benchmark.py --snr-db -3 --noise surrogate-industrial
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from noisebench.cli import main as cli_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ism_benchmark.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(20)))
    parser.add_argument("--out", default="results")
    parser.add_argument("--snr-db", type=float, default=0.0)
    parser.add_argument("--noise", default="white-gaussian",
                        choices=("white-gaussian", "surrogate-industrial"))
    parser.add_argument("--n-frames", type=int, default=250)
    args = parser.parse_args()
    return cli_main([
        "run", "--config", str(CONFIG), "--out", args.out, "--seeds", args.seeds,
        "--override", f"name=ism-{args.noise}-{args.snr_db:g}dB",
        "--override", f"n_frames={args.n_frames}",
        "--override", f"noise.kind={args.noise}",
        "--override", f"signals.0.target_snr_db={args.snr_db}",
    ])


if __name__ == "__main__":
    sys.exit(main())
