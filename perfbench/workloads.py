"""The benchmark's workloads: which CLI invocations make up one round, from a seed.

Each workload's ``prepare(entry, work, cli_main)`` writes its inputs under
``work`` and returns the invocations of one round.  Inputs come from the seed
through a pool of entries, ``entry = seed % POOL_SIZES[name]``, because every
entry has a golden record of the outputs (see golden.py); the same seed always
gives the same inputs.  Why each workload exists, and which layers it stresses or
bypasses, is in README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import golden

POOL = 8

# noisebench run's default comparison matrix, as (method, separation) in series.csv.
REF_MATRIX = (
    ("ML", "ideal"), ("ML", "fisher"), ("ML", "rof"),
    ("MVU", "ideal"), ("MVU", "fisher"), ("MVU", "rof"),
    ("AIC", "none"), ("CBE", "none"), ("MMSE", "none"),
)
REF_SEEDS_PER_ROUND = 2

LONG_STREAM_METHODS = ("ML:ideal", "ML:fisher", "MVU:ideal", "MVU:fisher", "AIC", "MMSE")
LONG_STREAM_FRAMES = 1000  # four times the reference scenario's 250 frames

# noisebench ops' default method set, as (method, separation) in its CSV.
OPS_METHODS = (("ML", "rof"), ("ML", "fisher"), ("AIC", "none"), ("CBE", "none"), ("MMSE", "none"))
OPS_SIZES = (64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class Invocation:
    """One `noisebench` call and the attempts it must produce."""

    label: str
    argv: tuple[str, ...]
    out_dir: Path
    outputs: tuple[str, ...]
    attempts: tuple[tuple[str, str, str], ...]
    check: Callable
    seeds: int  # scenario realizations the call simulates


def _run_invocation(label: str, config: Path, out: Path, extra: list[str],
                    attempts, seeds: int) -> Invocation:
    return Invocation(
        label=label,
        argv=("run", "--config", str(config), "--out", str(out), *extra),
        out_dir=out, outputs=("series.csv", "report.csv"),
        attempts=tuple(attempts), check=golden.check_run, seeds=seeds,
    )


def prepare_ref_matrix(entry: int, work: Path, cli_main) -> list[Invocation]:
    root = Path(__file__).resolve().parent.parent
    seeds = [REF_SEEDS_PER_ROUND * entry + i for i in range(REF_SEEDS_PER_ROUND)]
    attempts = [(m, s, str(k)) for m, s in REF_MATRIX for k in seeds]
    return [_run_invocation(
        "run", root / "configs" / "ism_benchmark.json", work / "out",
        ["--seeds", ",".join(map(str, seeds))], attempts, len(seeds),
    )]


def long_stream_configs(entry: int, trace: Path) -> tuple[dict, dict]:
    """Noise-only surrogate trace config, and the run config that reads the trace."""
    common = {"n_bins": 512, "n_frames": LONG_STREAM_FRAMES, "sample_rate_hz": 1e7,
              "reference_noise_power_mw": 1.0, "subband_count": 4}
    generate = dict(common, name="long-stream-noise", signals=[], noise={
        "kind": "surrogate-industrial", "seed": entry,
        "params": {"impulse_rate": 0.002, "impulse_amplitude_factor": 8.0,
                   "spectral_tilt_db_per_decade": -3.0},
    })
    half = LONG_STREAM_FRAMES // 2
    run = dict(common, name="long-stream", noise={"kind": "trace-file", "path": str(trace)},
               signals=[
                   # One transmitter switches off mid-stream as another switches on.
                   {"subband_index": 1, "occupancy_fraction": 0.5, "target_snr_db": 10.0,
                    "frame_end": half},
                   {"subband_index": 3, "occupancy_fraction": 0.5, "target_snr_db": 10.0,
                    "frame_start": half},
               ])
    return generate, run


def prepare_long_stream(entry: int, work: Path, cli_main) -> list[Invocation]:
    trace = work / "noise.iq"
    gen_config, run_config = long_stream_configs(entry, trace)
    gen_path, run_path = work / "generate.json", work / "run.json"
    gen_path.write_text(json.dumps(gen_config, indent=1), encoding="utf-8")
    run_path.write_text(json.dumps(run_config, indent=1), encoding="utf-8")
    code = cli_main(["generate", "--config", str(gen_path), "--out", str(trace)])
    if code != 0:
        raise RuntimeError(f"noisebench generate exited with {code}")
    invocations = []
    for method in LONG_STREAM_METHODS:
        name, _, sep = method.partition(":")
        # A trace-file scenario runs at its config seed, 0.
        invocations.append(_run_invocation(
            f"run {method}", run_path, work / "out", ["--method", method],
            [(name, sep or "none", "0")], 1,
        ))
    return invocations


def prepare_ops_sweep(entry: int, work: Path, cli_main) -> list[Invocation]:
    # count_ops draws its block from a fixed key inside the program, so this
    # workload's inputs cannot depend on the seed: its pool has one entry.
    out = work / "out"
    attempts = [(m, s, str(n)) for m, s in OPS_METHODS for n in OPS_SIZES]
    return [Invocation(
        label="ops",
        argv=("ops", "--sizes", ",".join(map(str, OPS_SIZES)), "--out", str(out / "ops.csv")),
        out_dir=out, outputs=("ops.csv",), attempts=tuple(attempts),
        check=golden.check_ops, seeds=0,
    )]


WORKLOADS = {
    "ref-matrix": prepare_ref_matrix,
    "long-stream": prepare_long_stream,
    "ops-sweep": prepare_ops_sweep,
}

# Pool entries with distinct inputs; ops-sweep has one.
POOL_SIZES = {"ref-matrix": POOL, "long-stream": POOL, "ops-sweep": 1}
