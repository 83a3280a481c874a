"""Command-line front end.

Subcommands: generate (synthesize a scenario to a raw IQ trace), run (full
benchmark to series/report CSVs), separate (per-bin mask plus the energy-drop
diagnostics behind the separation), estimate (one block-level estimate),
ops (operation-count sweep), convert (raw float32 IQ <-> CSV).

Exit codes: 0 success, 2 usage or configuration error, 3 degenerate data,
1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bench
from .errors import DataError
from .scenario import (
    ScenarioConfig,
    build_scenario,
    load_iq_csv,
    load_iq_trace,
    read_config_file,
    scenario_config_from_dict,
    time_series_of,
    write_iq_trace,
)
from .separation import RofParams, rof_separate
from .spectral import PowerSpectrum, averaged_periodogram, block_from_frames, frame_signal

USAGE_ERROR, DATA_ERROR, INTERNAL_ERROR = 2, 3, 1

_CONFIG_KEYS_HELP = (
    "config keys: name, n_bins, n_frames, sample_rate_hz, reference_noise_power_mw, "
    "subband_count, noise.kind (white-gaussian|surrogate-industrial|trace-file), "
    "noise.seed, noise.path, noise.params.{impulse_rate, impulse_amplitude_factor, "
    "spectral_tilt_db_per_decade}, signals[].{subband_index, occupancy_fraction, "
    "amplitude_mv | target_snr_db, frame_start, frame_end}, "
    "snr_schedule[].{frame_start, frame_end, target_snr_db}"
)


def _override_child(node, part: str, keypath: str):
    """The entry ``part`` names inside ``node``: a mapping key or a list index."""
    if isinstance(node, dict):
        return part
    if isinstance(node, list):
        if not part.isdigit():
            raise ValueError(f"override path {keypath!r}: {part!r} is not a list index")
        index = int(part)
        if index >= len(node):
            raise ValueError(f"override path {keypath!r}: index {index} out of range "
                             f"(list has {len(node)} entries)")
        return index
    raise ValueError(f"override path {keypath!r} crosses a non-container entry")


def _apply_override(data: dict, spec: str) -> None:
    """Set one config entry from ``dotted.path=value``; numeric parts index lists."""
    if "=" not in spec:
        raise ValueError(f"override {spec!r} is not of the form key=value")
    keypath, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = keypath.split(".")
    for part in parts[:-1]:
        key = _override_child(node, part, keypath)
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[_override_child(node, parts[-1], keypath)] = value


def _load_config(path: str, overrides: list[str]) -> ScenarioConfig:
    data = read_config_file(path)
    for spec in overrides or []:
        _apply_override(data, spec)
    return scenario_config_from_dict(data)


def _parse_method(text: str) -> bench.MethodSpec:
    name, _, separation = text.partition(":")
    name = name.strip().upper()
    separation = separation.strip().lower()
    if not separation:
        separation = "ideal" if name in ("ML", "MVU") else "none"
    return bench.MethodSpec(estimator=name, separation=separation)


_DEFAULT_METHODS = [
    "ML:ideal", "ML:fisher", "ML:rof", "MVU:ideal", "MVU:fisher", "MVU:rof",
    "AIC", "CBE", "MMSE",
]


def cmd_generate(args) -> int:
    config = _load_config(args.config, args.override)
    block, truth = build_scenario(config)
    series = time_series_of(block)
    del block  # only the series is written; the block need not outlive its inverse FFT
    write_iq_trace(args.out, series)
    finite = truth.true_snr_db[np.isfinite(truth.true_snr_db)]
    print(f"wrote {len(series)} samples ({8 * len(series)} bytes) to {args.out}")
    print(f"reference noise power: {config.reference_noise_power_mw:.9g} mW")
    print(f"frames with signal: {int(np.isfinite(truth.true_snr_db).sum())}/{truth.n_frames}")
    if finite.size:
        print(f"true SNR range: {finite.min():.9g} .. {finite.max():.9g} dB")
    print(f"signal bins marked: {int(truth.signal_bin_mask.sum())}")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args.config, args.override)
    methods = [_parse_method(m) for m in (args.method or _DEFAULT_METHODS)]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [config.noise.seed]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series, reports = bench.run_benchmark(config, methods, seeds, timing=args.timing)
    bench.write_series_csv(out / "series.csv", series)
    bench.write_report_csv(out / "report.csv", reports)
    print(f"wrote {out / 'series.csv'} and {out / 'report.csv'}")
    return 0


def _input_spectrum(args) -> PowerSpectrum:
    if args.power_csv:
        power = np.loadtxt(args.power_csv, delimiter=",", ndmin=1)
        return PowerSpectrum(power=power)
    series = load_iq_trace(args.input)
    frames = frame_signal(series, args.n_bins, args.frames)
    block = block_from_frames(frames)
    return averaged_periodogram(block)


def cmd_separate(args) -> int:
    spectrum = _input_spectrum(args)
    params = RofParams(lambda1_pct=args.lambda1, lambda2_fraction=args.lambda2)
    mask = rof_separate(spectrum, params)
    n = spectrum.n_bins
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("record,index,power,smoothed,is_signal,energy_drop_pct\n")
        smoothed = mask.aux["smoothed"]
        for i in range(n):
            fh.write("bin,%d,%.9g,%.9g,%d,\n"
                     % (i, spectrum.power[i], smoothed[i], int(mask.is_signal[i])))
        for j, d in enumerate(mask.aux["d_curve"]):
            fh.write("energy_drop,%d,,,,%.9g\n" % (j + 2, d))
    runs = mask.aux["runs"]
    print(f"K = {mask.aux['K']}; {len(runs)} signal band(s): {runs}")
    print(f"wrote {args.out}")
    return 0


def cmd_estimate(args) -> int:
    config = _load_config(args.config, args.override)
    method = _parse_method(args.method)
    entry = bench.last_window_estimate(config, method, config.noise.seed)
    print("method,separation,frame_index,noise_power_est_mw,snr_est_db")
    print("%s,%s,%d,%.9g,%.9g" % (
        entry.method, entry.separation, entry.frame_index[0],
        entry.noise_power_est_mw[0], entry.snr_est_db[0],
    ))
    return 0


def cmd_ops(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    methods = [_parse_method(m) for m in (args.method or ["ML:rof", "ML:fisher", "AIC", "CBE", "MMSE"])]
    lines = ["method,separation,size,ops_add,ops_mul,ops_cmp,ops_transcendental,ops_total"]
    for method, row in zip(methods, bench.count_ops_table(methods, sizes)):
        for size, counter in zip(sizes, row):
            counts = counter.counts
            lines.append("%s,%s,%d,%d,%d,%d,%d,%d" % (
                method.estimator, method.separation, size, counts.adds, counts.muls,
                counts.cmps, counts.transcendental, counts.total(),
            ))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# Samples formatted per slice by `convert --to csv`: the Python floats of one
# slice are alive at a time, not those of the whole trace.
_CSV_SLICE = 65_536


def cmd_convert(args) -> int:
    if args.to == "csv":
        samples = load_iq_trace(args.input).samples
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            for start in range(0, len(samples), _CSV_SLICE):
                part = samples[start:start + _CSV_SLICE]
                fh.writelines("%.9g,%.9g\n" % pair
                              for pair in zip(part.real.tolist(), part.imag.tolist()))
    else:
        write_iq_trace(args.out, load_iq_csv(args.input))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisebench",
        description="Noise-power/SNR estimation benchmark toolkit.",
        epilog=_CONFIG_KEYS_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="scenario config JSON file")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path), repeatable")

    p = sub.add_parser("generate", help="synthesize a scenario into a raw float32 IQ trace")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output trace path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run the benchmark and write series/report CSVs")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", action="append", metavar="EST[:SEP]",
                   help="method to run, e.g. MVU:rof or AIC; repeatable "
                        "(default: the full comparison matrix)")
    p.add_argument("--seeds", help="comma-separated seed list (default: config seed)")
    p.add_argument("--timing", action="store_true",
                   help="measure wall time per method (makes report.csv non-reproducible)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("separate", help="run ROF separation and dump its diagnostics")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="raw float32 IQ trace")
    src.add_argument("--power-csv", help="text file with one power value per line")
    p.add_argument("--n-bins", type=int, default=512, help="FFT size for trace input")
    p.add_argument("--frames", type=int, default=1,
                   help="frames to average before separation (trace input)")
    p.add_argument("--lambda1", type=float, default=RofParams.lambda1_pct,
                   help="bandwidth-walk stop threshold, %% of the peak energy drop")
    p.add_argument("--lambda2", type=float, default=RofParams.lambda2_fraction,
                   help="minimum signal-band width as a fraction of the bins")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("estimate", help="single block-level estimate for one method")
    add_config_args(p)
    p.add_argument("--method", required=True, metavar="EST[:SEP]")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ops", help="operation-count sweep over block sizes")
    p.add_argument("--sizes", required=True, help="comma-separated sizes, each >= 16")
    p.add_argument("--method", action="append", metavar="EST[:SEP]",
                   help="methods to count (default: ML:rof ML:fisher AIC CBE MMSE)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_ops)

    p = sub.add_parser("convert", help="convert raw float32 IQ traces to/from CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--to", choices=("csv", "raw"), default="csv")
    p.set_defaults(func=cmd_convert)

    return parser


# Thread-count accessors of OpenBLAS builds, in the order they are tried:
# numpy's bundled scipy-openblas (ILP64), then a system OpenBLAS, ILP64 or not.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_functions():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    Resolved on the first call, from the libraries mapped into the process,
    never at import.  None where no OpenBLAS symbol resolves (MKL,
    Accelerate, or no /proc).  scipy's own OpenBLAS exports none of these
    symbols, so it is left alone.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        for library in libraries:
            get = getattr(library, get_name, None)
            set_ = getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the caller's count.

    The program's BLAS calls (CBE's Gram matrix and eigensolves) gain nothing
    from a second thread, and give the same results on one.
    """
    functions = _openblas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
