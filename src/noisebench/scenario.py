"""Simulated ISM-band observations: noise sources, rectangular signals, ground truth.

Observations are signal-plus-noise in the spectral domain, the signal being a
rectangular function over a contiguous bin range inside one of the equal
subbands.  Powers are carried in mW throughout; signal amplitudes are
quoted in mV with the sqrt-mW identification A_mw = (A_mv / sqrt(1000))^2, which
reproduces the reference amplitudes (63.2 mV at 0 dB for a quarter-band signal
over 1 mW noise).

Noise can be synthetic white Gaussian, a synthetic "industrial" surrogate
(white base plus sparse impulses plus a first-order spectral tilt; this stands
in for real captures, which are not distributed), or a raw IQ trace file of
interleaved little-endian float32 (I, Q) pairs.

A sample stream is a plain complex128 array, returned fresh to its caller and
checked finite where it is made (a trace reader, :func:`write_iq_trace`; a
synthetic stream is finite by construction).  Its buffer becomes the block's,
and only the block and the ground truth freeze theirs (by the rule of
:func:`noisebench.spectral.frozen`).
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .errors import InsufficientSamplesError, TraceFormatError, ZeroPowerError
from .spectral import ResourceBlock, _finite_complex, frame_spectra, frozen, mean_power

NOISE_KINDS = ("white-gaussian", "surrogate-industrial", "trace-file")

_MV_PER_SQRT_MW = np.sqrt(1000.0)  # 1 sqrt(mW) = sqrt(0.001) V = 31.62... mV
# Largest noise or signal power a scenario may carry.  The estimators square
# bin powers (variances, Fisher's criterion, MMSE's lag products), so powers
# near the float64 range would overflow into inf estimates.
MAX_POWER_MW = 1e50


def check_seed(seed: int) -> None:
    """Reject a seed that is not a 64-bit Philox key: an integer in [0, 2**64)."""
    try:
        key = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed {seed!r} is not an integer") from None
    if not 0 <= key < 2**64:
        raise ValueError(f"seed {seed} lies outside [0, 2**64)")


def _rng(seed: int) -> np.random.Generator:
    # Philox: counter-based, splittable, deterministic per 64-bit seed.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class SurrogateNoiseParams:
    """Shape parameters of the synthetic industrial noise surrogate."""

    impulse_rate: float = 1e-3
    impulse_amplitude_factor: float = 10.0
    spectral_tilt_db_per_decade: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.impulse_rate < 1.0:
            raise ValueError("impulse_rate must lie in [0, 1)")
        if self.impulse_amplitude_factor < 0:
            raise ValueError("impulse_amplitude_factor must be non-negative")
        # An impulse's power is the factor squared, bound like every other power.
        if not self.impulse_amplitude_factor <= np.sqrt(MAX_POWER_MW):
            raise ValueError("impulse_amplitude_factor must be finite and at most "
                             f"{np.sqrt(MAX_POWER_MW):g}")
        if not np.isfinite(self.spectral_tilt_db_per_decade):
            raise ValueError("spectral_tilt_db_per_decade must be finite")


@dataclass(frozen=True)
class NoiseSource:
    """Selects exactly one noise origin: synthetic kind, or a trace file."""

    kind: str = "white-gaussian"
    seed: int = 0
    path: str | None = None
    params: SurrogateNoiseParams = field(default_factory=SurrogateNoiseParams)

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if self.kind == "trace-file" and not self.path:
            raise ValueError("trace-file noise requires a path")
        if self.kind != "trace-file" and self.path is not None:
            raise ValueError(f"{self.kind} noise must not carry a path")
        if self.kind != "surrogate-industrial" and self.params != SurrogateNoiseParams():
            raise ValueError(f"{self.kind} noise must not carry params")
        check_seed(self.seed)


@dataclass(frozen=True)
class SubbandSignal:
    """A rectangular-spectrum transmission inside one subband.

    Exactly one of amplitude_mv / target_snr_db is given; a target SNR is
    translated into an amplitude at scenario build time via
    :func:`amplitude_for_snr` using the signal's own whole-band occupancy.
    frame_end is exclusive; None means "until the last frame".
    """

    subband_index: int
    occupancy_fraction: float
    amplitude_mv: float | None = None
    target_snr_db: float | None = None
    frame_start: int = 0
    frame_end: int | None = None

    def __post_init__(self):
        if self.subband_index < 0:
            raise ValueError("subband_index must be non-negative")
        if not 0.0 < self.occupancy_fraction <= 1.0:
            raise ValueError("occupancy_fraction must lie in (0, 1]")
        if (self.amplitude_mv is None) == (self.target_snr_db is None):
            raise ValueError("give exactly one of amplitude_mv or target_snr_db")
        if self.amplitude_mv is not None and not (
            self.amplitude_mv >= 0 and np.isfinite(self.amplitude_mv)
        ):
            raise ValueError("amplitude_mv must be finite and non-negative")
        if (self.amplitude_mv is not None
                and amplitude_mv_to_sqrt_mw(self.amplitude_mv) > np.sqrt(MAX_POWER_MW)):
            raise ValueError(f"amplitude_mv gives a signal power above {MAX_POWER_MW:g} mW")
        if self.frame_start < 0:
            raise ValueError("frame_start must be non-negative")
        if self.frame_end is not None and self.frame_end <= self.frame_start:
            raise ValueError("frame_end must lie after frame_start")

    def occupied_bins(self, n_bins: int, subband_count: int) -> tuple[int, int]:
        """Bin range [lo, hi) of this signal, centered inside its subband."""
        if n_bins % subband_count != 0:
            raise ValueError("n_bins must be divisible by subband_count")
        sub_width = n_bins // subband_count
        if self.subband_index >= subband_count:
            raise ValueError(
                f"subband_index {self.subband_index} out of range for {subband_count} subbands"
            )
        width = max(1, int(round(self.occupancy_fraction * sub_width)))
        lo = self.subband_index * sub_width + (sub_width - width) // 2
        return lo, lo + width

    def band_and_amplitude(self, n_bins: int, subband_count: int,
                           reference_noise_power_mw: float) -> tuple[int, int, float]:
        """(lo, hi, amplitude in sqrt-mW): the band of :meth:`occupied_bins` and
        the amplitude_mv given, or the one that puts target_snr_db over the
        reference noise power in that band."""
        lo, hi = self.occupied_bins(n_bins, subband_count)
        amplitude_mv = self.amplitude_mv
        if amplitude_mv is None:
            amplitude_mv = amplitude_for_snr(
                self.target_snr_db, reference_noise_power_mw, (hi - lo) / n_bins
            )
        return lo, hi, amplitude_mv_to_sqrt_mw(amplitude_mv)

    def active_in(self, frame: int, n_frames: int) -> bool:
        end = n_frames if self.frame_end is None else self.frame_end
        return self.frame_start <= frame < end


@dataclass(frozen=True)
class SnrStep:
    """One entry of an SNR schedule: frames [frame_start, frame_end) at target dB."""

    frame_start: int
    frame_end: int
    target_snr_db: float

    def __post_init__(self):
        if not 0 <= self.frame_start < self.frame_end:
            raise ValueError("need 0 <= frame_start < frame_end")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated transmission."""

    n_bins: int
    n_frames: int
    sample_rate_hz: float = 10e6  # recorded and checked; no computation reads it
    noise: NoiseSource = field(default_factory=NoiseSource)
    reference_noise_power_mw: float = 1.0
    subband_count: int = 4
    signals: tuple[SubbandSignal, ...] = ()
    snr_schedule: tuple[SnrStep, ...] = ()
    name: str = "scenario"

    def __post_init__(self):
        if self.n_bins < 2 or self.n_frames < 1:
            raise ValueError("need n_bins >= 2 and n_frames >= 1")
        if not (self.sample_rate_hz > 0 and np.isfinite(self.sample_rate_hz)):
            raise ValueError("sample_rate_hz must be positive and finite")
        if self.reference_noise_power_mw <= 0:
            raise ValueError("reference_noise_power_mw must be positive")
        if not self.reference_noise_power_mw <= MAX_POWER_MW:
            raise ValueError(f"reference_noise_power_mw must be finite and at most "
                             f"{MAX_POWER_MW:g} mW")
        if self.subband_count < 1 or self.n_bins % self.subband_count != 0:
            raise ValueError("subbands must partition the bins into equal contiguous ranges")
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "snr_schedule", tuple(self.snr_schedule))
        for sig in self.signals:
            sig.occupied_bins(self.n_bins, self.subband_count)  # validates placement


@dataclass(frozen=True)
class GroundTruth:
    """Per-frame reference noise power, analytic SNR and true signal mask, each
    array owned by the rule of :func:`noisebench.spectral.frozen`."""

    noise_power_mw: np.ndarray        # (M,)
    true_snr_db: np.ndarray           # (M,), -inf where no signal
    signal_bin_mask: np.ndarray       # (M, N) bool

    def __post_init__(self):
        power = np.asarray(self.noise_power_mw, dtype=np.float64)
        snr = np.asarray(self.true_snr_db, dtype=np.float64)
        mask = np.asarray(self.signal_bin_mask, dtype=bool)
        if mask.ndim != 2 or power.shape != (mask.shape[0],) or snr.shape != (mask.shape[0],):
            raise ValueError("ground truth arrays have inconsistent shapes")
        object.__setattr__(self, "noise_power_mw", frozen(power, self.noise_power_mw))
        object.__setattr__(self, "true_snr_db", frozen(snr, self.true_snr_db))
        object.__setattr__(self, "signal_bin_mask", frozen(mask, self.signal_bin_mask))

    @property
    def n_frames(self) -> int:
        return self.signal_bin_mask.shape[0]


def load_iq_trace(path: str | Path) -> np.ndarray:
    """Read interleaved little-endian float32 (I, Q) pairs in capture order.

    Returns a fresh complex128 array, the caller's to read or to write in place.
    """
    raw = Path(path).read_bytes()
    if len(raw) % 8 != 0:
        raise TraceFormatError(
            f"{path}: length {len(raw)} bytes is not a whole number of float32 I/Q pairs"
        )
    words = np.frombuffer(raw, dtype="<f4")
    # NaN and inf reach the max or the min, so no array as long as the trace is built.
    if words.size and not (np.isfinite(words.max()) and np.isfinite(words.min())):
        idx = int(np.flatnonzero(~np.isfinite(words))[0]) // 2
        raise TraceFormatError(f"{path}: non-finite value at sample {idx}")
    return np.frombuffer(raw, dtype="<c8").astype(np.complex128)


def _read_csv_rows(path: str | Path, columns: int, expected: str) -> np.ndarray:
    """The numbers of a CSV file, ``columns`` fields a line, blank lines skipped.

    Returns a (lines, columns) float64 array, with no rows for a file without
    a line.  A field that is not a number, a line with another number of
    fields, or a file that is not text raises TraceFormatError naming the
    file; ``expected`` describes the columns in that message.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            if any(line.strip() for line in fh):
                fh.seek(0)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            else:
                rows = np.empty((0, columns))
    except ValueError as exc:  # also a file that is not text
        raise TraceFormatError(f"{path}: {exc}") from None
    if rows.shape[1] != columns:
        raise TraceFormatError(f"{path}: expected {expected}, got {rows.shape[1]}")
    return rows


def load_iq_csv(path: str | Path) -> np.ndarray:
    """Read a CSV trace: one "I,Q" line per sample, blank lines skipped.

    A file without a sample is an empty trace.  A field that is not a number,
    a line without exactly two fields, or a value that is not finite as
    float32 (the raw trace's type) raises TraceFormatError naming the file.
    """
    pairs = _read_csv_rows(path, 2, "two columns (I, Q)")
    with np.errstate(over="ignore"):
        finite = np.isfinite(pairs.astype(np.float32)).all(axis=1)
    if not finite.all():
        raise TraceFormatError(f"{path}: non-finite value at sample {int(np.argmin(finite))}")
    return pairs[:, 0] + 1j * pairs[:, 1]


def load_power_csv(path: str | Path) -> np.ndarray:
    """Read a power spectrum: one value per line, blank lines skipped, by the
    rule of :func:`load_iq_csv`.

    A file without a value, a field that is not a number, a line with more
    than one field, or a value that is not finite or lies outside
    [0, MAX_POWER_MW] raises TraceFormatError naming the file and the bin.
    """
    power = _read_csv_rows(path, 1, "one column (power)")[:, 0]
    if power.size == 0:
        raise TraceFormatError(f"{path}: no power values")
    finite = np.isfinite(power)
    if not finite.all():
        raise TraceFormatError(f"{path}: non-finite value at bin {int(np.argmin(finite))}")
    in_range = (power >= 0.0) & (power <= MAX_POWER_MW)
    if not in_range.all():
        i = int(np.argmin(in_range))
        raise TraceFormatError(f"{path}: value {power[i]:.9g} at bin {i} "
                               f"outside [0, {MAX_POWER_MW:g}]")
    return power


def write_iq_trace(path: str | Path, samples: np.ndarray) -> None:
    """Write a 1-D complex stream, every sample finite, as raw float32 interleaved I/Q."""
    _finite_complex(samples, "samples").astype("<c8").tofile(path)


def _scale_to_power(samples: np.ndarray, target_mw: float) -> None:
    """Scale a private array in place by one real factor so the mean of |s|^2 is target_mw."""
    if target_mw <= 0:
        raise ValueError("target power must be positive")
    current = mean_power(samples)
    if current == 0.0:
        raise ZeroPowerError("cannot rescale an all-zero series")
    samples *= np.sqrt(target_mw / current)


def _complex_normals(rng: np.random.Generator, draws: np.ndarray) -> np.ndarray:
    """A fresh complex128 array: the next ``draws.size`` standard normals as its real
    parts, then as many more as its imaginary parts, drawn through the buffer ``draws``."""
    samples = np.empty(draws.size, dtype=np.complex128)
    samples.real = rng.standard_normal(out=draws)
    samples.imag = rng.standard_normal(out=draws)
    return samples


def _synthetic_samples(length: int, params: SurrogateNoiseParams, seed: int) -> np.ndarray:
    """A fresh, unscaled array of the synthetic industrial-environment surrogate.

    Complex Gaussian base with E|w|^2 = 1, plus Bernoulli impulses of magnitude
    impulse_amplitude_factor times the base RMS at uniformly random phase
    (drawn only when impulse_rate > 0), plus a first-order recursive tilt
    filter.  With no impulses and no tilt it is white Gaussian noise.  A
    stand-in for real captures, with no claim of matching any measured one.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _rng(seed)
    draws = np.empty(length)
    samples = _complex_normals(rng, draws)
    samples *= np.sqrt(0.5)
    if params.impulse_rate > 0:
        hits = rng.random(out=draws) < params.impulse_rate
        n_hits = int(hits.sum())
        if n_hits:
            phases = np.exp(2j * np.pi * rng.random(n_hits))
            samples[hits] += params.impulse_amplitude_factor * phases
    del draws  # the filter's copies below need the room
    tilt = params.spectral_tilt_db_per_decade
    if tilt != 0.0:
        # One-pole recursion; |tilt|/20 maps one 20 dB/decade pole to rho = 1.
        rho = min(abs(tilt) / 20.0, 0.95)
        if tilt < 0:
            _one_pole_lowpass(samples, rho)
        else:
            samples[1:] -= rho * samples[:-1]
    return samples


_LOWPASS_BLOCK = 32


def _one_pole_lowpass(x: np.ndarray, rho: float) -> np.ndarray:
    """y[n] = x[n] + rho y[n-1] from rest, written over the complex array ``x``, which is returned.

    scipy's lfilter([1], [1, -rho], x) to rounding.  The real and the
    imaginary part are the two rows of one float view of ``x``.
    """
    _one_pole_rows(x.view(np.float64).reshape(-1, 2).T, rho)
    return x


def _one_pole_rows(x: np.ndarray, rho: float) -> None:
    """The one-pole recursion along each row of the float array ``x``, in place,
    in blocks of ``_LOWPASS_BLOCK``.

    Each block is filtered from rest by one lower-triangular matmul, a row at
    a time through one copy of the row zero-padded to whole blocks.  The
    output at each block's end then obeys the same recursion across blocks
    with pole rho^B, which this function solves on itself, and block b adds
    rho^(k+1) times block b-1's end at its sample k.
    """
    m, n = x.shape
    b = min(n, _LOWPASS_BLOCK)
    powers = rho ** np.arange(b + 1)
    # Subnormal powers (rho^B for small rho, one level down) change no output
    # but slow the matmul many times over.
    powers[powers < np.finfo(np.float64).tiny] = 0.0
    lags = np.arange(b)[:, None] - np.arange(b)
    lower = np.where(lags >= 0, powers[np.abs(lags)], 0.0)
    if n <= b:
        x[...] = np.ascontiguousarray(x) @ lower.T
        return
    n_blocks = -(-n // b)
    ends = np.empty((m, n_blocks))
    for row, end in zip(x, ends):
        blocks = np.zeros(n_blocks * b)
        blocks[:n] = row
        local = blocks.reshape(n_blocks, b) @ lower.T
        del blocks  # one row's copy and product at a time, never two
        end[:] = local[:, -1]
        row[:] = local.reshape(-1)[:n]
        del local
    _one_pole_rows(ends, rho ** b)
    for row, end in zip(x, ends):
        row[b:] += (end[:-1, None] * powers[1:]).reshape(-1)[:n - b]


def amplitude_for_snr(target_snr_db: float, noise_power_mw: float,
                      occupied_fraction: float) -> float:
    """Rect amplitude (mV) so that A^2 * fraction equals noise * 10^(SNR/10) in mW."""
    if not 0.0 < occupied_fraction <= 1.0:
        raise ValueError("occupied_fraction must lie in (0, 1]")
    if noise_power_mw <= 0:
        raise ValueError("noise_power_mw must be positive")
    # Checked in dB first: 10 ** (SNR / 10) itself overflows above about 3080 dB.
    power_db = 10.0 * np.log10(noise_power_mw / occupied_fraction) + target_snr_db
    if not power_db <= 10.0 * np.log10(MAX_POWER_MW):
        raise ValueError(f"a target SNR of {target_snr_db} dB must give a finite signal "
                         f"power of at most {MAX_POWER_MW:g} mW")
    a_sqrt_mw = np.sqrt(noise_power_mw * 10.0 ** (target_snr_db / 10.0) / occupied_fraction)
    return float(a_sqrt_mw * _MV_PER_SQRT_MW)


def amplitude_mv_to_sqrt_mw(amplitude_mv: float) -> float:
    return amplitude_mv / _MV_PER_SQRT_MW


def _noise_series(config: ScenarioConfig) -> np.ndarray:
    """The noise stream at the reference power: one array, built, then scaled once in place."""
    total = config.n_bins * config.n_frames
    src = config.noise
    if src.kind == "white-gaussian":
        samples = _synthetic_samples(total, SurrogateNoiseParams(impulse_rate=0.0), src.seed)
    elif src.kind == "surrogate-industrial":
        samples = _synthetic_samples(total, src.params, src.seed)
    else:
        samples = load_iq_trace(src.path)
        if samples.size < total:
            raise InsufficientSamplesError(
                f"trace {src.path} has {samples.size} samples, scenario needs {total}"
            )
    _scale_to_power(samples, config.reference_noise_power_mw)
    return samples


def _frame_amplitudes(config: ScenarioConfig, frame: int) -> list[tuple[int, int, float]]:
    """Resolved (lo, hi, amplitude_sqrt_mw) for every signal active in ``frame``."""
    active = [s for s in config.signals if s.active_in(frame, config.n_frames)]
    if not active:
        return []
    step = next(
        (s for s in config.snr_schedule if s.frame_start <= frame < s.frame_end), None
    )
    if step is None:
        return [s.band_and_amplitude(config.n_bins, config.subband_count,
                                     config.reference_noise_power_mw) for s in active]
    # A schedule step overrides amplitudes: every active signal gets the
    # amplitude that makes the combined occupancy hit the target SNR.
    bands = [s.occupied_bins(config.n_bins, config.subband_count) for s in active]
    combined = sum(hi - lo for lo, hi in bands) / config.n_bins
    a_sqrt_mw = amplitude_mv_to_sqrt_mw(
        amplitude_for_snr(step.target_snr_db, config.reference_noise_power_mw, combined))
    return [(lo, hi, a_sqrt_mw) for lo, hi in bands]


def _constant_segments(config: ScenarioConfig) -> list[tuple[int, int]]:
    """Frame ranges [start, end) over which the active signals and SNR step stay the same."""
    m = config.n_frames
    edges = {0, m}
    for sig in config.signals:
        edges.update((sig.frame_start, m if sig.frame_end is None else sig.frame_end))
    for step in config.snr_schedule:
        edges.update((step.frame_start, step.frame_end))
    cuts = sorted(e for e in edges if 0 <= e <= m)
    return list(zip(cuts[:-1], cuts[1:]))


def build_scenario(config: ScenarioConfig) -> tuple[ResourceBlock, GroundTruth]:
    """Construct the noisy observation block and its analytic ground truth.

    The noise stream is rescaled so its mean power over all N*M samples equals
    the reference exactly; signals are added in the spectral domain, so the
    per-frame true SNR follows from the configured powers alone.  The frames
    are transformed in one batched FFT in the stream's buffer, and each signal
    is added to every frame of a range whose active signals do not change, in
    signal order.  A signal of amplitude A (in sqrt-mW) adds A * sqrt(N) to
    each bin of its band, which makes its whole-band mean-power contribution
    exactly A^2 * width / N in the |X|^2/N power convention; bins outside the
    band are untouched.
    """
    n, m = config.n_bins, config.n_frames
    spectral = frame_spectra(_noise_series(config), n, m)

    mask = np.zeros((m, n), dtype=bool)
    snr_db = np.full(m, -np.inf)
    root_n = np.sqrt(n)
    for start, end in _constant_segments(config):
        signal_power = 0.0
        for lo, hi, a_sqrt_mw in _frame_amplitudes(config, start):
            spectral[start:end, lo:hi] += a_sqrt_mw * root_n
            mask[start:end, lo:hi] = True
            signal_power += a_sqrt_mw**2 * (hi - lo) / n
        if signal_power > 0:
            snr_db[start:end] = 10.0 * np.log10(signal_power / config.reference_noise_power_mw)

    noise_power = np.full(m, config.reference_noise_power_mw)
    for arr in (spectral, noise_power, snr_db, mask):
        arr.setflags(write=False)  # handed over, not copied
    truth = GroundTruth(noise_power_mw=noise_power, true_snr_db=snr_db, signal_bin_mask=mask)
    return ResourceBlock(spectral), truth


def time_series_of(block: ResourceBlock) -> np.ndarray:
    """Inverse-transform a block back to one contiguous time-domain stream."""
    return np.fft.ifft(block.spectral, axis=1).ravel()


# --- configuration files ----------------------------------------------------


# The JSON values a config field of each annotated type accepts.  A bool is
# not a number, and an integer field takes no float, not even 512.0.
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 str: ((str,), "a string")}


@functools.cache
def _type_hints(cls: type) -> dict:
    """The resolved field annotations of ``cls``: evaluating them costs more
    than the rest of a config parse, so once per process."""
    return get_type_hints(cls)


def _config_kwargs(mapping, cls: type, where: str, key: str) -> dict:
    """The section ``mapping`` as keyword arguments of the dataclass ``cls``.

    Unknown and missing keys are rejected, and so is a value whose JSON type
    does not match its field's annotation (int, float or str, each optionally
    None); nested sections are left to the caller.  ``where`` names the
    section in the key messages, ``key`` is its dotted override path.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"{key} must be an object, got {mapping!r}")
    unknown = set(mapping) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = {f.name for f in fields(cls) if f.default is MISSING
               and f.default_factory is MISSING} - set(mapping)
    if missing:
        raise ValueError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")
    hints = _type_hints(cls)
    for name, value in mapping.items():
        allowed = get_args(hints[name]) or (hints[name],)
        scalar = [t for t in allowed if t in _CONFIG_TYPES]
        if not scalar or (value is None and type(None) in allowed):
            continue
        types, what = _CONFIG_TYPES[scalar[0]]
        if isinstance(value, bool) or not isinstance(value, types):
            what += " or null" if type(None) in allowed else ""
            raise ValueError(f"{key}{'.' if key else ''}{name} must be {what}, got {value!r}")
    return dict(mapping)


def _config_list(items, name: str):
    """``items``, checked to be the array that the list section ``name`` must be."""
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"{name} must be an array, got {items!r}")
    return items


def scenario_config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed structured text; unknown keys and
    values of the wrong type are rejected."""
    if not isinstance(data, dict):
        raise ValueError("scenario config must be a mapping")
    kwargs = _config_kwargs(data, ScenarioConfig, "scenario config", "")
    noise_data = _config_kwargs(kwargs.pop("noise", {}), NoiseSource, "noise", "noise")
    params_data = _config_kwargs(noise_data.pop("params", {}), SurrogateNoiseParams,
                                 "noise.params", "noise.params")
    noise = NoiseSource(params=SurrogateNoiseParams(**params_data), **noise_data)
    signals = tuple(
        SubbandSignal(**_config_kwargs(sig, SubbandSignal, f"signals[{i}]", f"signals.{i}"))
        for i, sig in enumerate(_config_list(kwargs.pop("signals", []), "signals")))
    schedule = tuple(
        SnrStep(**_config_kwargs(step, SnrStep, f"snr_schedule[{i}]", f"snr_schedule.{i}"))
        for i, step in enumerate(_config_list(kwargs.pop("snr_schedule", []), "snr_schedule")))
    return ScenarioConfig(noise=noise, signals=signals, snr_schedule=schedule, **kwargs)


def read_config_file(path: str | Path):
    """The parsed content of a JSON scenario config file; invalid JSON is a
    ValueError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def scenario_config_from_file(path: str | Path) -> ScenarioConfig:
    """Load a JSON scenario config file."""
    return scenario_config_from_dict(read_config_file(path))


def with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    """Copy of the config with the noise seed replaced."""
    return replace(config, noise=replace(config.noise, seed=seed))
