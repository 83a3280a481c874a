"""Framing, DFT and power-spectrum assembly for time-frequency blocks.

Conventions: frames are non-overlapping, rectangular-windowed slices of the
input stream; the DFT is the unnormalized forward transform (Parseval reads
``sum |X(n)|^2 == N * sum |x(t)|^2``); bin powers are ``|X(n)|^2 / N`` so the
mean over bins equals the time-domain mean power.  A resource block is one
read-only (M, N) complex array, row i holding frame i, so a window of frames
is a slice and the block-level operations work on the whole array at once:
the block of a stream is ``ResourceBlock(frame_spectra(samples, N, M))`` and
its averaged periodogram ``power_matrix(block).mean(axis=0)``.
:class:`SpectralFrame` and :class:`PowerSpectrum` serve the single-frame
functions.  All value types hold read-only arrays and every operation is a
pure function, so results can be shared freely between threads.

Ownership: a sample stream is a plain complex128 array, its caller's.  A
full-length array is built once and, while nothing else can see it, written
in place (scaled, filtered, squared, transformed: the stream's buffer
becomes the block's); it is frozen once, when it is handed to a block, frame
or spectrum type, and nothing writes to it after that.  Those types keep a
read-only array as is and copy a writeable one, because the caller could
still write through it; :func:`frozen` states this rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError


def frozen(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, which a value type converted from the value ``given``, made read-only.

    The ownership rule, stated once: ``arr`` is copied only when it may share
    memory with ``given`` and ``given`` is a writeable array, which the caller
    could still write through.  A read-only array is kept as is, and an array
    the conversion has just built is frozen in place.
    """
    if isinstance(given, np.ndarray) and given.flags.writeable and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _finite_complex(values, what: str) -> np.ndarray:
    """Checked complex vector: ``values`` itself where it already is one, neither copied nor frozen."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    finite = np.isfinite(arr)  # a complex entry is finite when both its parts are
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"{what} contains a non-finite value at sample {idx}")
    return arr


def mean_power(samples: np.ndarray) -> float:
    """Mean of |s|^2 over a complex sample array: abs, squared in place, then the mean."""
    if samples.size == 0:
        raise InsufficientSamplesError("series is empty")
    power = np.abs(samples)
    np.square(power, out=power)
    return float(np.mean(power))


@dataclass(frozen=True)
class SpectralFrame:
    """N complex spectral coefficients of one time frame."""

    bins: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bins", frozen(_finite_complex(self.bins, "bins"), self.bins))
        if self.bins.size < 2:
            raise ValueError("a spectral frame needs at least 2 bins")
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")

    @property
    def n_bins(self) -> int:
        return self.bins.size


@dataclass(frozen=True)
class PowerSpectrum:
    """Non-negative per-bin powers of one frame (mW when scenario-scaled).

    Every input is checked; the array is owned by the rule of :func:`frozen`.
    """

    power: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        arr = np.asarray(self.power, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("power must be one-dimensional")
        if not np.isfinite(arr).all():
            raise ValueError("power contains non-finite entries")
        if (arr < 0).any():
            raise ValueError("power entries must be non-negative")
        object.__setattr__(self, "power", frozen(arr, self.power))

    @property
    def n_bins(self) -> int:
        return self.power.size


@dataclass(frozen=True)
class ResourceBlock:
    """M spectral frames of N bins as one read-only (M, N) complex array: the unit of analysis.

    Row i holds frame i's coefficients.  The array is validated once, here,
    and owned by the rule of :func:`frozen`.
    """

    spectral: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.spectral, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError(f"a resource block is a 2-D (frames, bins) array, got {arr.ndim}-D")
        if arr.shape[0] < 1:
            raise ValueError("a resource block needs at least one frame")
        if arr.shape[1] < 2:
            raise ValueError("a spectral frame needs at least 2 bins")
        finite = np.isfinite(arr)
        if not finite.all():
            frame, bin_ = np.argwhere(~finite)[0]
            raise ValueError(f"block contains a non-finite value at frame {frame}, bin {bin_}")
        object.__setattr__(self, "spectral", frozen(arr, self.spectral))

    @property
    def n_frames(self) -> int:
        return self.spectral.shape[0]

    @property
    def n_bins(self) -> int:
        return self.spectral.shape[1]


def frame_spectra(samples: np.ndarray, frame_len: int, frame_count: int) -> np.ndarray:
    """The writeable (frame_count, frame_len) DFTs of the 1-D complex stream
    ``samples``, row i that of samples [i*frame_len, (i+1)*frame_len).

    The stream is handed over: a complex128 one of exactly the frames' length
    is transformed in place, while a longer one has its frames copied out
    first, so the spectra never pin a discarded tail.  No window is applied,
    and finiteness is left to where the stream is made and to the block.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if frame_len < 1 or frame_count < 1:
        raise ValueError("frame_len and frame_count must be >= 1")
    needed = frame_len * frame_count
    if samples.size < needed:
        raise InsufficientSamplesError(
            f"need {needed} samples for {frame_count} frames of {frame_len}, have {samples.size}"
        )
    frames = samples[:needed].reshape(frame_count, frame_len)
    if samples.size > needed:
        frames = frames.copy()
    return np.fft.fft(frames, axis=1, out=frames)


def power_spectrum(frame: SpectralFrame) -> PowerSpectrum:
    """Per-bin power |X(n)|^2 / N; its bin mean equals the time-domain mean power."""
    n = frame.n_bins
    power = (frame.bins.real**2 + frame.bins.imag**2) / n
    power.setflags(write=False)
    return PowerSpectrum(power=power, frame_index=frame.frame_index)


def power_matrix(block: ResourceBlock) -> np.ndarray:
    """(M, N) matrix of per-frame bin powers in the |X|^2/N convention.

    Row i equals ``power_spectrum`` of frame i.  The squared imaginary parts
    are added about 65,536 at a time, so no second (M, N) square is built.
    """
    spectral = block.spectral
    mat = spectral.real**2
    step = max(1, 65536 // spectral.shape[1])
    for lo in range(0, spectral.shape[0], step):
        mat[lo:lo + step] += spectral.imag[lo:lo + step]**2
    mat /= spectral.shape[1]
    mat.setflags(write=False)
    return mat
