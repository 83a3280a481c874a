"""Exception types shared across the toolkit.

Every one is a :class:`DataError`, a ValueError, so generic validation
handling still works; the CLI maps DataError to its degenerate-data exit code.
"""

from __future__ import annotations


class DataError(ValueError):
    """The data, not the request, rules out a result."""


class InsufficientSamplesError(DataError):
    """Input sample stream is too short for the requested framing."""


class TraceFormatError(DataError):
    """Raw IQ trace file is malformed (odd length, non-finite samples)."""


class ZeroPowerError(DataError):
    """An operation that requires strictly positive power received none."""


class DegenerateSpectrumError(DataError):
    """Spectrum carries no usable structure (all-zero, or no noise group)."""


class EmptyNoiseGroupError(DataError):
    """A separation mask left no bins classified as noise."""
