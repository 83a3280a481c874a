"""Exception types shared across the toolkit, and the one rule for raising them.

Every one is a :class:`DataError`, a ValueError, so generic validation
handling still works; the CLI maps DataError to its degenerate-data exit code.
"""

from __future__ import annotations


class DataError(ValueError):
    """The data, not the request, rules out a result."""


class InsufficientSamplesError(DataError):
    """Input sample stream is too short for the requested framing."""


class TraceFormatError(DataError):
    """An input file is malformed: a raw IQ trace of odd length, or a trace or power CSV
    with a non-numeric field, a wrong field count, no value, or a non-finite value."""


class ZeroPowerError(DataError):
    """An operation that requires strictly positive power received none."""


class DegenerateSpectrumError(DataError):
    """Spectrum carries no usable structure (all-zero, or no noise group)."""


class EmptyNoiseGroupError(DataError):
    """A separation mask left no bins classified as noise."""


def raise_first(checks: list) -> None:
    """Raise ``error(i)`` of the first check that flags the smallest flagged entry i.

    ``checks`` are ``(flags, error)`` pairs, flags a boolean array over the entries, in
    the order one entry is checked: the error is the one a loop over the entries raises."""
    failing = [int(flags.argmax()) for flags, _ in checks if flags.any()]
    if failing:
        i = min(failing)
        raise next(error for flags, error in checks if flags[i])(i)
