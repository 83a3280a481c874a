"""Exception types shared across the toolkit, the engines' status codes, and the one rule
for raising them.

Every exception type here is a :class:`DataError`, a ValueError, so generic validation
handling still works; the CLI maps DataError to its degenerate-data exit code.  The array
engines return a :class:`Status` per entry (frame, row or window), and their callers raise it.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


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


# The codes after OK = 0 with their exceptions and messages: UNEVALUATED for the entries
# past where an engine stopped, then one per check, in the order an engine checks.
_CODES = (
    ("UNEVALUATED", DataError, "entry {index} was not evaluated"),
    ("NO_NOISE_FRAME", EmptyNoiseGroupError, "no bins classified as noise"),  # ML
    ("NO_NOISE_WINDOW", EmptyNoiseGroupError, "no bins classified as noise in any frame"),  # MVU
    ("NOT_POSITIVE", ZeroPowerError, "{method}: estimate must be finite and positive, got {value}"),
    ("NO_NOISE_EIGENVALUES", EmptyNoiseGroupError,  # CBE, then NOT_POSITIVE
     "S={signal_count} signal eigenvalues leave no noise group (M={frames})"),
    ("EIGENSOLVER_FAILED", ValueError,
     "eigensolver failed on the sample covariance: Eigenvalues did not converge"),
    ("NEGATIVE_EIGENVALUE", ValueError, "eigenvalue {value} below -{tolerance} tolerance"),
    ("SQUARE_WINDOW", ZeroPowerError, "square blocks leave no Marchenko-Pastur margin"),
    ("ZERO_EIGENVALUE", ZeroPowerError, "smallest eigenvalue is zero; no noise floor to fit"),
    ("ZERO_RESIDUAL_BLOCK", ZeroPowerError, "all-zero residual block; nothing to estimate"),  # MMSE
    ("SINGULAR_WEIGHTS", DegenerateSpectrumError,
     "MMSE weight system is singular even after ridge"),
    ("ZERO_WEIGHT_SUM", ZeroPowerError, "MMSE weights sum to zero"),
    ("NEGATIVE_ESTIMATE", ZeroPowerError, "MMSE produced a non-positive estimate ({value})"),
    ("ALL_ZERO_SPECTRUM", DegenerateSpectrumError, "all-zero power spectrum"),  # ROF
    ("ROF_ALL_SIGNAL", DegenerateSpectrumError, "ROF marked every bin as signal"),
    ("MASK_ALL_SIGNAL", DegenerateSpectrumError, "mask classifies every bin as signal"),  # any mask
)
Status = IntEnum("Status", [("OK", 0)] + [(code[0], i) for i, code in enumerate(_CODES, 1)])
ERRORS = {Status(code): (error, message) for code, (_, error, message) in enumerate(_CODES, 1)}


def raise_first_status(status: np.ndarray, **fields) -> None:
    """Raise the error of the first entry whose status is not OK, as a loop would.

    The fields fill its message, an array field with the entry's element: ``method``,
    ``value`` (the estimate, or a CBE window's negative eigenvalue), ``tolerance``,
    ``signal_count`` and ``frames`` (a CBE window's S and length)."""
    failing = np.flatnonzero(status)
    if failing.size:
        i = int(failing[0])
        error, template = ERRORS[Status(status[i])]
        values = {k: v[i].item() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
        raise error(template.format(index=i, **values))
