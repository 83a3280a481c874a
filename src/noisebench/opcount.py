"""Arithmetic operation counters for complexity validation.

An :class:`OpCounter` tallies how many scalar additions, multiplications,
comparisons and transcendental evaluations one estimation pass performs.
The estimator and separation routines take no counter: the complexity model
is one table, ``bench.count_ops_table``, that books each method's closed
forms here (``bench.count_ops`` is its one-cell case).  Counts follow the
algorithm as defined (e.g. a k-window minimum cascade is N comparisons per
window size), not the vectorized computation; divisions and subtractions are
tallied as multiplications and additions respectively, and an N-point FFT is
booked as N*log2(N) additions plus the same number of multiplications.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OpCounts:
    """Scalar operation tallies for one pass."""

    adds: int = 0
    muls: int = 0
    cmps: int = 0
    transcendental: int = 0

    def total(self) -> int:
        return self.adds + self.muls + self.cmps + self.transcendental


@dataclass
class OpCounter:
    """Accumulates operation counts, optionally attributed to named stages."""

    counts: OpCounts = field(default_factory=OpCounts)
    stages: dict[str, OpCounts] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=list)

    def _bump(self, kind: str, n: int) -> None:
        n = int(n)
        setattr(self.counts, kind, getattr(self.counts, kind) + n)
        for name in self._stack:
            bucket = self.stages.setdefault(name, OpCounts())
            setattr(bucket, kind, getattr(bucket, kind) + n)

    def add(self, n: int) -> None:
        self._bump("adds", n)

    def mul(self, n: int) -> None:
        self._bump("muls", n)

    def cmp(self, n: int) -> None:
        self._bump("cmps", n)

    def transcend(self, n: int) -> None:
        self._bump("transcendental", n)

    def fft(self, n: int) -> None:
        """Book one unnormalized n-point FFT."""
        butterflies = int(round(n * math.log2(n))) if n > 1 else 0
        self.add(butterflies)
        self.mul(butterflies)

    @contextmanager
    def stage(self, name: str):
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()
