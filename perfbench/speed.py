"""Machine-speed monitor, so that timings can be scaled to a reference speed.

On a shared host the same code runs up to twice as fast at one moment as at
another, in phases of seconds to minutes, so wall and CPU time per row vary
more between runs than any bound worth enforcing.  A child process times a
fixed pure-Python snippet in its own CPU time every PERIOD_S; CPU time leaves
out waiting for a processor, so it tracks how fast the machine executes, not
how busy the benchmark keeps it.  A round's speed factor is the median
snippet time during the round divided by REFERENCE_S.

The child samples while the program runs, so the factor could in principle
depend on how busy the program keeps the machine.  idle_factor() samples the
same snippet in-process while the program is idle; run.py records it before
and after the measured rounds, next to the factors during them, so that every
result file shows whether the two agree.

    python3 perfbench/speed.py OUT   # appends "<monotonic time> <snippet cpu s>" lines to OUT
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

SNIPPET_ITERATIONS = 30000
PERIOD_S = 0.1
# About the snippet's CPU time on a 2-vCPU Intel Xeon VM under Python 3.11;
# it sets the scale of the scaled metrics and nothing else.
REFERENCE_S = 0.002
IDLE_SAMPLES = 50
IDLE_GAP_S = 0.005


def snippet_cpu_s() -> float:
    t0 = time.thread_time()
    x = 0
    for i in range(SNIPPET_ITERATIONS):
        x += i * i
    return time.thread_time() - t0


def idle_factor(samples: int = IDLE_SAMPLES) -> float:
    """Median snippet time, sampled here while nothing else runs, / REFERENCE_S."""
    times = []
    for _ in range(samples):
        times.append(snippet_cpu_s())
        time.sleep(IDLE_GAP_S)
    return statistics.median(times) / REFERENCE_S


class SpeedMonitor:
    """Runs the sampling child while in use; then gives per-interval speed factors."""

    def __init__(self, path: Path):
        self.path = path
        self.samples: list[tuple[float, float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self):
        self.path.unlink(missing_ok=True)
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(self.path)])
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        self._proc.wait(timeout=30)
        if self.path.is_file():
            for line in self.path.read_text(encoding="utf-8").splitlines():
                parts = line.split()
                if len(parts) == 2:  # the last line may be cut off by the termination
                    self.samples.append((float(parts[0]), float(parts[1])))
        return False

    def factor(self, start: float, end: float) -> float:
        """Median snippet time over [start, end] (widened by a period) / REFERENCE_S."""
        inside = [dt for t, dt in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not inside:
            inside = [dt for _, dt in self.samples]
        if not inside:
            raise RuntimeError("the speed monitor recorded no samples")
        return statistics.median(inside) / REFERENCE_S


def main(path: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        while True:
            dt = snippet_cpu_s()
            fh.write(f"{time.monotonic():.6f} {dt:.9f}\n")
            fh.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
