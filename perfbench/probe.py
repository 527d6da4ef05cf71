"""Machine-speed probe: takes the shared host's speed swings out of the timings.

On a shared 2-core host the same code runs up to 1.5x slower for stretches of
seconds to minutes while other tenants are busy, and no average over a run of
at most 180 s hides that.  The probe times a fixed piece of interpreter-bound
work every ``PERIOD_S`` seconds (on SIGALRM) while a solve runs.  A
wall time measured during the solve, minus the probe's own time inside it,
times ``scale() = REF_S / mean probe time`` reads in seconds at the reference
speed, at which the probe takes ``REF_S``.  The work and ``REF_S`` are fixed,
so scaled times of two commits compare directly.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
REF_S = 3.0e-4  # about the probe's time on an unloaded core of the 2-core Xeon this was tuned on

_FRACTIONS = [Fraction(i, i + 1) for i in range(1, 40)]


def probe_work() -> None:
    """Fixed interpreter-bound work: an integer loop and a sum of Fraction squares.

    Of the probes tried (this pair, tiny numpy arrays, a 48x48 int64 product,
    a 2 MB array sum) this pair tracked the speed swings of all three
    workloads best, the numpy-heavy schur33_domdim included.
    """
    s = 0
    for i in range(500):
        s += i * i % 7
    f = Fraction(0)
    for x in _FRACTIONS:
        f += x * x


class SpeedProbe:
    """Context manager: runs the probe periodically while the block runs.

    It also probes once on entry and once on exit, so a block shorter than
    the period still has a speed estimate; those two lie outside any interval
    the caller times inside the block.  ``scaled(t0, t1)`` is the wall time
    of [t0, t1) less the probe's own time, at the reference speed.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def tick(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t)
        self.starts.append(t)

    def __enter__(self) -> "SpeedProbe":
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Probe time that started inside [t0, t1)."""
        i, j = self._window(t0, t1)
        return sum(self.durations[i:j])

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the mean probe time inside [t0, t1), or over all probes
        when fewer than three fell inside."""
        i, j = self._window(t0, t1)
        durations = self.durations[i:j] if j - i >= 3 else self.durations
        return REF_S / statistics.mean(durations)

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0 - self.busy(t0, t1)) * self.scale(t0, t1)
