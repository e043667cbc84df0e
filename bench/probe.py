"""Host speed probe: a fixed pure-Python kernel timed all through a run.

The benchmark shares a few cores of a host with other tenants.  A fixed
pure-Python loop timed back to back on such a host switches between a fast and
a slow state about 1.6x apart, in stretches of seconds, so the raw time of a
run depends on how much of it the host was slow.  To keep that out
of the end-to-end metrics, the probe kernel below -- small tuples, sorting,
frozensets and dicts, like the package's own work, and none of the package's
code -- is timed every INTERVAL_S from a SIGALRM timer (or explicitly between
operations that run in a child process).  Every timed stretch is then
normalized:

    normalized = (wall time - probe time inside it) * NOMINAL_S / probe time near it

where "probe time near it" is the mean of the probes taken inside the
stretch, less their highest and lowest tenth, or, when none fell inside, the
mean of the nearest probe before and after it.  A mean, as the probes are
evenly spaced in time, weighs the host's states by how long each lasted in
the stretch, as the stretch's own time does.  A normalized time reads as the time on a host where the probe takes
NOMINAL_S; a change to the package moves it as it moves the raw time, since
the probe does not run package code.  The raw times are printed next to it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.025
NOMINAL_S = 1e-3


def kernel() -> int:
    out = set()
    for i in range(400):
        t = tuple(sorted((i * 7919 + k * 31) % 97 for k in range(6)))
        out.add(frozenset(t))
        d = {x: i for x in t}
    return len(out) + len(d)


class Sampler:
    """Probe samples of one process: start times and durations, in time order."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._busy = False

    def start(self):
        """Take a sample every INTERVAL_S from now on."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        """Time the kernel once, with the collector off so the package's heap
        does not bill it."""
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.at.append(t0)
        self.took.append(took)

    def spent(self, t0: float, t1: float) -> float:
        """Probe time inside [t0, t1]."""
        return sum(self.took[bisect_left(self.at, t0):bisect_right(self.at, t1)])

    def near(self, t0: float, t1: float) -> float:
        """Probe time that stands for the host's speed over [t0, t1]."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        if hi > lo:
            took = sorted(self.took[lo:hi])
            cut = len(took) // 10
            return statistics.fmean(took[cut:len(took) - cut])
        around = [self.took[i] for i in (lo - 1, hi) if 0 <= i < len(self.took)]
        if not around:
            raise RuntimeError("no probe sample taken")
        return sum(around) / len(around)

    def normalize(self, t0: float, wall: float) -> float:
        """The stretch [t0, t0 + wall] at the nominal probe speed, probes left out."""
        t1 = t0 + wall
        return (wall - self.spent(t0, t1)) * NOMINAL_S / self.near(t0, t1)

    def summary(self, t0: float, t1: float) -> dict:
        """Probe time spent and probe speed over [t0, t1], for another process."""
        return {"spent_s": self.spent(t0, t1), "near_s": self.near(t0, t1)}
