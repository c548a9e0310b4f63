"""Host-speed probe: corrects timings for contention on a shared host.

On a shared virtual machine the same pass over the same inputs can take
from 1x to 2x as long within minutes, because other tenants load the
physical core and caches under this process's vCPU.  Slow spells last
from tens of milliseconds to whole runs.  A fixed piece of Python work,
run every few milliseconds inside this process, is slowed by the same
spells as the workload around it.

While the probe is on, a SIGPROF timer interrupts the process every
``INTERVAL_S`` of CPU time and times the probe: dictionary lookups
through a shuffled list plus integer arithmetic, the kind of object
chasing amrforge itself does.  :meth:`HostProbe.corrected` takes an
interval's wall time, removes the time spent in probes, and scales the
rest by ``NOMINAL_S`` over the probe's mean duration within the
interval.  The result is the interval's work in seconds on a host where
the probe takes ``NOMINAL_S``, about its fastest on a 2-vCPU virtual
machine running Python 3.11.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.005  # CPU time between probes; each costs about 1.5% of it
NOMINAL_S = 50e-6  # probe duration the corrected times are scaled to

_ORDER = list(range(1 << 16))
random.Random(0).shuffle(_ORDER)
_TABLE = {i: (i, str(i)) for i in range(1 << 13)}
_STEPS = [random.Random(1).randrange(1 << 16) for _ in range(400)]


def _probe_work() -> int:
    total = 0
    for i in _STEPS:
        total += _TABLE[_ORDER[i] & 8191][0]
        total += i * i
    return total


class HostProbe:
    """Times the probe at regular CPU-time intervals while on."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_work()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def within(self, start: float, end: float) -> list[float]:
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        return self.durations[low:high]

    def corrected(self, start: float, end: float) -> float:
        """Seconds of work in [start, end) on a host where the probe takes
        NOMINAL_S.  An interval no probe fell into is returned as measured."""
        probes = self.within(start, end)
        if not probes:
            return end - start
        work = end - start - sum(probes)
        return work * NOMINAL_S / statistics.fmean(probes)

    def summary(self) -> dict:
        if not self.durations:
            return {"probes": 0}
        return {
            "probes": len(self.durations),
            "min_us": min(self.durations) * 1e6,
            "median_us": statistics.median(self.durations) * 1e6,
        }
