"""Host-speed probes taken inside the timed region.

The shared host this benchmark was built on changes speed by a quarter
or more within seconds (a fixed pure-Python loop takes anywhere from
0.36 s to 0.78 s), and the process's CPU time tracks its wall time
while it does, so the slowdown is in the CPU, not preemption.  A
:class:`HostMeter` therefore times a tiny fixed piece of pure-Python
work — no ``repro`` code — from a ``SIGALRM`` handler every
:data:`INTERVAL_S`, interleaved with whatever the process is running.
The mean probe time over a window is the host's slowness during that
window; ``run.py`` reports times and rates scaled to the reference
host, whose probe takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
#: Probe time on the reference host (half a millisecond, so probes
#: take about 2% of the process's time).
REFERENCE_S = 0.0005


def probe() -> float:
    """CPU seconds for a fixed loop of dict stores, loads and
    arithmetic.  CPU time, so that waiting for a core the benchmark's
    own worker processes hold does not count as a slow host."""
    start = time.thread_time()
    registers: dict[int, int] = {}
    x = 0
    for i in range(2500):
        registers[i & 31] = x
        x = (x + registers.get((i * 7) & 31, 0) + i) & 0xFFFF
    return time.thread_time() - start


class HostMeter:
    """Probes the host every :data:`INTERVAL_S` until :meth:`close`.

    Interval timers are not inherited across ``fork``, so pool workers
    are never interrupted; only this process is.
    """

    def __init__(self) -> None:
        self._probes: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        self._probes.append(probe())

    def take(self) -> float:
        """Mean probe seconds since the last call (one probe taken now
        if none fell in the window)."""
        probes, self._probes = self._probes, []
        return statistics.fmean(probes or [probe()])

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed(probe_s: float) -> float:
    """Host speed relative to the reference host (above 1: faster)."""
    return REFERENCE_S / probe_s
