"""Host-speed correction of the benchmark's end-to-end timings.

The benchmark runs on a few vCPUs of a shared host whose speed changes for
seconds to minutes at a time: the same report can take 0.7x or 1.8x its
usual time, in user time as in wall time, so a whole run can land in a fast
or a slow stretch.  ``HostClock`` measures that speed while the run goes on.
A timer signal runs a fixed probe every ``INTERVAL_S`` seconds, also in the
middle of a report: pure-Python ``Fraction`` and dict arithmetic like the
engine's inner loops, but none of the engine's code, so a change to the
engine cannot change the probe.

A timed stretch ``[t0, t1]`` is then reported in reference-host seconds.  It
is cut at every probe, and each piece's wall time without the probe run
inside it is scaled by ``REFERENCE_PROBE_S`` over the median probe time
within ``WINDOW_S`` of the piece, so a report several seconds long that runs
through a slow stretch is corrected piece by piece.  On a host running at
its usual speed the two agree; in a fast or slow stretch the probe moves
with the report and the ratio stays put.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
WINDOW_S = 0.25
# the probe time that defines a reference-host second: about the median probe
# time on the host where the numbers in METRICS.md were measured (2 vCPUs of
# a shared x86-64 host, CPython 3.11)
REFERENCE_PROBE_S = 0.004

_ZERO = Fraction(0)


def probe():
    """A fixed piece of work, about 4 ms of CPython on the reference host."""
    acc = {}
    for i in range(600):
        key = ((i * 7919) % 211, i % 7)
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 13, i % 11 + 1)
    return sum(acc.values(), _ZERO)


class HostClock:
    """Probe the host's speed on a timer while the ``with`` block runs.

    The probe runs with the garbage collector paused, so that collecting
    the engine's garbage is never counted as probe time.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self._busy = False
        self._old = None

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        return False

    def probe_s(self):
        """The median probe time over the whole block."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def wall(self, t0, t1):
        """Seconds in ``[t0, t1]`` that were not spent in the probe."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(min(e, t1) - max(s, t0)
                     for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return t1 - t0 - inside

    def speed(self, t):
        """The median probe time within ``WINDOW_S`` of ``t``.

        With no probe in the window, the probe nearest to it stands in.
        """
        lo = bisect.bisect_left(self.starts, t - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + WINDOW_S)
        if lo == hi:
            near = [k for k in (lo - 1, lo) if 0 <= k < len(self.starts)]
            k = min(near, key=lambda k: abs(self.starts[k] - t))
            lo, hi = k, k + 1
        return statistics.median(self.ends[k] - self.starts[k] for k in range(lo, hi))

    def seconds(self, t0, t1):
        """``[t0, t1]`` in reference-host seconds, piece by piece between probes."""
        lo = bisect.bisect_right(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        cuts = [t0, *self.starts[lo:hi], t1]
        return sum(self.wall(a, b) * REFERENCE_PROBE_S / self.speed((a + b) / 2)
                   for a, b in zip(cuts, cuts[1:]))
