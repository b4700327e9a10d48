"""Host-speed probe: scales measured times to a fixed host speed.

The benchmark host is shared.  Other tenants slow it by up to a half, in
stretches that last from seconds to minutes, and no statistic over one run
removes a slowdown that lasts the whole run.  The probe measures it
instead: every INTERVAL seconds of CPU time a SIGPROF handler runs a fixed
pure-Python loop (dict and tuple work, like the package's inner loops) and
records how long it took.  A time measured over [start, end] is then
scaled by REFERENCE_S / (mean loop time around that interval), and the
probe's own time inside the interval is subtracted first.

The loop is benchmark code: no change to the package can make it faster
or slower, except through the host.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List

INTERVAL = 0.1
WINDOW = 0.25  # probe samples this close to an interval count for it
REFERENCE_S = 0.001  # the loop's time on an idle host of the kind the benchmark ran on


def reference_loop() -> None:
    table = {}
    acc = 0
    for i in range(6000):
        key = (i % 31, i % 29)
        value = table.get(key)
        if value is None:
            table[key] = value = (i % 7, i % 5)
        acc += value[0]


class Probe:
    def __init__(self):
        self.starts: List[float] = []
        self.loop_s: List[float] = []
        self.spent = 0.0  # seconds spent inside the handler so far

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            reference_loop()
            self.loop_s.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:  # the budget alarm can interrupt the handler
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        self._sample(None, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._sample(None, None)

    def current_scale(self, samples: int = 5) -> float:
        """REFERENCE_S over the mean of the last few loop times: the host
        speed just now."""
        recent = self.loop_s[-samples:]
        return REFERENCE_S * len(recent) / sum(recent)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time near [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        near = self.loop_s[lo:hi]
        if not near:  # no sample that close: take the nearest one
            i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
            near = self.loop_s[i:i + 1]
        return REFERENCE_S * len(near) / sum(near)
