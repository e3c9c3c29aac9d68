"""The host's speed, measured with a fixed reference loop, scales CPU times.

The machines the benchmark runs on are shared with other tenants.  The same
work takes up to a third more or less CPU time from one second to the next
as the host's load changes (its cores are shared, their clocks move), far
more than the changes the benchmark has to detect.  So each workload times
a fixed pure-Python reference loop next to its own work, on the same CPU
clock, and reports every time scaled to a host on which that loop takes
``REFERENCE_MS`` milliseconds:

    reported = measured CPU time x REFERENCE_MS / (reference loop's CPU ms nearby)

"Nearby" is the median of the reference samples taken within
``WINDOW_S`` seconds of the measured interval.  The reference loop does
the kind of work the program does (dict, set and list updates, small
function calls), so the two slow down together; on a shared 2-vCPU x86-64
VM the scaled compile time of a fixed function set spread 3% over a minute
while the raw CPU time spread 17%.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Optional, Tuple

from perfbench import metrics

#: CPU milliseconds of one reference loop on the reference host.
REFERENCE_MS = 5.0
#: reference samples within this many seconds of an interval scale it.
WINDOW_S = 1.0
#: fewer samples than this in the window: take this many nearest ones.
MIN_SAMPLES = 5


def _step(table: dict, members: set, key: int) -> int:
    table[key] = table.get(key, 0) + 1
    if key % 3:
        members.add(key)
    else:
        members.discard(key - 3)
    return len(members)


def reference_loop() -> int:
    """A fixed amount of interpreter work: 2 to 5 ms of CPU on the hosts it was built on."""
    table: dict = {}
    members: set = set()
    items: List[Tuple[int, int]] = []
    total = 0
    for index in range(6000):
        key = (index * 7919) % 257
        total += _step(table, members, key)
        items.append((key, index))
        if len(items) > 64:
            items.sort()
            del items[:32]
    return total


class HostSpeed:
    """Reference samples of one run, and the scaling of CPU times they give."""

    def __init__(self) -> None:
        #: wall times (``time.perf_counter``) of the samples, ascending.
        self._at: List[float] = []
        #: CPU seconds of each sample's reference loop.
        self._cpu: List[float] = []

    def __len__(self) -> int:
        return len(self._at)

    def sample(self, count: int = 1) -> None:
        """Time ``count`` reference loops on this thread's CPU clock."""
        for _ in range(count):
            at = time.perf_counter()
            started = time.thread_time()
            reference_loop()
            self.add(at, time.thread_time() - started)

    def add(self, at: float, cpu_seconds: float) -> None:
        """Record one reference loop that started at wall time ``at`` (ascending)."""
        self._at.append(at)
        self._cpu.append(cpu_seconds)

    def factor(self, start: float, end: Optional[float] = None) -> float:
        """``REFERENCE_MS`` / the reference's CPU ms around ``[start, end]`` (wall times)."""
        if not self._at:
            raise ValueError("no reference sample taken")
        end = start if end is None else end
        low = bisect.bisect_left(self._at, start - WINDOW_S)
        high = bisect.bisect_right(self._at, end + WINDOW_S)
        if high - low < MIN_SAMPLES:
            middle = bisect.bisect_left(self._at, (start + end) / 2.0)
            low = max(0, middle - MIN_SAMPLES // 2)
            high = min(len(self._at), low + MIN_SAMPLES)
            low = max(0, high - MIN_SAMPLES)
        return REFERENCE_MS / (metrics.median(self._cpu[low:high]) * 1000.0)

    def scale(self, cpu_seconds: float, start: float, end: Optional[float] = None) -> float:
        """``cpu_seconds`` measured during ``[start, end]``, on the reference host."""
        return cpu_seconds * self.factor(start, end)

    def reference_ms(self) -> float:
        """Median CPU ms of every reference loop of the run (the host's mean speed)."""
        return metrics.median(self._cpu) * 1000.0
