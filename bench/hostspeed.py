"""Host speed probe: scales the benchmark's timings to one reference speed.

On a shared host the speed of a CPU changes by up to half within tens of
seconds, as other tenants load the same cores. Every part of a run slows
together, so timings taken minutes apart differ more than any bound a
regression check could use. The probe measures that speed while the
program runs, on the same CPU:

- ``pin_to_one_cpu`` pins the benchmark process to one CPU before it starts
  any thread or child, so the children and the probe share that CPU.
- ``HostProbe`` runs a thread that, every ``INTERVAL_S``, times one ``tick``:
  a fixed pure-Python loop of float arithmetic and list and dict stores, the
  kind of interpreter work the program does between numpy calls. The
  thread sleeps between ticks and takes a few per cent of the CPU.
- ``HostProbe.scale(start, end)`` is ``REFERENCE_TICK_S`` over the median
  tick between ``start`` and ``end``. A duration measured in that window,
  times the scale, is the duration at the reference speed.

The tick is the benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time

# Median tick on the 2-core Xeon box of the seed-state numbers, in a quiet
# phase of the host. Only the unit of the scaled timings depends on it.
REFERENCE_TICK_S = 0.0005
INTERVAL_S = 0.02
MIN_TICKS = 3


class ProbeError(RuntimeError):
    """The probe took too few ticks to scale a timing."""


def pin_to_one_cpu() -> int:
    """Pin this process, and so every thread and child it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tick() -> float:
    values = [0.0] * 64
    table = {}
    for i in range(2_000):
        x = math.sqrt(i + 1.0) * 0.5
        values[i & 63] = x
        table[i & 127] = x
    return sum(values)


class HostProbe:
    """Times ``tick`` every ``INTERVAL_S`` on a background thread."""

    def __init__(self):
        self._ends: list[float] = []  # monotonic end time of each tick
        self._durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-probe", daemon=True)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            tick()
            duration = time.perf_counter() - t0
            # Durations first: a reader bounds its slice by len(self._ends).
            self._durations.append(duration)
            self._ends.append(time.monotonic())

    def ticks(self, start: float, end: float) -> list[float]:
        """Durations of the ticks that ended within [start, end]."""
        ends = self._ends[: len(self._ends)]
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(ends, end)
        return self._durations[lo:hi]

    def scale(self, start: float, end: float) -> float:
        """Factor from durations measured in [start, end] to the reference speed."""
        durations = self.ticks(start, end)
        if len(durations) < MIN_TICKS:
            raise ProbeError(
                f"host probe took {len(durations)} ticks in {end - start:.3f} s; "
                f"need {MIN_TICKS}"
            )
        return REFERENCE_TICK_S / statistics.median(durations)
