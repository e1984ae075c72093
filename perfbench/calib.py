"""Host-speed calibration: times at the host's nominal speed.

The benchmark runs on a few cores of a shared host whose speed changes
by tens of percent from second to second, and by up to two times from
one half hour to the next, for the program and for any other code
alike.  While a run measures, a :class:`Sampler` thread times a small
fixed calibration unit every ``PERIOD_S``; the median unit time over an
interval says how fast the host was during it (the median, because a
sample that another process on the CPU preempted says nothing about
the host).  A measured time is scaled by ``NOMINAL_S`` over that
median, so it reads as seconds on this host at its nominal speed: a
change to the program moves it, a change of host speed mostly does
not.  The raw times are reported beside the scaled ones.

The unit is interpreted dict, heap and float code, the kind of work
the placer, the router and the simulator's step loop spend their time
in.  It is somewhat more sensitive to host speed than the program
(whose imports, memory traffic and inter-process waits are less so):
over a 2.3x change of unit time the program's raw times changed 1.7x
to 1.9x, so scaled times read up to ~20 % higher on a fast host than
on a slow one, against 2x for raw ones.  Sampling costs the measured
program about 2 % of the interpreter (a ~1 ms unit every 50 ms), the
same share whatever the program does.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time

#: Seconds one calibration unit takes on the host at nominal speed: a
#: typical unit time on the 2-vCPU x86-64 host the benchmark was defined
#: on, where it ranged from 0.5 to 1.2 ms.  Any fixed value would do;
#: runs are only compared with each other.
NOMINAL_S = 0.0012
#: Seconds between the starts of two samples.
PERIOD_S = 0.05


def _unit() -> float:
    """One calibration unit: fixed interpreted work."""
    table: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(800):
        key = (i * 7919) % 1024
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (acc - i, key))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0] * 1e-9
    return acc + sum(table.values())


class Sampler:
    """Background thread timing the calibration unit while it runs.

    Used as a context manager around the timed part of a run; then
    :meth:`scale` turns a time measured over some intervals into
    seconds at nominal host speed, using the samples that fall inside
    those intervals.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (start, end)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="calib-sampler")

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            _unit()
            self.samples.append((t0, time.perf_counter()))

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def unit_s(self, windows) -> float:
        """Median unit seconds of the samples inside ``windows``, a list
        of ``(t0, t1)`` perf-counter intervals."""
        inside = [end - start for start, end in self.samples
                  if any(t0 <= start and end <= t1 for t0, t1 in windows)]
        if not inside:
            raise RuntimeError("no calibration sample inside the timed "
                               "intervals")
        return statistics.median(inside)

    def scale(self, seconds: float, windows) -> float:
        """``seconds`` (measured over ``windows``) at nominal speed."""
        return seconds * NOMINAL_S / self.unit_s(windows)
