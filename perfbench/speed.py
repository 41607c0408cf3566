"""Machine speed probe: turns measured seconds into seconds at a fixed speed.

The benchmark runs on a few cores of a shared host, whose speed for this
kind of work moves by 15-30% over seconds to minutes as its neighbours'
load changes.  `SpeedProbe` pins the benchmark (and so every child it
spawns) to one CPU and, from a thread of the parent, runs
`reference_chunk` every PERIOD seconds on that CPU, recording the chunk's
CPU time.  The chunks interleave with the program's work on the same core,
so they see the same slow-downs.  `work(t0, t1)` is the interval's length
times the mean speed the chunks saw inside it, in units of the reference
speed 1 / REF_CHUNK_S: the seconds the interval would have taken at that
speed.  The chunk is fixed code of the benchmark, so a change to hodgekit
moves the program's time and not the probe's.
"""

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD = 0.05  # seconds between chunks; a chunk costs about 3% of a CPU
# CPU seconds of one chunk at the reference speed: its usual time on the
# machine of layers.json (2 cores of a Xeon at 2.1 GHz, Python 3.11.7)
REF_CHUNK_S = 0.0017


def reference_chunk():
    """Fraction elimination of a fixed 8 x 8 matrix: exact rational
    arithmetic and allocation, the kind of work hodgekit does."""
    n = 8
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


class SpeedProbe:
    """Context manager: pins the calling process to one CPU and samples
    that CPU's speed until exit.  Enter it before spawning children, from
    the thread that spawns them."""

    def __init__(self):
        self.times = []   # monotonic end of each chunk, increasing
        self.speeds = []  # REF_CHUNK_S / the chunk's CPU time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD):
            t0 = time.thread_time()
            reference_chunk()
            cpu = time.thread_time() - t0
            self.speeds.append(REF_CHUNK_S / cpu)
            self.times.append(time.monotonic())

    def __enter__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def work(self, t0, t1):
        """Seconds that [t0, t1] (monotonic clock) would have taken at the
        reference speed, from the speeds seen inside it; from the two
        samples around it when none fell inside."""
        n = len(self.times)  # the probe thread may append meanwhile
        times = self.times[:n]
        i, j = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        inside = self.speeds[i:j] or self.speeds[max(i - 1, 0):min(i + 1, n)]
        return (t1 - t0) * statistics.fmean(inside)
