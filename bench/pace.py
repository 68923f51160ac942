"""Host-speed calibration that the timings are scaled by.

The hosts this benchmark runs on are shared.  Load from other tenants
changes how fast the same Python code runs by up to 2x, in stretches of a
few seconds to minutes; the slowdown is in the process's CPU time too, so
no choice of clock removes it.  So every timed part of the program is
bracketed by short runs of a fixed pure-Python kernel (a "chunk") that
never touches the program, and the part's time is scaled by how fast the
chunks around it ran:

    scaled = measured * REF_CHUNK_S / mean(chunk before, chunk after)

A part that lasts long enough for the host to change speed within it also
runs a chunk every `SAMPLE_S` seconds from a SIGALRM handler; those chunks
join the mean and their time is taken out of the part's.

A slower host slows the chunks and the program alike and cancels out; a
slower program does not touch the chunks and shows in full.  The kernel
does what the simulator does most (heap pops and pushes of event tuples,
attribute reads on small objects, float distances, dict counting), so that
both slow down by about the same factor.  The figures are seconds at the
speed at which one chunk takes `REF_CHUNK_S`.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
from time import perf_counter

CHUNK_ITERS = 1500
SAMPLE_S = 0.1
# One chunk on a 2-vCPU Xeon VM with CPython 3.11 at its unloaded speed:
# about the 10th percentile of 1500 chunks in a row (1.65 ms; their median,
# under load from other tenants, was 2.26 ms).
REF_CHUNK_S = 0.0016


class _Spot:
    __slots__ = ("x", "y", "rank", "table")

    def __init__(self, x: float, y: float):
        self.x, self.y, self.rank, self.table = x, y, 0, {}


def kernel(n: int) -> float:
    """A fixed event loop over 40 points; the same work on every call."""
    rng = random.Random(12345)
    spots = [_Spot(rng.random() * 200, rng.random() * 200) for _ in range(40)]
    heap = [(rng.random(), i, "tick", i % 40) for i in range(200)]
    heapq.heapify(heap)
    seq, acc = 200, 0.0
    for _ in range(n):
        t, _, kind, k = heapq.heappop(heap)
        a, b = spots[k], spots[(k * 7 + 3) % 40]
        d = ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5
        if d < 50.0:
            a.table[b.rank] = a.table.get(b.rank, 0) + 1
        a.rank = (a.rank + int(d)) & 1023
        acc += d
        seq += 1
        heapq.heappush(heap, (t + rng.random(), seq, kind, (k + seq) % 40))
        if len(a.table) > 64:
            a.table.clear()
    return acc


class Pace:
    """The chunks of one round, and the scaling they give."""

    def __init__(self):
        self.chunks: list[float] = []
        self._during: list[float] = []
        self._during_s = 0.0

    def chunk(self) -> float:
        """Run one chunk; its time in seconds."""
        t0 = perf_counter()
        kernel(CHUNK_ITERS)
        dt = perf_counter() - t0
        self.chunks.append(dt)
        return dt

    def start(self) -> None:
        """Run a chunk every SAMPLE_S seconds until `stop`."""
        self._during, self._during_s = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> tuple[list[float], float]:
        """The chunks run since `start`, and the time they took in all."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self._during, self._during_s

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._during.append(self.chunk())
        self._during_s += perf_counter() - t0

    def scale(self, seconds: float, *chunks: float) -> float:
        """`seconds` measured next to `chunks`, at the reference speed."""
        return seconds * REF_CHUNK_S / statistics.fmean(chunks)

    def factor(self) -> float:
        """Scaling for time not bracketed by chunks: the round's median."""
        return REF_CHUNK_S / statistics.median(self.chunks)
