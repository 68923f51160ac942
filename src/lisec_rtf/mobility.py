"""Random-waypoint mobility: each walker's state, and the walk of every
node that the radio of each world built on it reads.

It is a module apart from the event kernel in `engine` because compiling
a module at import peaks at a few MB, more than a run holds, so a
process's peak memory follows the largest module: kept in `engine`, the
one-pass walk raised the peak of static runs that never walk by 0.3 MiB.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from dataclasses import dataclass
from itertools import accumulate, repeat

from .config import SimParams


@dataclass
class RwpState:
    waypoint: tuple[float, float]
    speed: float
    pause_until: int = 0


class Trajectory:
    """The random-waypoint walk of `walkers` (none in a static world, which
    then has no `rng`) among the nodes of `positions` (`order`), and which
    are in range of each other.

    `walk(ticks)` walks ticks 1 to `ticks` at once, as every world takes
    tick k at k x the period.  A leg's positions are the running sum of one
    step, not steps re-aimed from the last position (2.2e-12 m apart at most
    over ten desk seeds), and it arrives at the tick its length gives, a
    tick apart from the re-aiming walk only where its length is a whole
    number of steps up to rounding.  `xy` holds every tick from 0 in one
    flat `array("d")` allocated at its final size, 16 B per node per tick:
    tick k's row starts at k x `width`, and `index` is each node's offset
    in a row.  Grown a row per tick, it was mapped afresh past glibc's
    128 kB threshold; allocated whole, it moves the desk matrix's peak by
    at most 0.15 MiB (medians of 10 runs at two seeds).
    `near(k, sender)`, the ids in range after k ticks in `order`, is
    computed when a world first asks and kept in `relations` for all of
    them: lists, since freed tuples of many lengths pile up in CPython's
    per-length free lists (0.25 MB more peak over 10 seeds).
    """

    def __init__(self, params: SimParams, seed: int, walkers: dict[str, RwpState],
                 positions: dict[str, tuple[float, float]]):
        self.params = params
        # a stream of its own, so trajectories match across arms at equal seed
        self.rng = random.Random((seed << 16) ^ 0x30B1) if walkers else None
        self.walkers = walkers
        self.ids = tuple(walkers)
        self.order = tuple(positions)
        self.width = 2 * len(self.order)
        self.index = {node_id: 2 * i for i, node_id in enumerate(self.order)}
        self.slots = [self.index[node_id] for node_id in self.ids]
        self.xy = array("d", [c for xy in positions.values() for c in xy])
        self.ticks = 0
        self.relations: dict[tuple[int, str], list[str]] = {}

    def near(self, k: int, sender: str) -> list[str]:
        key = (k, sender)
        ids = self.relations.get(key)
        if ids is None:
            xy, start = self.xy, k * self.width
            at = start + self.index[sender]
            x, y, reach, hypot = xy[at], xy[at + 1], self.params.tx_range_m, math.hypot
            row = iter(xy[start:start + self.width])
            ids = self.relations[key] = [
                other for other, ox, oy in zip(self.order, row, row)
                if other != sender and hypot(x - ox, y - oy) <= reach]
        return ids

    def reaches(self, k: int, sender: str, receiver: str) -> bool:
        """Whether `receiver` is in range of `sender` after k ticks."""
        xy, row, index = self.xy, k * self.width, self.index
        a, b = row + index[sender], row + index[receiver]
        return math.hypot(xy[a] - xy[b], xy[a + 1] - xy[b + 1]) <= self.params.tx_range_m

    def walk(self, ticks: int) -> None:
        """Walk ticks 1 to `ticks` in one pass into an `xy` of that final
        size.  A heap yields arrivals in (tick, slot) order, the order a walk
        tick by tick draws in; tick 0 stands for each walker's start."""
        p, width, uniform = self.params, self.width, self.rng.uniform
        grid, period, pause = p.grid_m, p.us["mobility_tick_s"], p.us["pause_s"]
        xy = self.xy = self.xy[:width] * (ticks + 1)
        walkers = list(zip(self.slots, self.walkers.values()))
        arrivals = [(0, i) for i in range(len(walkers))]
        while arrivals:
            end, i = heapq.heappop(arrivals)
            col, state = walkers[i]
            if end:
                state.waypoint = (uniform(0, grid), uniform(0, grid))
                state.speed = uniform(p.speed_min_mps, p.speed_max_mps)
                state.pause_until = end * period + pause
            k = max(end + 1, -(-state.pause_until // period))  # its first tick on the move
            at, n = end * width + col, min(k, ticks + 1) - end
            x, y = xy[at:at + 2]  # held from tick `end` until then
            xy[at:at + n * width:width] = array("d", [x]) * n
            xy[at + 1:at + 1 + n * width:width] = array("d", [y]) * n
            if k > ticks:
                continue
            (wx, wy), step = state.waypoint, state.speed * p.mobility_tick_s
            dx, dy = wx - x, wy - y
            d, end = math.hypot(dx, dy), k  # arrives at once if d <= step
            if d > step:  # else once d - j x step <= step, if not past the last tick
                q = d / step if step else math.inf
                end = k + max(1, math.ceil(q) - 1) if q <= ticks else ticks + 1
                n = min(end, ticks + 1) - k
                for c, s, u in ((col, x, dx / d * step), (col + 1, y, dy / d * step)):
                    # a sum of one step is monotone: only its ends can leave the grid
                    run = array("d", accumulate(repeat(u, n - 1), initial=s + u))
                    if not (0.0 <= run[0] <= grid and 0.0 <= run[-1] <= grid):
                        run = array("d", [min(max(v, 0.0), grid) for v in run])
                    xy[k * width + c:(k + n) * width + c:width] = run
            if end <= ticks:
                xy[end * width + col:end * width + col + 2] = array("d", (wx, wy))
                heapq.heappush(arrivals, (end, i))
        self.ticks = ticks
