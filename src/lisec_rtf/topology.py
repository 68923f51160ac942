"""Unit-disk checks of a placement try: each node's hop depth from the
root by BFS, and the load of the busiest relay in a min-hop tree.

The placement search in `engine` reads `_connected` from its own module,
where tests and the benchmark's probe (bench/probe.py) replace it by name.
These functions live apart from the event kernel because compiling a
module at import peaks at a few MB, more than a run holds, so a process's
peak memory follows the largest module (see `mobility`).
"""

from __future__ import annotations

import math


def _connected(positions: dict[str, tuple[float, float]], rng_range: float,
               root_id: str) -> tuple[bool, dict[str, int]]:
    """BFS over the unit-disk graph; returns reachability and hop depths.

    Nodes not yet reached wait in square cells a hair wider than the range,
    so a frontier node tests only the 3x3 block of cells around its own and
    a reached node leaves its cell.  Every pair the distance test accepts
    lies in adjacent cells: rounding can put its exact distance above
    `rng_range`, never above the cell side, and `//` floors exactly.  When
    the placement spans fewer than six ranges a block covers over a quarter
    of it and the lookups cost more than they save, so everything goes into
    one cell and the BFS scans the shrinking set of unreached nodes.
    """
    hypot = math.hypot
    coords = [c for xy in positions.values() for c in xy]
    lo, hi = min(coords), max(coords)
    # the second bound keeps `x // side` an exact floor; a range that is
    # not positive fails it
    if 6 * rng_range <= hi - lo and max(hi, -lo) < 2 ** 50 * rng_range:
        side = rng_range * (1 + 2 ** -20)
    else:
        side = math.inf
    cells: dict[tuple[float, float], list] = {}
    for v, (x, y) in positions.items():
        if v != root_id:
            key = (x // side, y // side)
            entry = (v, x, y, key)
            cell = cells.get(key)
            if cell is None:
                cells[key] = [entry]
            else:
                cell.append(entry)
    blocks: dict[tuple[float, float], list] = {}  # occupied cells around a cell
    depth = {root_id: 0}
    x, y = positions[root_id]
    frontier = [(root_id, x, y, (x // side, y // side))]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for _, xa, ya, key in frontier:
            block = blocks.get(key)
            if block is None:
                cx, cy = key
                block = blocks[key] = [
                    k for k in ((cx - 1, cy - 1), (cx - 1, cy), (cx - 1, cy + 1),
                                (cx, cy - 1), key, (cx, cy + 1),
                                (cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1))
                    if k in cells]
            for k in block:
                cell = cells[k]
                if not cell:
                    continue
                rest = []
                for entry in cell:
                    if hypot(xa - entry[1], ya - entry[2]) <= rng_range:
                        depth[entry[0]] = d
                        nxt.append(entry)
                    else:
                        rest.append(entry)
                cells[k] = rest
        frontier = nxt
    return len(depth) == len(positions), depth


def _max_subtree_load(positions: dict, depth: dict, rng_range: float,
                      root_id: str) -> int:
    """Descendant count of the busiest router in a min-hop tree.

    A router stores one route per node below it, so a placement that funnels
    more nodes than the table cap through one relay cannot serve them even
    without an attacker; the generator rejects such deployments.

    A node's parent is the first node in `sorted(positions)` order that is
    one level above it and within range.  Nodes are grouped by depth once,
    in that order, so each search reads only the level above, and loads pass
    up from the deepest level so that a node's count is complete before it
    reaches its parent.
    """
    hypot = math.hypot
    levels: dict[int, list] = {}
    for v in sorted(positions):
        x, y = positions[v]
        levels.setdefault(depth[v], []).append((v, x, y))
    load = dict.fromkeys(positions, 0)
    for d in range(max(levels), 0, -1):
        above = levels[d - 1]
        for v, xv, yv in levels[d]:
            for u, xu, yu in above:
                if hypot(xv - xu, yv - yu) <= rng_range:
                    if u != root_id:
                        load[u] += load[v] + 1
                    break
    return max((n for v, n in load.items() if v != root_id), default=0)
