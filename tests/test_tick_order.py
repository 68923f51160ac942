"""Mobility ticks beside the event heap run in the order they ran as heap
events: tick k's seq is drawn when tick k-1 runs."""

import io
import math
from dataclasses import replace

import pytest

from lisec_rtf import engine
from lisec_rtf.config import ARMS, SimParams
from lisec_rtf.engine import World, build_random_world


class HeapTickWorld(World):
    """The oracle: each tick is a `"mobility"` heap event, queued when the
    tick before it runs, which `_dispatch` hands to `_on_mobility`."""

    def _tick_at(self, time: int) -> None:
        self._reschedule(time, "mobility")


class LateSeqWorld(World):
    """Mutant: a tick draws its seq when the clock reaches its time, after
    every handler that ran since the tick before it."""

    def run_until(self, t_end: int) -> None:
        while self._tick is not None and self._tick[0] <= t_end:
            time = self._tick[0]
            self._tick = None
            super().run_until(time - 1)  # times are whole µs
            self._tick_at(time)
            super().run_until(time)
        super().run_until(t_end)


class TickLastWorld(World):
    """Mutant: a tick runs after every event and delivery at its time."""

    def _tick_at(self, time: int) -> None:
        super()._tick_at(time)
        if self._tick is not None:
            self._tick = (self._tick[0], math.inf)


_BASE = SimParams(duration_s=300.0, grid_m=140.0, startup_stagger_s=60.0,
                  data_warmup_s=120.0, rt_cap=6, root_rt_cap=24)

# data every half tick: each tick is queued before the data at its time,
# so the tick runs first there; at the other settings everything at a
# tick's time was queued before it, and the mutants go right
_TICK_FIRST = {"data_period_s": 0.5}


def _run(world_class, params, arm, seed=0):
    """What a mobile `build_random_world` world of `world_class` leaves, and
    its counters as each tick runs."""
    built = engine.World
    engine.World = world_class  # build_random_world reads the global
    try:
        trace = io.StringIO()
        w = build_random_world(params, ARMS[arm], seed, n_clients=12, n_attackers=1,
                               mobility=True, trace=trace)
    finally:
        engine.World = built
    assert type(w) is world_class
    # what has happened when each tick runs tells which events went before it
    at_ticks, tick = [], w._on_mobility

    def spy(due):
        c = w.counters
        at_ticks.append((w.clock, c.received_at_root, c.data_transmissions,
                         c.control_transmissions, c.link_losses))
        tick(due)

    w._on_mobility = spy
    counters = w.run()
    assert len(at_ticks) == w.us["duration_s"] // w.us["mobility_tick_s"]
    return w.digest(), counters, counters.ledgers, trace.getvalue(), at_ticks


@pytest.mark.parametrize("change", [
    {}, {"data_period_s": 1.0}, {"d_hop_s": 1.0}, {"mobility_tick_s": 0.5},
    _TICK_FIRST,
    # and the data sent after a tick lands at the next, after it too
    {**_TICK_FIRST, "d_hop_s": 1.0},
], ids=["default", "data_period_is_tick", "hop_is_tick", "half_second_tick",
        "data_period_is_half_tick", "hop_is_tick_data_period_half"])
@pytest.mark.parametrize("arm", ["baseline", "attack", "defense"])
def test_ticks_beside_the_heap_match_ticks_on_it(change, arm):
    params = replace(_BASE, **change)
    assert _run(World, params, arm) == _run(HeapTickWorld, params, arm)


@pytest.mark.parametrize("mutant", [LateSeqWorld, TickLastWorld])
def test_oracle_catches_a_tick_out_of_order(mutant):
    params = replace(_BASE, **_TICK_FIRST)
    for arm in ("baseline", "attack", "defense"):
        expected = _run(HeapTickWorld, params, arm)
        got = _run(mutant, params, arm)
        assert got[0] != expected[0] and got[4] != expected[4], arm
