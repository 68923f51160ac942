"""Event kernel, radio, mobility, energy accounting and world properties."""

import dis
import gc
import io
import itertools
import math
import random
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from lisec_rtf import engine, experiment, node
from lisec_rtf.config import ARMS, US, SimParams
from lisec_rtf.demo import run_overflow_demo
from lisec_rtf.experiment import run_experiment
from lisec_rtf.engine import (
    DRAIN_US,
    DataPacket,
    Event,
    ScheduleInPastError,
    SetupError,
    World,
    build_random_world,
)
from lisec_rtf.messages import (
    DAO_BASE_LEN,
    STATUS_LEN,
    DaoModified,
    DaoStatus,
    DioMessage,
    DisMessage,
    STATUS_NACK,
    dao_length,
    forged_address,
    is_forged_address,
    node_address,
)
from lisec_rtf.metrics import EnergyLedger
from lisec_rtf.mobility import RwpState, Trajectory
from lisec_rtf.node import NodeRole, NodeState, TrickleState, compute_rank
from lisec_rtf.puf import license_blob_len
from lisec_rtf.scenario import Scenario, ScenarioError


def empty_world(params=None, arm="baseline", seed=1):
    return World(params or SimParams(), ARMS[arm], seed)


def walk(w, walkers):
    """Give `w` a trajectory of its own for `walkers` (id -> RwpState)."""
    w.trajectory = Trajectory(w.params, w.seed, walkers, w.positions)
    return w.trajectory


# -- event queue --------------------------------------------------------


def test_equal_time_preserves_insertion_order():
    w = empty_world()
    order = []
    w._on_probe = lambda ev: order.append(ev.payload)
    for tag in ("a", "b", "c"):
        w.schedule(5.0, "probe", payload=tag)
    w.run_until(5.0)
    assert order == ["a", "b", "c"]


def test_schedule_in_past_raises():
    w = empty_world()
    w.clock = 10.0
    with pytest.raises(ScheduleInPastError):
        w.schedule(9.0, "probe")


def test_interleaved_schedules_drain_sorted():
    w = empty_world()
    seen = []
    w._on_probe = lambda ev: seen.append(ev.time)
    rng = random.Random(77)
    times = [round(rng.uniform(0, 100), 3) for _ in range(300)]
    for t in times:
        w.schedule(t, "probe")
    w.run_until(100.0)
    assert seen == sorted(times)


def test_run_until_empty_queue_jumps_clock():
    w = empty_world()
    w.run_until(42.0)
    assert w.clock == 42.0


def test_run_until_rejects_backward_target():
    w = empty_world()
    w.clock = 5.0
    with pytest.raises(ValueError):
        w.run_until(1.0)


_GRID = (0, 250_000, 500_000)  # µs

# one probe: grid slot, sender, unicast destination (None = broadcast), and
# the offsets at which it schedules follow-up probes after transmitting
_probes = st.tuples(st.integers(0, 11), st.integers(0, 3),
                    st.one_of(st.none(), st.integers(0, 3)),
                    st.lists(st.sampled_from(_GRID), max_size=2))


@settings(deadline=None)
@given(st.sampled_from(_GRID), st.lists(_probes, min_size=1, max_size=20))
def test_heap_and_inflight_merge_in_time_seq_order(d_hop_s, plan):
    # oracle: every heap event and every transmission's arrival is handled
    # once, in strictly increasing (time, seq), with arrivals tying events
    # exactly on a 0.25 s grid; a transmission reaches each receiver once
    w = World(SimParams(d_hop_s=d_hop_s / US), ARMS["baseline"], seed=3)
    nodes = [w.add_node(f"n{i}", NodeRole.CLIENT, (10.0 * i, 0.0))
             for i in range(4)]  # all in range, never joined: no replies
    log, scheduled = [], set()
    sent = {}  # seq -> (arrival, receivers, message kept alive so ids stay unique)
    seq_of = {}  # id(message) -> seq of its transmission

    def schedule(t, payload):
        scheduled.add((t, w._seq))
        w.schedule(t, "probe", payload=payload)

    def on_probe(ev):
        assert w.clock == ev.time
        log.append((ev.time, ev.seq, None))
        sender, dest, offsets = ev.payload
        message = DisMessage()
        seq_of[id(message)] = seq = w._seq
        if dest is None:
            receivers = [n.node_id for n in nodes if n is not nodes[sender]]
            w.transmit(nodes[sender], None, message)
        else:
            receivers = [nodes[dest].node_id]
            w.transmit(nodes[sender], nodes[dest].address, message)
        assert w._seq == seq + 1
        sent[seq] = (w.clock + d_hop_s, receivers, message)
        for offset in offsets:
            schedule(w.clock + offset, (sender, (sender + 1) % 4, []))

    receive = w._receive

    def spy(node, sender_addr, message, airtime):
        log.append((w.clock, seq_of[id(message)], node.node_id))
        receive(node, sender_addr, message, airtime)

    w._on_probe = on_probe
    w._receive = spy
    for slot, sender, dest, offsets in plan:
        schedule(slot * _GRID[1], (sender, dest, offsets))
    w.run_until(10 * US)

    groups = [(key, [entry[2] for entry in group])
              for key, group in itertools.groupby(log, key=lambda e: e[:2])]
    keys = [key for key, _ in groups]
    assert keys == sorted(set(keys))  # strictly increasing
    assert set(keys) == scheduled | {(t, seq) for seq, (t, _, _) in sent.items()}
    for (t, seq), who in groups:
        if (t, seq) in scheduled:
            assert who == [None]
        else:
            assert who == sent[seq][1]
    assert not w._queue and not w._inflight


def test_negative_or_nan_hop_delay_refused():
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="d_hop_s"):
            World(SimParams(d_hop_s=bad), ARMS["baseline"], seed=1)


@pytest.mark.parametrize("key, value", [("d_hop_s", 1e-7),
                                        ("data_period_s", 0.0000015)])
def test_duration_off_the_microsecond_grid_refused(key, value):
    # the clock counts whole microseconds: 1e-7 s would be 0.1 of one
    refused = f"^{key}: must be a non-negative whole number of microseconds, got {value}$"
    with pytest.raises(ScenarioError, match=refused):
        Scenario(params=SimParams(**{key: value}))
    with pytest.raises(ScenarioError, match=refused):
        World(SimParams(**{key: value}), ARMS["baseline"], seed=1)
    # builds without a Scenario, as the scaled benchmark makes them
    with pytest.raises(ScenarioError, match=refused):
        build_random_world(SimParams(**{key: value}), ARMS["baseline"], seed=1,
                           n_clients=3, n_attackers=0)


# -- radio --------------------------------------------------------------


def _receivers(w):
    """Node ids of the pending deliveries, in the order they were sent; an
    entry holds a unicast's receiving node or a broadcast's list."""
    return [n.node_id for entry in w._inflight
            for n in ((entry[2],) if isinstance(entry[2], NodeState) else entry[2])]


def radio_world(distance, loss=0.0):
    params = SimParams(loss_prob=loss)
    w = World(params, ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    b = w.add_node("b", NodeRole.CLIENT, (distance, 0.0))
    return w, a, b


def test_unicast_within_range_delivers():
    w, a, b = radio_world(40.0)
    w.transmit(a, b.address, DisMessage())
    assert _receivers(w) == ["b"]
    assert w._inflight[0][0] == w.us["d_hop_s"] == 5000
    assert w._inflight[0][2] is b  # a unicast's entry holds its receiver


def test_unicast_beyond_range_lost():
    w, a, b = radio_world(60.0)
    w.transmit(a, b.address, DisMessage())
    assert not w._inflight and w._queue == []
    assert w.counters.link_losses == 1


def test_in_range_is_symmetric():
    # every node that a built world's walk lists in range of a sender at a
    # tick lists that sender back at the same tick, static or mobile
    p = SimParams(duration_s=300.0, grid_m=140.0, startup_stagger_s=60.0,
                  data_warmup_s=120.0)
    for mobility in (False, True):
        w = build_random_world(p, ARMS["attack"], seed=4, n_clients=12,
                               n_attackers=1, mobility=mobility)
        w.run()
        walk = w.trajectory
        assert walk.relations and any(k > 0 for k, _ in walk.relations) == mobility
        for (k, a), ids in list(walk.relations.items()):
            for b in ids:
                assert a in walk.near(k, b), (mobility, k, a, b)


def test_loss_rate_monte_carlo():
    w, a, b = radio_world(40.0, loss=0.3)
    n = 10_000
    for _ in range(n):
        w.transmit(a, b.address, DisMessage())
    delivered = len(_receivers(w))
    assert delivered / n == pytest.approx(0.7, abs=0.02)


def test_broadcast_reaches_only_in_range_nodes():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    w.add_node("near", NodeRole.CLIENT, (30.0, 0.0))
    w.add_node("far", NodeRole.CLIENT, (90.0, 0.0))
    w.transmit(a, None, DisMessage())
    assert _receivers(w) == ["near"]
    assert type(w._inflight[0][2]) is list  # a broadcast's holds every receiver


def test_broadcast_matches_all_pairs_scan():
    # oracle: the cached neighbour lists must select the same receivers in
    # the same order and leave the loss generator in the same state as a
    # brute-force scan over every node
    rng = random.Random(21)
    for trial in range(20):
        params = SimParams(loss_prob=0.3)
        w = World(params, ARMS["baseline"], seed=trial)
        for i in range(40):
            w.add_node(f"n{i:02d}", NodeRole.CLIENT,
                       (rng.uniform(0, 200), rng.uniform(0, 200)),
                       start_time=rng.choice([0, 0, 5 * US]))
        oracle_rng = random.Random()
        oracle_rng.setstate(w.rng.getstate())
        expected = []
        senders = [rng.choice(list(w.nodes.values())) for _ in range(15)]
        for sender in senders:
            sx, sy = w.positions[sender.node_id]
            for other in w.nodes.values():
                ox, oy = w.positions[other.node_id]
                if (other is sender or other.start_time > w.clock
                        or math.hypot(sx - ox, sy - oy) > params.tx_range_m):
                    continue
                if oracle_rng.random() >= params.loss_prob:
                    expected.append(other.node_id)
            w.transmit(sender, None, DisMessage())
        assert _receivers(w) == expected
        assert w.rng.getstate() == oracle_rng.getstate()


def test_broadcast_follows_mobility_tick():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    w.add_node("leaving", NodeRole.CLIENT, (45.0, 0.0))
    w.add_node("arriving", NodeRole.CLIENT, (0.0, 56.0))
    w.transmit(a, None, DisMessage())
    assert _receivers(w) == ["leaving"]
    w._inflight.clear()
    walk(w, {"leaving": RwpState(waypoint=(200.0, 0.0), speed=10.0),
             "arriving": RwpState(waypoint=(0.0, 0.0), speed=10.0)})
    w._tick_at(US)
    w.run_until(US)
    w.transmit(a, None, DisMessage())
    assert _receivers(w) == ["arriving"]
    with pytest.raises(ValueError, match="^late: add every node before"):
        w.add_node("late", NodeRole.CLIENT, (0.0, 30.0))  # the walk covers no such node


def test_broadcast_after_add_node_includes_it():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    w.add_node("b", NodeRole.CLIENT, (30.0, 0.0))
    w.transmit(a, None, DisMessage())
    w._inflight.clear()
    w.add_node("late", NodeRole.CLIENT, (0.0, 30.0))
    w.transmit(a, None, DisMessage())
    assert _receivers(w) == ["b", "late"]


def test_add_node_refuses_a_repeated_id():
    w = empty_world()
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    with pytest.raises(ValueError, match="^a: already in the world"):
        w.add_node("a", NodeRole.CLIENT, (5.0, 0.0))
    # the refused node left nothing behind: the next one gets an address of its own
    b = w.add_node("b", NodeRole.CLIENT, (9.0, 0.0))
    assert a.address != b.address and w.by_addr == {a.address: a, b.address: b}
    assert w.positions == {"a": (0.0, 0.0), "b": (9.0, 0.0)}
    w.provision()
    # a repeated id is named before the walking trajectory's refusal
    walk(w, {"b": RwpState(waypoint=(20.0, 0.0), speed=1.0)})
    with pytest.raises(ValueError, match="^b: already in the world"):
        w.add_node("b", NodeRole.CLIENT, (5.0, 0.0))


@pytest.mark.parametrize("start_time", [2.5, 5.0, -1, None])
def test_add_node_refuses_a_start_time_off_the_microsecond_grid(start_time):
    # start times count whole µs: 2.5 is likely seconds and would make the
    # clock a float, and -1 would fail only at run() without naming the node
    w = empty_world()
    refused = (f"^a: start_time must be a non-negative whole number of "
               f"microseconds, got {start_time!r}$")
    with pytest.raises(ValueError, match=refused):
        w.add_node("a", NodeRole.CLIENT, (0.0, 0.0), start_time=start_time)
    assert w.nodes == {} and w.by_addr == {} and w.positions == {}


def test_unicast_matches_distance_test():
    # oracle: whether a unicast's range test is answered from the sender's
    # neighbour cache or not, deliveries, link losses and the loss generator
    # must match a plain distance test -- with caches filled, after add_node,
    # after a mobility tick cleared them, and for self-unicasts; a unicast
    # to an address no node holds is one link loss and draws nothing
    rng = random.Random(5)
    for trial in range(10):
        params = SimParams(loss_prob=0.3)
        w = World(params, ARMS["baseline"], seed=trial)
        walkers = {}
        for i in range(30):
            w.add_node(f"n{i:02d}", NodeRole.CLIENT,
                       (rng.uniform(0, 150), rng.uniform(0, 150)),
                       start_time=rng.choice([0, 0, 5 * US]))
            walkers[f"n{i:02d}"] = RwpState(
                waypoint=(rng.uniform(0, 150), rng.uniform(0, 150)),
                speed=rng.uniform(5.0, 20.0))
        oracle_rng = random.Random()
        oracle_rng.setstate(w.rng.getstate())
        expected, losses = [], 0

        def exchange():
            nonlocal losses
            nodes = list(w.nodes.values())
            for sender in rng.sample(nodes, 10):  # fills these caches
                sx, sy = w.positions[sender.node_id]
                for other in nodes:
                    ox, oy = w.positions[other.node_id]
                    if (other is sender or w.clock < other.start_time
                            or math.hypot(sx - ox, sy - oy) > params.tx_range_m):
                        continue
                    if oracle_rng.random() < params.loss_prob:
                        losses += 1
                    else:
                        expected.append(other.node_id)
                w.transmit(sender, None, DisMessage())
            pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(60)]
            pairs += [(n, n) for n in rng.sample(nodes, 5)]
            for sender, receiver in pairs:
                sx, sy = w.positions[sender.node_id]
                rx, ry = w.positions[receiver.node_id]
                if (w.clock < receiver.start_time
                        or math.hypot(sx - rx, sy - ry) > params.tx_range_m
                        or oracle_rng.random() < params.loss_prob):
                    losses += 1
                else:
                    expected.append(receiver.node_id)
                w.transmit(sender, receiver.address, DisMessage())
            cached = [n for n in nodes if n.node_id in w._in_range]
            uncached = [n for n in nodes if n.node_id not in w._in_range]
            for sender in (rng.choice(cached), rng.choice(uncached)):
                for dest in (node_address(999), forged_address(rng)):
                    losses += 1
                    w.transmit(sender, dest, DisMessage())
                    assert w.counters.link_losses == losses

        exchange()
        w.clock = 6 * US
        w.add_node("late", NodeRole.CLIENT, (75.0, 75.0), start_time=6 * US)
        exchange()
        walk(w, walkers)  # "late" stays where it is
        w._on_mobility(Event(6 * US, 0, "mobility"))
        assert not w._in_range
        exchange()
        assert _receivers(w) == expected
        assert w.counters.link_losses == losses
        assert w.rng.getstate() == oracle_rng.getstate()


def _message_of_each_type(params):
    """(message, its size on the air in bytes) per message type."""
    a = node_address(1)
    return {
        "dis": (DisMessage(), params.dis_bytes),
        "dio": (DioMessage(sender=a, rank=512), params.dio_bytes),
        "dao": (DaoModified(src=a, target=a, sequence=3, reserved=7), DAO_BASE_LEN),
        "dao_options": (DaoModified(src=a, target=a, sequence=3, reserved=0,
                                    options=bytes(range(9))), DAO_BASE_LEN + 1 + 9),
        "status": (DaoStatus(originator=a, status=0), STATUS_LEN),
        "data": (DataPacket(a, 0), params.data_bytes),
    }


@pytest.mark.parametrize("kind", list(_message_of_each_type(SimParams())))
@pytest.mark.parametrize("params", [
    SimParams(),
    SimParams(dio_bytes=40, dis_bytes=11, data_bytes=97, bitrate_bps=19_200.0),
])
def test_transmit_charges_airtime_and_counts_by_type(kind, params):
    message, size = _message_of_each_type(params)[kind]
    w = World(params, ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    b = w.add_node("b", NodeRole.CLIENT, (30.0, 0.0))
    for dest in (None, b.address):
        before = a.ledger.tx_s
        w.transmit(a, dest, message)
        assert a.ledger.tx_s - before == params.airtime_s(size)
    c = w.counters
    data = kind == "data"
    assert c.data_transmissions == (2 if data else 0)
    assert c.control_transmissions == (0 if data else 2)
    assert c.dao_path_transmissions == (2 if kind.startswith(("dao", "status")) else 0)


def test_dao_airtime_follows_options_length_within_one_world():
    # plain, encrypted, plain again: a memo keyed by anything but the
    # length of the options would charge one of them another's airtime
    p = SimParams()
    w = World(p, ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    addr = node_address(1)
    plain = DaoModified(src=addr, target=addr, sequence=1, reserved=7)
    blob = bytes(license_blob_len(8))
    sealed = DaoModified(src=addr, target=addr, sequence=2, reserved=0, options=blob)
    sizes, charged = [], 0.0
    for m in (plain, sealed, plain):
        w.transmit(a, None, m)
        charged += p.airtime_s(dao_length(m))  # each step, in the ledger's order
        assert a.ledger.tx_s == charged
        sizes.append(dao_length(m))
    assert sizes == [DAO_BASE_LEN, 46, DAO_BASE_LEN]


# -- trickle wake-ups -----------------------------------------------------


def _dio_driven_node(params):
    """A world with one client, the stream its trace goes to, and a function
    that delivers it a DIO from a parent outside the world, then runs the
    world to that time."""
    trace = io.StringIO()
    w = World(params, ARMS["baseline"], seed=4, trace=trace)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    parent = node_address(9)

    def deliver_dio(t, rank):
        dio = DioMessage(sender=parent, rank=rank)
        assert not w._inflight  # a hears no one, so the FIFO stays in order
        w._inflight.append((t, w._seq, (a,), parent, dio, 0.0))
        w._seq += 1
        w.run_until(t)

    return w, a, trace, deliver_dio


def test_trace_time_is_the_exact_decimal_of_the_clock():
    # one stamp per distinct time, reused by the lines that share it
    rng = random.Random(9)
    times = [0, 1, 999_999, 10**10 - 1] + [rng.randrange(10**10) for _ in range(20_000)]
    stream = io.StringIO()
    trace = engine._line_sink(stream)
    for t in times:
        trace(t, "a", "DIS_TX", "x")
        trace(t, "b", "DIS_TX", "y")
    stamps = [line.split("\t")[0] for line in stream.getvalue().splitlines()]
    assert stamps == [f"{t // US}.{t % US:06d}" for t in times for _ in "ab"]


def _dio_tx_times(trace):
    return [line.split("\t")[0] for line in trace.getvalue().splitlines()
            if line.split("\t")[2] == "DIO_TX"]


def test_trickle_wake_follows_resets(monkeypatch):
    """A reset that moves the fire time earlier and one that moves it later
    each leave one live wake-up; the superseded time sends no DIO."""
    redraws = []  # (time of the draw, fire time drawn)
    redraw = TrickleState.redraw

    def spy(self, rng, now):
        redraw(self, rng, now)
        redraws.append((now, self.t_fire))

    monkeypatch.setattr(TrickleState, "redraw", spy)
    w, a, trace, deliver_dio = _dio_driven_node(SimParams(duration_s=600.0))

    def live_wakeups():
        return [e.time for e in w._queue if e.kind == "wake" and e.time == a.wake]

    deliver_dio(US, 256)  # joins: first fire time drawn
    w.run_until(200 * US)  # the interval has doubled to 64 s or more
    superseded = []
    for lead, rank, moved in ((5 * US, 512, "earlier"), (US, 256, "later")):
        pending = a.trickle.t_fire
        deliver_dio(pending - lead, rank)  # the parent's rank changed: reset
        assert (a.trickle.t_fire < pending) == (moved == "earlier")
        assert a.wake == a.trickle.t_fire
        assert live_wakeups() == [a.trickle.t_fire]
        superseded.append(f"{pending / US:.6f}")
    w.run_until(w.us["duration_s"])

    fired = [f"{t / US:.6f}" for i, (_, t) in enumerate(redraws)
             if t <= w.us["duration_s"]
             and (i + 1 == len(redraws) or redraws[i + 1][0] == t)]
    sent = _dio_tx_times(trace)
    assert sent == fired and len(set(sent)) == len(sent) and len(sent) > 4
    assert not set(superseded) & set(sent)


def test_trickle_wake_dropped_past_horizon():
    w, a, trace, deliver_dio = _dio_driven_node(SimParams(duration_s=100.0))
    deliver_dio(US, 256)
    pending = a.trickle.t_fire
    a.trickle.i_min = 1000.0  # the next reset draws a time past the horizon
    deliver_dio(pending - US // 2, 512)
    assert a.trickle.t_fire > w.us["duration_s"]
    assert a.wake == a.trickle.t_fire
    assert not [e for e in w._queue if e.kind == "wake" and e.time > w.us["duration_s"]]
    w.run_until(w.us["duration_s"] + DRAIN_US)
    assert _dio_tx_times(trace) == []


@pytest.mark.parametrize("mobility", [False, True])
def test_first_wake_ups_are_the_only_node_events_queued_at_the_start(mobility):
    # a node's lifecycle starts at its first wake-up: the root's at its first
    # trickle fire, any other node's at its start time, where it solicits
    w = build_random_world(SimParams(), ARMS["attack"], seed=1, n_clients=26,
                           n_attackers=3, mobility=mobility)
    w._schedule_initial()
    assert sorted(e.kind for e in w._queue) == ["data"] + ["wake"] * len(w.nodes)
    wakes = {e.node_id: e.time for e in w._queue if e.kind == "wake"}
    root = w.nodes["root"]
    assert wakes["root"] == root.wake == root.trickle.t_fire
    assert root.joined_at == root.start_time == 0
    for node_id, n in w.nodes.items():
        if n is not root:
            assert wakes[node_id] == n.wake == n.start_time, node_id
            assert n.trickle is None and n.joined_at is None, node_id


def test_a_root_that_starts_late_draws_its_first_dio_from_its_start():
    p = SimParams(duration_s=60.0)
    trace = io.StringIO()
    w = World(p, ARMS["baseline"], seed=3, trace=trace)
    root = w.add_node("root", NodeRole.ROOT, (0.0, 0.0), start_time=5 * US)
    w._schedule_initial()
    fire = root.trickle.t_fire
    assert root.joined_at == 5 * US and root.wake == fire
    assert (5 + p.trickle_imin_s / 2) * US <= fire <= (5 + p.trickle_imin_s) * US
    w.run_until(w.us["duration_s"] + DRAIN_US)
    assert _dio_tx_times(trace)[0] == f"{fire / US:.6f}"


@pytest.mark.parametrize("arm", ["attack", "defense", "defense_encrypted"])
def test_untraced_run_formats_nothing(monkeypatch, arm):
    def boom(*args, **kwargs):
        raise AssertionError("trace formatting with tracing off")
    for module in (node, engine):
        for name in ("format_address", "encode_dao"):
            monkeypatch.setattr(module, name, boom, raising=False)
    p = SimParams(duration_s=300.0, grid_m=140.0, startup_stagger_s=60.0,
                  data_warmup_s=120.0, rt_cap=6, root_rt_cap=24)
    w = build_random_world(p, ARMS[arm], seed=1, n_clients=12, n_attackers=1,
                           mobility=True)
    c = w.run()
    assert c.forged_nacked + c.forged_acked > 0 and c.received_at_root > 0


# -- mobility -----------------------------------------------------------


def _re_aiming_tick(positions, walkers, rng, p, clock):
    """The random-waypoint tick that re-aims every step at the waypoint from
    the last position, written plainly: the walk before legs were summed."""
    for node_id, state in walkers.items():
        x, y = positions[node_id]
        if clock < state.pause_until:
            continue
        wx, wy = state.waypoint
        dx, dy = wx - x, wy - y
        dist = math.hypot(dx, dy)
        step = state.speed * p.mobility_tick_s
        if dist <= step:
            positions[node_id] = (wx, wy)
            state.waypoint = (rng.uniform(0, p.grid_m), rng.uniform(0, p.grid_m))
            state.speed = rng.uniform(p.speed_min_mps, p.speed_max_mps)
            state.pause_until = clock + round(p.pause_s * US)
        else:
            nx = min(max(x + dx / dist * step, 0.0), p.grid_m)
            ny = min(max(y + dy / dist * step, 0.0), p.grid_m)
            positions[node_id] = (nx, ny)


def _summed_step_tick(positions, legs, walkers, rng, p, k):
    """Tick k of the summed-step walk, written plainly, kept as the oracle.

    A walker that is not paused and on no leg starts one where it stands:
    its step is the unit vector to the waypoint times speed x tick, and it
    arrives at once if the waypoint is at most a step away, else after
    ceil(d / step) - 1 steps.  On a leg it adds the step to the leg's sum
    and stands at that sum clamped into the grid; at the arrival tick it
    snaps to the waypoint and draws the next one, walkers in slot order."""
    clock = k * p.us["mobility_tick_s"]
    for node_id, state in walkers.items():
        if clock < state.pause_until:
            continue
        if node_id not in legs:
            x, y = positions[node_id]
            wx, wy = state.waypoint
            dx, dy = wx - x, wy - y
            dist = math.hypot(dx, dy)
            step = state.speed * p.mobility_tick_s
            if dist <= step:
                legs[node_id] = [x, y, 0.0, 0.0, k]
            else:
                legs[node_id] = [x, y, dx / dist * step, dy / dist * step,
                                 k + max(1, math.ceil(dist / step) - 1)]
        leg = legs[node_id]
        if k == leg[4]:
            del legs[node_id]
            positions[node_id] = state.waypoint
            state.waypoint = (rng.uniform(0, p.grid_m), rng.uniform(0, p.grid_m))
            state.speed = rng.uniform(p.speed_min_mps, p.speed_max_mps)
            state.pause_until = clock + p.us["pause_s"]
        else:
            leg[0] += leg[2]
            leg[1] += leg[3]
            positions[node_id] = (min(max(leg[0], 0.0), p.grid_m),
                                  min(max(leg[1], 0.0), p.grid_m))


@st.composite
def _rwp_worlds(draw):
    """(params, seed, [(position, RwpState)]) covering every branch; the
    walk lasts `duration_s`, 1 to 12 ticks."""
    grid = draw(st.sampled_from([200.0, 120.0]))
    tick = draw(st.sampled_from([1.0, 0.5, 2.0]))  # speed * tick is exact
    params = SimParams(grid_m=grid, mobility_tick_s=tick,
                       duration_s=tick * draw(st.integers(1, 12)),
                       pause_s=draw(st.sampled_from([0.0, 3.0])))
    coord = st.one_of(st.floats(0.0, grid), st.sampled_from([0.0, -0.0, grid]))
    # waypoints past the edge make the clamp bite
    far = st.one_of(coord, st.floats(-30.0, grid + 30.0))
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        pos = (draw(coord), draw(coord))
        state = RwpState(waypoint=(draw(far), draw(far)),
                         speed=draw(st.floats(0.1, 5.0)),
                         pause_until=draw(st.integers(0, round(tick * US))))
        dist = math.hypot(state.waypoint[0] - pos[0], state.waypoint[1] - pos[1])
        case = draw(st.sampled_from(["move", "at_waypoint", "step_equals_dist",
                                     "arrive", "paused"]))
        if case == "at_waypoint":
            state.waypoint = pos
        elif case == "step_equals_dist":
            state.speed = dist / tick
        elif case == "arrive":
            state.speed = (dist + draw(st.floats(0.0, 5.0))) / tick
        elif case == "paused":
            state.pause_until = draw(st.integers(1000, 10 * US))
        nodes.append((pos, state))
    return params, draw(st.integers(0, 2**32)), nodes


@settings(max_examples=200)
@given(_rwp_worlds())
def test_mobility_tick_matches_reference(case):
    # the first tick walks the whole run; each tick then reads its row
    params, seed, nodes = case
    w = World(params, ARMS["baseline"], seed=seed)
    walkers, ref_walkers = {}, {}
    for i, (pos, state) in enumerate(nodes):
        w.add_node(f"n{i}", NodeRole.CLIENT, pos)
        walkers[f"n{i}"] = RwpState(state.waypoint, state.speed, state.pause_until)
        ref_walkers[f"n{i}"] = RwpState(state.waypoint, state.speed, state.pause_until)
    trajectory = walk(w, walkers)
    ref_positions, legs = dict(w.positions), {}
    ref_rng = random.Random((seed << 16) ^ 0x30B1)  # the walk's own stream
    n_ticks = w.us["duration_s"] // w.us["mobility_tick_s"]
    for k in range(1, n_ticks + 1):
        w.clock = k * w.us["mobility_tick_s"]
        w._in_range["n0"] = {}
        w._on_mobility(Event(w.clock, 0, "mobility"))
        _summed_step_tick(ref_positions, legs, ref_walkers, ref_rng, params, k)
        assert repr(w.positions) == repr(ref_positions)  # tells -0.0 from 0.0
        assert w._in_range == {}
    assert trajectory.ticks == n_ticks
    assert trajectory.walkers == ref_walkers
    assert trajectory.rng.getstate() == ref_rng.getstate()


class _Logged(RwpState):
    """An RwpState that logs each field set after it was made: an arrival
    sets the next waypoint, speed and `pause_until`, which names its tick."""

    def __setattr__(self, name, value):
        if "log" in self.__dict__:
            self.log.append((name, value))
        super().__setattr__(name, value)


@st.composite
def _desk_walks(draw):
    """(params, seed, [(position, waypoint, speed)]) for desk-length walks
    whose first legs are drawn uniformly, as every build draws them, from a
    stream Hypothesis seeds; walkers at 0.5 m/s or more arrive at least
    once in 1800 s on a 200 m grid."""
    low = draw(st.floats(0.5, 3.0))
    params = SimParams(mobility_tick_s=draw(st.sampled_from([1.0, 0.5, 2.0])),
                       pause_s=draw(st.sampled_from([0.0, 2.5, 7.0])),
                       speed_min_mps=low, speed_max_mps=low + draw(st.floats(0.0, 4.0)))
    rng, grid = random.Random(draw(st.integers(0, 2**32))), params.grid_m
    nodes = [((rng.uniform(0, grid), rng.uniform(0, grid)),
              (rng.uniform(0, grid), rng.uniform(0, grid)),
              rng.uniform(params.speed_min_mps, params.speed_max_mps))
             for _ in range(draw(st.integers(1, 6)))]
    return params, draw(st.integers(0, 2**32)), nodes


def _logged_walk(params, seed, nodes) -> Trajectory:
    walkers = {}
    for i, (_, waypoint, speed) in enumerate(nodes):
        walkers[f"n{i}"] = state = _Logged(waypoint, speed)
        state.__dict__["log"] = []
    return Trajectory(params, seed, walkers,
                      {f"n{i}": pos for i, (pos, _, _) in enumerate(nodes)})


def _re_aimed_rows(walk, n_ticks) -> list:
    """Each tick's positions, in `walk.order`, of `walk` re-aimed tick by tick."""
    positions = dict(zip(walk.order, zip(walk.xy[::2], walk.xy[1::2])))
    rows = [list(positions.values())]
    for k in range(1, n_ticks + 1):
        _re_aiming_tick(positions, walk.walkers, walk.rng, walk.params,
                        k * walk.params.us["mobility_tick_s"])
        rows.append(list(positions.values()))
    return rows


@settings(max_examples=30, deadline=None)
@given(_desk_walks())
def test_summed_legs_stay_within_a_nanometre_of_the_re_aiming_walk(case):
    # every draw, in stream order, and every arrival tick are the re-aiming
    # walk's; a position differs from it by rounding alone
    summed, re_aimed = _logged_walk(*case), _logged_walk(*case)
    n_ticks = summed.params.us["duration_s"] // summed.params.us["mobility_tick_s"]
    summed.walk(n_ticks)
    for k, row in enumerate(_re_aimed_rows(re_aimed, n_ticks)):
        at = summed.xy[k * summed.width:(k + 1) * summed.width]
        for i, (x, y) in enumerate(row):
            assert abs(at[2 * i] - x) <= 1e-9 and abs(at[2 * i + 1] - y) <= 1e-9, (k, i)
    assert all(state.log for state in re_aimed.walkers.values())
    for node_id, state in re_aimed.walkers.items():
        assert summed.walkers[node_id].log == state.log, node_id
    assert summed.rng.getstate() == re_aimed.rng.getstate()


def test_a_leg_arrives_at_the_tick_its_length_gives():
    # 1 m at 0.1 m/s is ten steps, so the walker stands on its waypoint at
    # tick 10; re-aimed from rounded positions it was 1.1e-16 m short of one
    # step at tick 9 and arrived at tick 11
    params = SimParams(speed_min_mps=0.1, speed_max_mps=0.1, duration_s=12.0)
    nodes = [((0.0, 0.0), (0.0, 1.0), 0.1)]
    summed, re_aimed = _logged_walk(params, 0, nodes), _logged_walk(params, 0, nodes)
    summed.walk(12)
    assert summed.xy[2 * 9 + 1] < 1.0 == summed.xy[2 * 10 + 1]
    assert summed.walkers["n0"].log[-1] == ("pause_until", 10 * US)
    assert [y for _, y in itertools.chain(*_re_aimed_rows(re_aimed, 12))].index(1.0) == 11
    assert re_aimed.walkers["n0"].log[-1] == ("pause_until", 11 * US)


def test_rwp_step_unit_vector():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    walk(w, {"a": RwpState(waypoint=(3.0, 4.0), speed=1.0)})
    w._tick_at(US)
    w.run_until(US)
    x, y = w.positions["a"]
    assert (x, y) == pytest.approx((0.6, 0.8))


def test_static_world_positions_never_change():
    p = SimParams(duration_s=300.0, grid_m=120.0)
    w = build_random_world(p, ARMS["baseline"], seed=3, n_clients=10,
                           n_attackers=0, mobility=False)
    before = dict(w.positions)
    w.run()
    assert w.positions == before
    assert w.trajectory.ticks == 0 and not w.mobility


def test_digest_hashes_only_live_routes():
    # no timer drops expired routes, so a table holds them until its next
    # read; the digest must not tell such a table from one just read, and
    # must itself leave every table as it is
    p = SimParams(route_lifetime_s=180.0)
    expired = 0
    for seed in (0, 1, 2):
        w = build_random_world(p, ARMS["attack"], seed, n_clients=26, n_attackers=3)
        w.run()
        tables = {node.node_id: dict(node.routing) for node in w.nodes.values()}
        digest = w.digest()
        for node in w.nodes.values():
            assert node.routing == tables[node.node_id]
            expired += len(node.routing) - len(node.routes(w.clock))
        assert w.digest() == digest, seed
    assert expired > 0


def test_rwp_time_average_concentrates_toward_center():
    # known center bias of waypoint mobility on a square
    p = SimParams(duration_s=1800.0)
    samples = []
    for seed in range(5):
        w = World(p, ARMS["baseline"], seed=seed)
        w.add_node("a", NodeRole.CLIENT, (w.rng_topo.uniform(0, 200),
                                          w.rng_topo.uniform(0, 200)))
        walk(w, {"a": RwpState(
            waypoint=(w.rng_topo.uniform(0, 200), w.rng_topo.uniform(0, 200)),
            speed=w.rng_topo.uniform(1, 2))})
        w._tick_at(US)  # each tick queues the next
        positions = []
        orig = w._on_mobility
        def spy(ev, _o=orig, _w=w, _p=positions):
            _o(ev)
            _p.append(_w.positions["a"])
        w._on_mobility = spy
        w.run_until(w.us["duration_s"])
        xs = [q[0] for q in positions]
        ys = [q[1] for q in positions]
        samples.append((sum(xs) / len(xs), sum(ys) / len(ys)))
    mx = sum(s[0] for s in samples) / len(samples)
    my = sum(s[1] for s in samples) / len(samples)
    assert abs(mx - 100.0) <= 15.0 and abs(my - 100.0) <= 15.0


def test_mobile_positions_stay_in_grid():
    p = SimParams(duration_s=600.0, grid_m=120.0)
    w = build_random_world(p, ARMS["baseline"], seed=6, n_clients=10,
                           n_attackers=0, mobility=True)
    w.run()
    for x, y in w.positions.values():
        assert 0.0 <= x <= p.grid_m and 0.0 <= y <= p.grid_m


# -- energy -------------------------------------------------------------


def test_energy_single_state_node():
    p = SimParams()
    ledger = EnergyLedger()
    assert ledger.energy_mj(1800.0, p) == pytest.approx(1800.0 * p.p_lpm_mw)
    assert ledger.power_mw(1800.0, p) == pytest.approx(p.p_lpm_mw)


def test_energy_zeroed_ledger_zero_time():
    p = SimParams()
    assert EnergyLedger().energy_mj(0.0, p) == 0.0


def test_energy_mixed_ledger_frozen_value():
    # hand-computed: 10*52.2 + 20*56.4 + 100*1.8 + 1670*0.0545 = 1921.015 mJ
    p = SimParams()
    ledger = EnergyLedger(tx_s=10.0, rx_s=20.0, cpu_s=100.0)
    assert ledger.energy_mj(1800.0, p) == pytest.approx(1921.015)


def test_energy_time_budget_conserved():
    p = SimParams(duration_s=400.0, grid_m=120.0)
    w = build_random_world(p, ARMS["baseline"], seed=3, n_clients=10, n_attackers=0)
    counters = w.run()
    elapsed = p.duration_s + DRAIN_US / US
    for ledger in counters.ledgers.values():
        active = ledger.tx_s + ledger.rx_s + ledger.cpu_s
        assert active < elapsed
        assert active + ledger.lpm_s(elapsed) == pytest.approx(elapsed)


def test_radio_state_lives_on_the_node():
    # the radio charges and checks each node through attributes it holds,
    # the only copies: `start_times` reads them, `counters.ledgers` gathers
    # them; role tests read the module constants: on Python 3.10 and 3.11
    # every load of a `NodeRole` member runs the enum metaclass's `__getattr__`
    p = SimParams(duration_s=400.0, grid_m=140.0)
    w = build_random_world(p, ARMS["defense"], seed=3, n_clients=10, n_attackers=1)
    assert w.start_times == {node_id: n.start_time for node_id, n in w.nodes.items()}
    with pytest.raises(AttributeError):
        w.start_times = {}
    counters = w.run()
    assert counters.ledgers.keys() == w.nodes.keys()
    for node_id, n in w.nodes.items():
        assert counters.ledgers[node_id] is n.ledger
    for fn in (World._receive, World.transmit, World._on_data,
               NodeState.handle_dio, NodeState.emit_forged):
        assert "NodeRole" not in {ins.argval for ins in dis.get_instructions(fn)
                                  if ins.opname == "LOAD_GLOBAL"}, fn.__qualname__


def test_transmission_strictly_increases_energy():
    w, a, b = radio_world(40.0)
    p = w.params
    before = a.ledger.energy_mj(100.0, p)
    w.transmit(a, b.address, DisMessage())
    assert a.ledger.energy_mj(100.0, p) > before


# -- whole-world properties ----------------------------------------------


def test_same_seed_same_digest():
    p = SimParams(duration_s=600.0, grid_m=140.0)
    d = []
    for _ in range(2):
        w = build_random_world(p, ARMS["attack"], seed=11, n_clients=12, n_attackers=1)
        w.run()
        d.append(w.digest())
    assert d[0] == d[1]


def test_different_seeds_differ():
    p = SimParams(duration_s=600.0, grid_m=140.0)
    worlds = []
    for seed in (1, 2):
        w = build_random_world(p, ARMS["baseline"], seed=seed, n_clients=12,
                               n_attackers=0)
        w.run()
        worlds.append(w.digest())
    assert worlds[0] != worlds[1]


@pytest.mark.parametrize("mobility", [False, True])
def test_finished_traced_world_is_freed_by_reference_counting(mobility):
    """Nodes hold the trace sink, not the World, so no cycle keeps a run alive."""
    p = SimParams(duration_s=300.0, grid_m=140.0)
    trace = io.StringIO()
    gc.disable()
    try:
        w = build_random_world(p, ARMS["defense"], seed=11, n_clients=12,
                               n_attackers=1, mobility=mobility, trace=trace)
        w.run()
        assert trace.getvalue()
        ref = weakref.ref(w)
        del w
        assert ref() is None
    finally:
        gc.enable()


def test_attack_raises_dao_path_traffic():
    p = SimParams(duration_s=900.0, startup_stagger_s=300.0, data_warmup_s=400.0,
                  grid_m=140.0)
    counts = {}
    for arm in ("baseline", "attack"):
        w = build_random_world(p, ARMS[arm], seed=7, n_clients=12, n_attackers=1)
        c = w.run()
        counts[arm] = c.dao_path_transmissions
    assert counts["attack"] > counts["baseline"]


def test_routing_table_capacity_never_exceeded():
    p = SimParams(duration_s=900.0, startup_stagger_s=300.0, data_warmup_s=400.0,
                  grid_m=140.0)
    w = build_random_world(p, ARMS["attack"], seed=7, n_clients=12, n_attackers=2)
    w.run()
    for node in w.nodes.values():
        if node.rt_cap is not None:
            assert len(node.routing) <= node.rt_cap


def test_blacklisted_never_in_tables():
    p = SimParams(duration_s=900.0, startup_stagger_s=300.0, data_warmup_s=400.0,
                  grid_m=140.0)
    w = build_random_world(p, ARMS["defense"], seed=7, n_clients=12, n_attackers=2)
    w.run()
    for node in w.nodes.values():
        for addr in node.blacklist:
            assert addr not in node.routing


def test_rank_decreases_toward_root():
    p = SimParams(duration_s=600.0, grid_m=140.0)
    w = build_random_world(p, ARMS["baseline"], seed=9, n_clients=15, n_attackers=0)
    w.run()
    for node in w.nodes.values():
        if node.parent is None or node.role is NodeRole.ROOT:
            continue
        parent = w.by_addr[node.parent]
        assert parent.rank < node.rank


def test_mobile_trajectories_equal_across_arms():
    p = SimParams(duration_s=120.0, grid_m=140.0, startup_stagger_s=30.0)
    for seed in range(5):
        seen = {}
        for arm in ARMS:
            w = build_random_world(p, ARMS[arm], seed=seed, n_clients=12,
                                   n_attackers=1, mobility=True)
            start = {n: (s.waypoint, s.speed)
                     for n, s in w.trajectory.walkers.items()}
            w.run()
            seen[arm] = (start, w.positions)
        assert all(v == seen["baseline"] for v in seen.values()), seed


# The all-pairs O(N^2) versions that `engine._connected` and
# `engine._max_subtree_load` replaced, kept as the reference.
def _reference_connected(positions: dict[str, tuple[float, float]], rng_range: float,
                         root_id: str) -> tuple[bool, dict[str, int]]:
    """BFS over the unit-disk graph; returns reachability and hop depths."""
    ids = list(positions)
    depth = {root_id: 0}
    frontier = [root_id]
    while frontier:
        nxt = []
        for a in frontier:
            xa, ya = positions[a]
            for b in ids:
                if b in depth:
                    continue
                xb, yb = positions[b]
                if math.hypot(xa - xb, ya - yb) <= rng_range:
                    depth[b] = depth[a] + 1
                    nxt.append(b)
        frontier = nxt
    return len(depth) == len(ids), depth


def _reference_max_subtree_load(positions: dict, depth: dict, rng_range: float,
                                root_id: str) -> int:
    """Descendant count of the busiest router in a min-hop tree."""
    ids = sorted(positions)
    parent = {}
    for v in ids:
        if v == root_id:
            continue
        xv, yv = positions[v]
        for u in ids:
            if depth.get(u) == depth[v] - 1:
                xu, yu = positions[u]
                if math.hypot(xv - xu, yv - yu) <= rng_range:
                    parent[v] = u
                    break
    load = {v: 0 for v in ids}
    for v in ids:
        if v == root_id:
            continue
        u = parent.get(v)
        while u is not None and u != root_id:
            load[u] += 1
            u = parent.get(u)
    return max((load[v] for v in ids if v != root_id), default=0)


@st.composite
def _placements(draw):
    """(positions, range, root id): 1-300 nodes on grids from half a range
    to 12.5 ranges wide, so that both the one-cell and the cell layouts run.
    Hypothesis draws the shape; a seeded generator draws the bulk, mixing in
    coincident nodes, the grid's edges, and exact multiples of the range and
    their neighbouring floats."""
    rng_range = draw(st.sampled_from([50.0, 1.0, 0.3, 7.25]))
    grid = rng_range * draw(st.sampled_from([0.5, 3.0, 4.0, 6.0, 8.0, 12.5]))
    n = draw(st.integers(1, 300))
    special = draw(st.sampled_from([0.0, 0.2, 0.9]))
    coincident = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def coord():
        if rnd.random() >= special:
            return rnd.uniform(0.0, grid)
        multiple = rnd.randint(0, int(grid / rng_range)) * rng_range
        return rnd.choice([0.0, grid, multiple, math.nextafter(multiple, -math.inf),
                           math.nextafter(multiple, math.inf)])

    positions = {}
    for i in range(n):
        if positions and rnd.random() < coincident:
            positions[f"n{i}"] = rnd.choice(list(positions.values()))
        else:
            positions[f"n{i}"] = (coord(), coord())
    return positions, rng_range, rnd.choice(list(positions))


@settings(max_examples=100, deadline=None)
@given(_placements())
def test_topology_matches_all_pairs_reference(case):
    positions, rng_range, root = case
    ok, depth = engine._connected(positions, rng_range, root)
    assert (ok, depth) == _reference_connected(positions, rng_range, root)
    # the loads of the root's component; an unreached node has no depth
    reached = {v: positions[v] for v in depth}
    assert (engine._max_subtree_load(reached, depth, rng_range, root)
            == _reference_max_subtree_load(reached, depth, rng_range, root))


def test_pair_in_range_by_rounding_is_reached_across_cells():
    # 2.0 - (1 - 2**-53) is 1 + 2**-53, which rounds to 1.0, so the pair is
    # within a range of 1.0 though its exact distance is not; cells exactly
    # one range wide would put it two cells apart (0 and 2).  The node at
    # x = 7 makes the placement wide enough for the cell layout.
    positions = {"root": (math.nextafter(1.0, 0.0), 0.0), "a": (2.0, 0.0),
                 "far": (7.0, 0.0)}
    ok, depth = engine._connected(positions, 1.0, "root")
    assert (ok, depth) == (False, {"root": 0, "a": 1})


def test_disconnected_topology_raises(monkeypatch):
    monkeypatch.setattr(engine, "MAX_TRIES", 5)
    p = SimParams(grid_m=2000.0)  # far too sparse to connect
    with pytest.raises(SetupError, match=r"^seed 1: no connected topology after "
                       r"5 tries \(disconnected 5, attacker too shallow 0, "
                       r"subtree overload 0\)$"):
        build_random_world(p, ARMS["baseline"], seed=1, n_clients=10,
                           n_attackers=0)


@pytest.mark.parametrize("counts, name", [
    ({"n_attackers": -1}, "n_attackers"), ({"n_clients": 0}, "n_clients"),
    ({"n_clients": -2}, "n_clients"),
])
def test_negative_or_empty_node_count_refused(counts, name):
    # n_attackers=-1 once built an attack world with no attacker (PDR 1.0)
    with pytest.raises(ValueError, match=f"^{name}: "):
        build_random_world(SimParams(), ARMS["attack"], seed=1,
                           **{"n_clients": 3, "n_attackers": 1, **counts})


@pytest.mark.parametrize("params, n_attackers, reason", [
    # everything is one hop from the root
    (SimParams(grid_m=30.0), 1,
     r"disconnected 0, attacker too shallow 5, subtree overload 0\)"),
    # no relay may carry a single descendant
    (SimParams(grid_m=140.0, rt_cap=4), 0,
     r"attacker too shallow 0, subtree overload [1-5]\)"),
])
def test_setup_error_names_the_failed_constraint(monkeypatch, params, n_attackers,
                                                 reason):
    monkeypatch.setattr(engine, "MAX_TRIES", 5)
    with pytest.raises(SetupError, match=reason):
        build_random_world(params, ARMS["baseline"], seed=1, n_clients=10,
                           n_attackers=n_attackers)


# -- check_world: one rule book for the library and Scenario ---------------


def test_wide_license_in_a_plain_arm_refused_at_build(monkeypatch):
    # once built, then raised "reserved must be one octet" 428.9 s into run()
    tries = _count_searches(monkeypatch)
    with pytest.raises(ScenarioError, match="^license_width: arm 'baseline'"):
        build_random_world(SimParams(license_width=16), ARMS["baseline"], 0,
                           n_clients=5, n_attackers=0)
    assert tries == []


@pytest.mark.parametrize("rt_cap, n_attackers", [(3, 0), (4, 1)])
def test_table_too_small_to_place_refused_before_any_try(monkeypatch, rt_cap,
                                                         n_attackers):
    # each once spent 200 tries: a relay keeps 4 entries spare, and an
    # attacker at depth >= 2 puts one route in its parent's table
    tries = _count_searches(monkeypatch)
    p = SimParams(rt_cap=rt_cap)
    arm = "attack" if n_attackers else "baseline"
    with pytest.raises(ScenarioError, match="^rt_cap: must be at least"):
        build_random_world(p, ARMS[arm], 1, n_clients=5, n_attackers=n_attackers)
    with pytest.raises(ScenarioError, match="^rt_cap: must be at least"):
        Scenario(params=p, n_clients=5, n_attackers=n_attackers, arms=(arm,))
    assert tries == []


@pytest.mark.parametrize("n_clients", [True, 2.5])
def test_count_of_a_wrong_type_refused_at_build(n_clients):
    # True once built a one-client world; 2.5 was a TypeError from range
    with pytest.raises(ScenarioError, match=f"^n_clients: must be an integer, "
                                            f"got {n_clients!r}$"):
        build_random_world(SimParams(), ARMS["baseline"], 1, n_clients=n_clients,
                           n_attackers=0)


class _Checked(Exception):
    """Raised in place of a World: the build passed `check_world`."""


@pytest.mark.parametrize("arm", list(ARMS))
@pytest.mark.parametrize("license_width", [8, 9, 16])
@pytest.mark.parametrize("rt_cap", [3, 4, 5])
@pytest.mark.parametrize("n_clients, n_attackers",
                         [(0, 0), (3, -1), (3, 0), (3, 1), (True, 0)])
def test_library_and_scenario_refuse_the_same_worlds(monkeypatch, arm, license_width,
                                                     rt_cap, n_clients, n_attackers):
    def no_world(*args, **kwargs):
        raise _Checked

    def refusal(make):
        try:
            make()
        except ScenarioError as exc:
            return str(exc)
        except _Checked:
            pass
        return None

    monkeypatch.setattr(engine, "World", no_world)
    p = SimParams(license_width=license_width, rt_cap=rt_cap)
    scenario = refusal(lambda: Scenario(params=p, n_clients=n_clients,
                                        n_attackers=n_attackers, arms=(arm,), seeds=(0,)))
    library = refusal(lambda: build_random_world(p, ARMS[arm], 0, n_clients=n_clients,
                                                 n_attackers=n_attackers))
    if scenario is not None and scenario.endswith("requires at least one attacker"):
        # the Scenario's own rule: the library builds a peacetime attack arm
        scenario = None
    assert scenario == library


# -- placement memo ---------------------------------------------------------


def _count_searches(monkeypatch) -> list:
    """Record one entry per placement try (each try runs `_connected` once)."""
    tries = []
    connected = engine._connected

    def counted(*args):
        tries.append(args)
        return connected(*args)

    monkeypatch.setattr(engine, "_connected", counted)
    return tries


def _built(world) -> tuple:
    """Everything set-up draws: placement, start times, provisioning, keys,
    the walkers and where the topology stream stands.  The first waypoints
    are the last topology draws; the trajectory oracle below checks the walk."""
    return (dict(world.positions), dict(world.start_times), dict(world.db.entries),
            {n: node.license for n, node in world.nodes.items()},
            dict(world.db.keys), world.mobility, world.rng_topo.getstate())


@pytest.mark.parametrize("mobility", [False, True])
def test_warm_placement_memo_builds_the_fresh_world(monkeypatch, mobility):
    p = SimParams(duration_s=120.0, grid_m=140.0, startup_stagger_s=30.0)
    tries = _count_searches(monkeypatch)
    for seed in range(5):
        memo = {}
        # the other mobility setting fills the memo: the search ignores it
        other = build_random_world(p, ARMS["attack"], seed, n_clients=12,
                                   n_attackers=1, mobility=not mobility,
                                   placements=memo)
        for arm in ARMS:
            fresh = build_random_world(p, ARMS[arm], seed, n_clients=12,
                                       n_attackers=1, mobility=mobility)
            searched = len(tries)
            warm = build_random_world(p, ARMS[arm], seed, n_clients=12,
                                      n_attackers=1, mobility=mobility,
                                      placements=memo)
            assert len(tries) == searched, (seed, arm)  # a hit: no search
            assert _built(warm) == _built(fresh), (seed, arm)
            assert warm.run() == fresh.run()
            assert warm.digest() == fresh.digest(), (seed, arm)
        assert len(memo) == 1
        # one search, but a walk per mobility setting; the static one stands
        other.run()
        assert other.trajectory is not warm.trajectory
        still = warm if not mobility else other
        assert still.trajectory.ticks == 0 and not still.mobility
        assert len(still.trajectory.xy) == 2 * len(still.nodes)
        assert still.trajectory.rng is None  # a still walk draws nothing


@pytest.mark.parametrize("change", [
    {"seed": 2}, {"grid_m": 141.0}, {"tx_range_m": 51.0}, {"rt_cap": 17},
    {"n_clients": 11}, {"n_attackers": 2},
])
def test_placement_memo_key_covers_every_search_input(monkeypatch, change):
    tries = _count_searches(monkeypatch)
    memo = {}

    def build(seed=1, grid_m=140.0, tx_range_m=50.0, rt_cap=16, n_clients=10,
              n_attackers=1, placements=memo):
        p = SimParams(grid_m=grid_m, tx_range_m=tx_range_m, rt_cap=rt_cap)
        return build_random_world(p, ARMS["baseline"], seed, n_clients=n_clients,
                                  n_attackers=n_attackers, placements=placements)

    build()
    searched = len(tries)
    build()
    assert len(tries) == searched  # the same inputs hit
    changed = build(**change)
    assert len(tries) > searched and len(memo) == 2
    assert _built(changed) == _built(build(**change, placements=None))


@pytest.mark.parametrize("name", [f.name for f in fields(SimParams)])
def test_placement_memo_key_covers_every_params_field(name):
    base = SimParams(duration_s=120.0, grid_m=140.0, startup_stagger_s=30.0,
                     data_warmup_s=40.0)
    value = getattr(base, name)
    p = replace(base, **{name: value - 1 if isinstance(value, int) else value + 0.5})
    Scenario(params=p, n_clients=10)  # another valid value

    def build(params, placements=None):
        return build_random_world(params, ARMS["baseline"], 1, n_clients=10,
                                  n_attackers=1, mobility=True,
                                  placements=placements)

    memo = {}
    first = build(base, memo)
    changed = build(p, memo)
    assert len(memo) == 2 and changed.trajectory is not first.trajectory
    assert _built(changed) == _built(build(p))


def test_failed_search_raises_the_same_error_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(engine, "MAX_TRIES", 5)
    p = SimParams(grid_m=2000.0)  # far too sparse to connect
    memo = {}
    messages = []
    for placements in (None, memo):
        with pytest.raises(SetupError) as info:
            build_random_world(p, ARMS["baseline"], seed=1, n_clients=10,
                               n_attackers=0, placements=placements)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert memo == {}


def _small_scenario(arms: list) -> Scenario:
    p = SimParams(grid_m=120.0, duration_s=420.0, startup_stagger_s=120.0,
                  data_warmup_s=180.0)
    return Scenario(params=p, n_clients=8, n_attackers=1, arms=arms,
                    seeds=[0, 1, 2])


def test_experiment_searches_each_seed_once_for_all_arms(monkeypatch):
    tries = _count_searches(monkeypatch)
    run_experiment(_small_scenario(["baseline"]), base=0)
    one_arm = len(tries)
    tries.clear()
    run_experiment(_small_scenario(["baseline", "attack", "defense"]), base=0)
    assert len(tries) == one_arm > 0


def test_experiment_keeps_no_placement_across_calls(monkeypatch):
    tries = _count_searches(monkeypatch)
    scenario = _small_scenario(["baseline", "attack"])
    counts = []
    for _ in range(2):
        tries.clear()
        run_experiment(scenario, base=0)
        counts.append(len(tries))
    assert counts[1] == counts[0] > 0


# -- shared trajectory -------------------------------------------------------


def _ticks_of(w) -> list:
    """Run `w`; the repr of its positions after each mobility tick."""
    seen = []
    tick = w._on_mobility

    def spy(event):
        tick(event)
        seen.append(repr(w.positions))  # tells -0.0 from 0.0

    w._on_mobility = spy
    w.run()
    return seen


@st.composite
def _walk_params(draw):
    """Walks that pause and reach their waypoints often: a grid small enough
    for every placement to connect, slow or fast walkers, coarse or fine ticks."""
    low = draw(st.floats(0.1, 4.0))
    return SimParams(duration_s=draw(st.sampled_from([30.0, 75.0])),
                     grid_m=draw(st.floats(20.0, 70.0)),
                     pause_s=draw(st.integers(US // 2, 15 * US)) / US,
                     speed_min_mps=low,
                     speed_max_mps=low + draw(st.floats(0.0, 8.0)),
                     mobility_tick_s=draw(st.sampled_from([0.5, 1.0, 2.5, 3.3])),
                     startup_stagger_s=5.0, data_warmup_s=10.0)


@settings(max_examples=40, deadline=None)
@given(_walk_params(), st.integers(0, 2**16))
def test_shared_trajectory_matches_a_fresh_walk_at_every_tick(params, seed):
    memo = {}
    shared = set()
    for arm in ARMS:
        # no attacker: on a grid this small it would never be two hops deep
        fresh = build_random_world(params, ARMS[arm], seed, n_clients=5,
                                   n_attackers=0, mobility=True)
        warm = build_random_world(params, ARMS[arm], seed, n_clients=5,
                                  n_attackers=0, mobility=True, placements=memo)
        expected = _ticks_of(fresh)
        # a memo-less world keeps its history from tick 0, x and y per node:
        # the five walkers and the root
        assert expected
        assert len(fresh.trajectory.xy) == 2 * 6 * (len(expected) + 1)
        assert _ticks_of(warm) == expected, arm
        shared.add(id(warm.trajectory))
    assert len(shared) == 1 and len(memo) == 1
    assert warm.trajectory.ticks == len(expected)  # walked once for all arms


@pytest.mark.parametrize("change", [
    {"mobility_tick_s": 2.0}, {"speed_min_mps": 0.5}, {"speed_max_mps": 3.0},
    {"pause_s": 5.0},
    # provisioning draws from rng_topo as many times as the width asks for,
    # and the first waypoints are drawn after it
    {"license_width": 6},
])
def test_walks_of_other_parameters_never_share_a_trajectory(change):
    base = dict(duration_s=80.0, grid_m=140.0, startup_stagger_s=30.0,
                data_warmup_s=40.0)
    memo = {}
    first = build_random_world(SimParams(**base), ARMS["baseline"], 5,
                               n_clients=12, n_attackers=1, mobility=True,
                               placements=memo)
    _ticks_of(first)
    p = SimParams(**base, **change)
    other = build_random_world(p, ARMS["baseline"], 5, n_clients=12,
                               n_attackers=1, mobility=True, placements=memo)
    assert other.trajectory is not first.trajectory and len(memo) == 2
    fresh = build_random_world(p, ARMS["baseline"], 5, n_clients=12,
                               n_attackers=1, mobility=True)
    assert _ticks_of(other) == _ticks_of(fresh)


_SHARED = SimParams(duration_s=300.0, grid_m=140.0, startup_stagger_s=60.0,
                    data_warmup_s=120.0, rt_cap=6, root_rt_cap=24)


def _traced_run(arm, seed, memo, mobility=True):
    """Run one world on `memo`; what it leaves, the positions it reports
    after each mobility tick (the first at tick 0) and its trajectory."""
    trace = io.StringIO()
    w = build_random_world(_SHARED, ARMS[arm], seed, n_clients=12, n_attackers=1,
                           mobility=mobility, trace=trace, placements=memo)
    seen = [dict(w.positions)]
    tick = w._on_mobility

    def spy(event):
        tick(event)
        seen.append(dict(w.positions))

    w._on_mobility = spy
    counters = w.run()
    return (w.digest(), counters, counters.ledgers, trace.getvalue()), seen, w.trajectory


# each seed runs static and mobile worlds, so the test ids stay one per seed
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharing_a_walk_changes_no_arm(seed):
    arms = ["baseline", "attack", "defense"]
    for mobility in (False, True):
        alone = {arm: _traced_run(arm, seed, {}, mobility) for arm in arms}
        for order in (arms, arms[::-1]):
            memo = {}
            for arm in order:
                outcome, seen, walk = _traced_run(arm, seed, memo, mobility)
                assert outcome == alone[arm][0], (mobility, order, arm)
                assert seen == alone[arm][1]
        # the arms asked for ranges the walk had already measured
        assert 0 < len(walk.relations) < sum(len(a[2].relations)
                                             for a in alone.values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_ranges_match_all_pairs_distances(seed):
    # oracle: every (tick, sender) range the walk holds lists, in `nodes`
    # order, the nodes within range in the positions the world reported,
    # and `reaches` answers each ordered pair at each tick from them alike
    reach = _SHARED.tx_range_m
    for mobility in (False, True):
        memo = {}
        for arm in ("baseline", "attack", "defense"):
            _, seen, walk = _traced_run(arm, seed, memo, mobility)
        assert walk.relations
        assert any(k > 0 for k, _ in walk.relations) == mobility
        for (k, sender), ids in walk.relations.items():
            at = seen[k]
            sx, sy = at[sender]
            assert ids == [other for other, (ox, oy) in at.items() if other != sender
                           and math.hypot(sx - ox, sy - oy) <= reach], (k, sender)
        for k, at in enumerate(seen):
            for a, (ax, ay) in at.items():
                for b, (bx, by) in at.items():
                    assert walk.reaches(k, a, b) == (
                        math.hypot(ax - bx, ay - by) <= reach), (k, a, b)


def _mobile_scenario(arms: list) -> Scenario:
    return replace(_small_scenario(arms), mobility=True)


def test_experiment_walks_each_seed_once_for_all_arms(monkeypatch):
    passes = []
    whole = Trajectory.walk

    def counted(self, ticks):
        passes.append(ticks)
        whole(self, ticks)

    monkeypatch.setattr(Trajectory, "walk", counted)
    run_experiment(_mobile_scenario(["baseline"]), base=0)
    one_arm = list(passes)
    passes.clear()
    run_experiment(_mobile_scenario(["baseline", "attack", "defense"]), base=0)
    assert passes == one_arm
    assert passes == [420] * 3  # three seeds, each walked whole at its first tick


def test_experiment_keeps_one_trajectory_alive_at_a_time(monkeypatch):
    alive = []

    class Tracked(Trajectory):
        def __init__(self, *args, **kwargs):
            assert all(ref() is None for ref in alive)  # the last seed's is gone
            super().__init__(*args, **kwargs)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(engine, "Trajectory", Tracked)
    gc.disable()  # freed by reference counting, not by a collection
    try:
        run_experiment(_mobile_scenario(["baseline", "attack", "defense"]), base=0)
    finally:
        gc.enable()
    assert len(alive) == 3 and alive[-1]() is None


def test_experiment_runs_seeds_outer_and_reports_arms_outer(monkeypatch):
    built = []
    build = experiment.build_random_world

    def recorded(params, arm, seed, **kwargs):
        built.append((arm.name, seed))
        return build(params, arm, seed, **kwargs)

    monkeypatch.setattr(experiment, "build_random_world", recorded)
    arms = ["baseline", "attack", "defense"]
    report = run_experiment(_mobile_scenario(arms), base=10)
    assert built == [(arm, seed) for seed in (10, 11, 12) for arm in arms]
    assert [(r.arm, r.seed) for r in report.rows] == [
        (arm, seed) for arm in arms for seed in (10, 11, 12)]


def test_setup_error_at_a_later_seed_leaves_no_trace(tmp_path, monkeypatch):
    built = []
    build = experiment.build_random_world

    def fail_at_last_seed(params, arm, seed, **kwargs):
        built.append((arm.name, seed))
        if seed == 2:
            raise SetupError(f"seed {seed}: no connected topology")
        return build(params, arm, seed, **kwargs)

    monkeypatch.setattr(experiment, "build_random_world", fail_at_last_seed)
    out = tmp_path / "res"
    with pytest.raises(SetupError, match="^seed 2: "):
        run_experiment(_mobile_scenario(["baseline", "attack", "defense"]),
                       out_dir=out, trace=True, base=0)
    # every arm of seeds 0 and 1 ran and streamed its trace first
    assert built[:6] == [(arm, seed) for seed in (0, 1)
                         for arm in ("baseline", "attack", "defense")]
    assert list(out.iterdir()) == []


def test_encrypted_arm_full_run_matches_plain_defense():
    p = SimParams(duration_s=600.0, startup_stagger_s=200.0,
                  data_warmup_s=300.0, grid_m=140.0)
    outcomes = {}
    for arm in ("defense", "defense_encrypted"):
        w = build_random_world(p, ARMS[arm], seed=5, n_clients=12, n_attackers=2)
        c = w.run()
        assert c.forged_acked == 0 and c.forged_nacked > 0
        assert c.genuine_nacked == 0 and c.genuine_acked > 0
        outcomes[arm] = (c.forged_nacked, c.genuine_acked)
    assert outcomes["defense"] == outcomes["defense_encrypted"]


def test_encrypted_arm_daos_carry_options_not_reserved():
    from lisec_rtf.messages import DaoModified
    p = SimParams(duration_s=120.0, grid_m=90.0, startup_stagger_s=0.0,
                  data_warmup_s=0.0)
    w = build_random_world(p, ARMS["defense_encrypted"], seed=3, n_clients=5,
                           n_attackers=0)
    seen = []
    orig = w._receive
    def spy(node, sender_addr, message, airtime, _o=orig):
        if isinstance(message, DaoModified):
            seen.append(message)
        _o(node, sender_addr, message, airtime)
    w._receive = spy
    w.run()
    assert seen
    for dao in seen:
        assert dao.reserved == 0 and len(dao.options) == 9


def test_unkeyed_attacker_forges_plain_daos_in_the_encrypted_arm():
    # the license field follows the key a node holds, not the arm: the
    # attacker provisioning skipped holds none, so its forged DAOs carry the
    # reserved octet beside the keyed client's blobs
    p = SimParams(duration_s=120.0, startup_stagger_s=0.0, data_warmup_s=0.0)
    w = World(p, ARMS["defense_encrypted"], seed=3)
    w.add_node("root", NodeRole.ROOT, (0.0, 0.0))
    c = w.add_node("c", NodeRole.CLIENT, (30.0, 0.0))
    w.add_node("m", NodeRole.MALICIOUS, (0.0, 30.0))
    w.provision(skip={"m"})
    seen = []
    orig = w._receive
    def spy(node, sender_addr, message, airtime, _o=orig):
        if isinstance(message, DaoModified):
            seen.append(message)
        _o(node, sender_addr, message, airtime)
    w._receive = spy
    counters = w.run()
    forged = [dao for dao in seen if is_forged_address(dao.src)]
    own = [dao for dao in seen if dao.src == c.address]
    assert forged and own
    assert all(dao.options == b"" for dao in forged)
    assert all(dao.reserved == 0 and len(dao.options) == license_blob_len(p.license_width)
               for dao in own)
    assert counters.forged_acked == 0 and c.registered


def test_provision_registers_more_than_1024_nodes():
    # the store once refused every node past the 1,024th with a traceback
    w = World(SimParams(), ARMS["defense_encrypted"], seed=1)
    for i in range(1100):
        w.add_node(f"c{i:04d}", NodeRole.CLIENT, (0.0, 0.0))
    w.provision()
    assert len(w.db.entries) == len(w.db.keys) == 1100
    assert set(w.db.keys) == {node.address for node in w.nodes.values()}


def _overflow_story(arm):
    result = run_overflow_demo(arm)
    del result["arm"], result["world"]
    return result


@pytest.mark.parametrize("arm", list(ARMS))
def test_overflow_demo_runs_in_every_arm(arm):
    # node d is never provisioned: in the encrypted arm its own DAO once
    # crashed on the shared key it does not hold
    story = _overflow_story(arm)
    flags = ARMS[arm]
    # forged routes and d's own fill b's table unless the root refuses them
    assert story["h_registered"] == (flags.defense or not flags.attack)
    assert story["d_blacklisted_at_b"] == flags.defense
    assert story["forged_routes_anywhere"] == (flags.attack and not flags.defense)
    if flags.encrypted:
        assert story == _overflow_story("defense")


def test_orphan_data_counted_sent_but_lost():
    w = World(SimParams(data_warmup_s=0.0), ARMS["baseline"], seed=2)
    w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))  # never joins: no DIO heard
    w.schedule(30 * US, "data")
    w.run_until(31 * US)
    assert w.counters.sent_per_node == {"a": 1}
    assert w.counters.received_at_root == 0
    assert w.counters.data_transmissions == 0


def _relay_pair():
    """a and b, each the other's parent, out of the root's range."""
    w = World(SimParams(), ARMS["baseline"], seed=2)
    w.add_node("root", NodeRole.ROOT, (0.0, 0.0))
    a = w.add_node("a", NodeRole.CLIENT, (150.0, 0.0))
    b = w.add_node("b", NodeRole.CLIENT, (180.0, 0.0))
    a.parent, b.parent = b.address, a.address
    return w, a, b


def test_data_caught_in_a_parent_cycle_stops_at_the_hop_limit():
    w, a, _ = _relay_pair()
    w.transmit(a, a.parent, DataPacket(a.address, 0))
    w.run_until(10 * US)
    c = w.counters
    assert c.data_transmissions == 1 + engine.DATA_HOP_LIMIT
    assert c.received_at_root == 0 and c.link_losses == 0


def test_relay_without_a_parent_drops_data_unsent():
    w, a, b = _relay_pair()
    b.parent = None
    w.transmit(a, a.parent, DataPacket(a.address, 0))
    w.run_until(10 * US)
    c = w.counters
    assert c.data_transmissions == 1
    assert c.received_at_root == 0 and c.link_losses == 0


def test_warmup_boundary_sends_one_packet_per_instant():
    # the packet due at 3 x 1.1 s is queued once, on the warm-up itself
    p = SimParams(duration_s=30.0, data_period_s=1.1, data_warmup_s=3.3)
    w = World(p, ARMS["baseline"], seed=2)
    for node_id in ("a", "b"):
        w.add_node(node_id, NodeRole.CLIENT, (0.0, 0.0))
    instants = []
    on_data = w._on_data
    def spy(event):
        instants.append(w.clock)
        on_data(event)
    w._on_data = spy
    w.run()
    assert instants == [k * 1_100_000 for k in range(1, 28)]  # 27 x 1.1 <= 30
    # each client sends once per instant; the third goes at exactly 3.3 s,
    # which is not after the warm-up, so it does not count
    counted = sum(t > w.us["data_warmup_s"] for t in instants)
    assert counted == 24
    assert w.counters.sent_per_node == {"a": counted, "b": counted}


@pytest.mark.parametrize("period, horizon", [(1.1, 3.3), (0.1, 0.3), (2.2, 6.6)])
@pytest.mark.parametrize("kind", ["data", "mobility"])
def test_period_dividing_horizon_in_decimal_keeps_last_event(kind, period, horizon):
    # in whole microseconds 3 x 1.1 s is 3.3 s exactly, where the float
    # sum 1.1 + 1.1 + 1.1 == 3.3000000000000003 lands a hair past it
    key = "mobility_tick_s" if kind == "mobility" else f"{kind}_period_s"
    p = SimParams(duration_s=horizon, data_warmup_s=0.0, **{key: period})
    w = World(p, ARMS["baseline"], seed=2)
    w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    walk(w, {"a": RwpState(waypoint=(1.0, 1.0), speed=1.0)})
    fired = []
    handler = getattr(w, f"_on_{kind}")
    def spy(event):
        fired.append(w.clock)
        handler(event)
    setattr(w, f"_on_{kind}", spy)
    w.run()
    assert fired == [k * w.us[key] for k in (1, 2, 3)]
    if kind == "data":
        assert w.counters.sent_per_node == {"a": 3}


@pytest.mark.parametrize("period", [4.0])
@pytest.mark.parametrize("kind", ["data", "mobility"])
def test_loop_with_period_past_horizon_never_fires(kind, period):
    key = "mobility_tick_s" if kind == "mobility" else f"{kind}_period_s"
    p = SimParams(duration_s=3.0, data_warmup_s=0.0, **{key: period})
    w = World(p, ARMS["baseline"], seed=2)
    w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    walk(w, {"a": RwpState(waypoint=(1.0, 1.0), speed=1.0)})
    fired = []
    handler = getattr(w, f"_on_{kind}")
    def spy(event):
        fired.append(event.time)
        handler(event)
    setattr(w, f"_on_{kind}", spy)
    w.run()
    assert fired == []
    assert all(event.kind != kind for event in w._queue)


@pytest.mark.parametrize("period", [math.inf, math.nan])
@pytest.mark.parametrize("kind", ["data", "mobility"])
def test_non_finite_loop_period_refused(kind, period):
    # an infinite period once crashed the run; it is no whole number of µs
    key = "mobility_tick_s" if kind == "mobility" else f"{kind}_period_s"
    values = dict(duration_s=3.0, data_warmup_s=0.0, **{key: period})
    if period == math.inf:  # nan is refused first as not positive
        with pytest.raises(ScenarioError, match=f"^{key}: must be a non-negative whole "
                                                f"number of microseconds, got {period}$"):
            World(SimParams(**values), ARMS["baseline"], seed=2)
    with pytest.raises(ScenarioError, match=f"^{key}: "):  # nan: not positive
        Scenario(params=SimParams(**values))


def test_one_data_event_pending_while_the_data_loop_runs():
    p = SimParams(duration_s=300.0, startup_stagger_s=60.0, data_warmup_s=120.0,
                  grid_m=90.0)
    w = build_random_world(p, ARMS["attack"], seed=3, n_clients=6, n_attackers=1)
    last = w.us["duration_s"] // w.us["data_period_s"] * w.us["data_period_s"]
    fired = []
    dispatch = w._dispatch
    def checked(event):
        dispatch(event)
        if event.kind == "data":
            fired.append(event.time)
        pending = sum(e.kind == "data" for e in w._queue)
        # the event at the last data time queues no successor
        assert pending == (0 if fired and fired[-1] == last else 1), f"t={w.clock}"
    w._dispatch = checked
    c = w.run()
    assert fired[-1] == last == 300 * US and not w._queue
    # counted: the packets sent at 150, 180, ..., 300
    assert c.sent_per_node == {f"c{i:02d}": 6 for i in range(1, 7)}


@pytest.mark.parametrize("d_hop_s", [0.0, 30.0])
def test_every_client_sends_before_any_delivery_at_a_data_instant(d_hop_s):
    # packets land at the instant they are sent (d_hop_s = 0) or at the next
    # data instant (d_hop_s = data_period_s); either way every client's
    # DATA_TX at an instant comes first, in `nodes` order
    p = SimParams(duration_s=600.0, startup_stagger_s=0.0, data_warmup_s=0.0,
                  grid_m=90.0, d_hop_s=d_hop_s)
    trace = io.StringIO()
    w = build_random_world(p, ARMS["baseline"], seed=3, n_clients=6,
                           n_attackers=0, trace=trace)
    w.run()
    order = list(w.nodes)
    instants: dict[str, list] = {}
    for line in trace.getvalue().splitlines():
        t, node_id, event, detail = line.split("\t")
        if event in ("DATA_TX", "DATA_RX"):
            instants.setdefault(t, []).append((event, node_id))
    busy = 0
    for t, lines in instants.items():
        senders = [node_id for event, node_id in lines if event == "DATA_TX"]
        assert senders == sorted(senders, key=order.index), t
        events = [event for event, _ in lines]
        assert events == sorted(events, key=("DATA_TX", "DATA_RX").index), t
        busy += len(senders) >= 2 and "DATA_RX" in events
    assert busy >= 5  # several joined clients send, and packets land, at once


def test_sixteen_bit_licenses_work_encrypted():
    p = SimParams(duration_s=240.0, grid_m=90.0, startup_stagger_s=0.0,
                  data_warmup_s=60.0, license_width=16)
    w = build_random_world(p, ARMS["defense_encrypted"], seed=3, n_clients=5,
                           n_attackers=0)
    c = w.run()
    assert c.genuine_acked > 0 and c.genuine_nacked == 0


@pytest.mark.parametrize("with_c", [False, True])
@pytest.mark.parametrize("t_nack", [5.0, 100.0])  # within one DIS period of joining, and later
def test_nack_for_parent_detaches_and_rejoins(t_nack, with_c):
    """b on the line root-a-b hears a NACK for its parent a.  It solicits at
    once in one DIS loop, advertises no rank while detached, rejoins through
    c when c is in range, and keeps its one registration refresh loop."""
    params = SimParams(duration_s=300.0)
    trace = io.StringIO()
    w = World(params, ARMS["baseline"], seed=2, trace=trace)
    w.add_node("root", NodeRole.ROOT, (0.0, 0.0))
    a = w.add_node("a", NodeRole.CLIENT, (45.0, 0.0))
    b = w.add_node("b", NodeRole.CLIENT, (90.0, 0.0))
    if with_c:
        c = w.add_node("c", NodeRole.CLIENT, (67.5, 20.0))  # hears a and b only
    events = 0  # heap events and deliveries
    dispatch, receive = w._dispatch, w._receive

    def bounded(handler, *args):
        nonlocal events
        events += 1
        assert events < 2_000, f"stuck at t={w.clock}"
        handler(*args)

    w._dispatch = lambda event: bounded(dispatch, event)
    w._receive = lambda *args: bounded(receive, *args)
    w._schedule_initial()
    w.run_until(round(t_nack * US))
    assert b.parent == a.address
    joined = b.joined_at  # the first join, when b sent its first DAO
    nack = DaoStatus(originator=a.address, status=STATUS_NACK)
    w._receive(b, a.address, nack, 0.0)  # nothing else is due at t_nack
    assert b.wake == w.clock  # the trickle wake-up became a DIS
    w.run_until(w.clock + 50 * US)
    refresh = [e for e in w._queue if e.kind == "dao_refresh" and e.node_id == "b"]
    assert len(refresh) == 1 and b.joined_at == joined
    w.run_until(w.us["duration_s"] + DRAIN_US)

    assert b.joined_at == joined
    lines = [line.split("\t") for line in trace.getvalue().splitlines()]
    assert [t for t, n, kind, _ in lines if n == "b" and kind == "DAO_TX"][0] == (
        f"{joined / US:.6f}")
    after = [line for line in lines if line[1] == "b" and float(line[0]) >= t_nack]
    assert [(t, kind) for t, _, kind, _ in after[:2]] == [
        (f"{t_nack:.6f}", "BLACKLIST"), (f"{t_nack:.6f}", "DIS_TX")]
    kinds = [kind for _, _, kind, _ in after[1:]]
    detached = kinds[:kinds.index("DAO_TX")] if "DAO_TX" in kinds else kinds
    assert "DIO_TX" not in detached
    if with_c:
        assert b.parent == c.address and b.rank == compute_rank(c.rank)
        assert "DIO_TX" in kinds  # advertises again once rejoined
    else:
        assert b.parent is None and b.rank is None and b.trickle is None
        assert b.wake > w.us["duration_s"]  # the next DIS falls past the horizon
        assert not [e for e in w._queue if e.kind == "wake" and e.node_id == "b"]
        times = [float(t) for t, _, _, _ in after[1:]]
        assert kinds == ["DIS_TX"] * len(kinds)
        assert times == [t_nack + k * params.dis_period_s for k in range(len(times))]
        assert times[-1] + params.dis_period_s > params.duration_s


def test_nack_for_parent_after_horizon_sends_nothing():
    """A detach heard in the drain second after `duration_s` queues no DIS:
    after the horizon a run only drains radio deliveries."""
    params = SimParams(duration_s=300.0)
    trace = io.StringIO()
    w = World(params, ARMS["baseline"], seed=2, trace=trace)
    w.add_node("root", NodeRole.ROOT, (0.0, 0.0))
    a = w.add_node("a", NodeRole.CLIENT, (45.0, 0.0))
    b = w.add_node("b", NodeRole.CLIENT, (90.0, 0.0))
    w._schedule_initial()
    w.run_until(w.us["duration_s"] + US // 2)
    assert b.parent == a.address
    sent = w.counters.control_transmissions
    nack = DaoStatus(originator=a.address, status=STATUS_NACK)
    w._receive(b, a.address, nack, 0.0)
    w.run_until(w.us["duration_s"] + DRAIN_US)
    assert b.parent is None and b.wake > w.us["duration_s"]
    assert not [e for e in w._queue if e.kind == "wake" and e.node_id == "b"]
    assert w.counters.control_transmissions == sent
    late = [line.split("\t") for line in trace.getvalue().splitlines()
            if float(line.split("\t")[0]) > params.duration_s]
    assert ["b", "BLACKLIST"] in [[node_id, kind] for _, node_id, kind, _ in late]
    assert "DIS_TX" not in [kind for _, _, kind, _ in late]


def test_dao_is_dropped_round_a_parent_cycle():
    """On the line root-a-b, a NACK for the root detaches a, which then
    adopts its own child b.  Each node drops the DAO its parent forwards,
    so no DAO circulates between them."""
    params = SimParams(duration_s=400.0)
    w = World(params, ARMS["baseline"], seed=2)
    root = w.add_node("root", NodeRole.ROOT, (0.0, 0.0))
    a = w.add_node("a", NodeRole.CLIENT, (45.0, 0.0))
    b = w.add_node("b", NodeRole.CLIENT, (90.0, 0.0))
    w._schedule_initial()
    w.run_until(100 * US)
    assert w.counters.dao_path_transmissions == 12
    nack = DaoStatus(originator=root.address, status=STATUS_NACK)
    w._receive(a, root.address, nack, 0.0)
    w.run_until(200 * US)
    assert a.parent == b.address and b.parent == a.address  # the cycle stays
    # every DAO stops at the first node whose parent sent it
    assert w.counters.dao_path_transmissions == 17


def test_first_volley_after_the_horizon_is_not_sent():
    """An attacker that joins in the drain second after `duration_s` sends
    no volley: after the horizon a run only drains radio deliveries."""
    params = SimParams()
    w = World(params, ARMS["attack"], seed=2)
    w.add_node("root", NodeRole.ROOT, (0.0, 0.0))
    m = w.add_node("m", NodeRole.MALICIOUS, (10.0, 0.0),
                   start_time=w.us["duration_s"] - 1000)
    c = w.run()
    assert m.rank is not None  # the root's DIO lands after the horizon
    assert c.forged_acked == c.forged_nacked == 0


def test_rt_peak_counts_routes_purged_between_instants():
    """A defended relay holds each forged route only until the root's NACK
    returns, milliseconds later, so its table is back to one route at every
    30 s instant; `rt_peak` reports the size it reached."""
    p = SimParams(duration_s=300.0, startup_stagger_s=0.0, data_warmup_s=0.0)
    w = World(p, ARMS["defense"], seed=2)
    w.add_node("root", NodeRole.ROOT, (0.0, 0.0))
    a = w.add_node("a", NodeRole.CLIENT, (45.0, 0.0))
    w.add_node("m", NodeRole.MALICIOUS, (90.0, 0.0))
    w.provision()
    w._schedule_initial()
    sizes = []
    for k in range(1, 11):
        w.run_until(30 * US * k)
        sizes.append(len(a.routing))
    w.run_until(w.us["duration_s"] + DRAIN_US)
    w._finalize()
    assert sizes == [1] * 10  # m, registered through a
    assert w.counters.forged_nacked == 40
    assert a.rt_peak == w.counters.rt_peak == 1 + p.forged_per_period


class WorldMachine(RuleBasedStateMachine):
    """root, a and b on a line, a in range of both ends.  Between the steps
    the World runs its own loops, so injected DIOs and NACKs interleave with
    trickle fires, DIS solicitations and DAO refreshes.

    A detached a may adopt its own child b.  Each then drops the DAO its
    parent forwards, so no DAO circulates between them.
    """

    def __init__(self):
        super().__init__()
        self.w = World(SimParams(duration_s=1e6), ARMS["baseline"], seed=5)
        for node_id, x in (("root", 0.0), ("a", 45.0), ("b", 90.0)):
            self.w.add_node(node_id, NodeRole.ROOT if node_id == "root"
                            else NodeRole.CLIENT, (x, 0.0))
        self.w._schedule_initial()
        self.w.run_until(0)  # every node has started

    @rule(dt=st.integers(0, 40 * US))
    def advance(self, dt):
        self.w.run_until(self.w.clock + dt)

    @rule(receiver=st.sampled_from(["a", "b"]),
          sender=st.sampled_from(["root", "a", "b"]), rank=st.integers(256, 2048))
    def dio(self, receiver, sender, rank):
        w = self.w
        sender_addr = w.nodes[sender].address
        dio = DioMessage(sender=sender_addr, rank=rank)
        w._receive(w.nodes[receiver], sender_addr, dio, 0.0)

    @rule(receiver=st.sampled_from(["a", "b"]))
    def nack_for_parent(self, receiver):
        node = self.w.nodes[receiver]
        if node.parent is not None:
            nack = DaoStatus(originator=node.parent, status=STATUS_NACK)
            self.w._receive(node, node.parent, nack, 0.0)

    def _queued(self, kind, node_id):
        return [e.time for e in self.w._queue
                if e.kind == kind and e.node_id == node_id]

    # An event is live when its handler acts on it: it is queued at the time
    # the World records for the node.  The first one dispatched at that time
    # moves the record, so any later one at the same time is stale.

    @invariant()
    def one_live_wake_up(self):
        # a node with a trickle timer wakes where it fires, at a time queued
        # once; a node without one has not joined and wakes for its next
        # DIS.  A detach right at a DIS time can leave the old DIS loop's
        # event at the new loop's next time, where it runs in its place.
        w = self.w
        for node in w.nodes.values():
            wake = node.wake
            if node.trickle is None:
                assert node.rank is None, node.node_id
                assert wake in self._queued("wake", node.node_id), node.node_id
            else:
                assert wake == node.trickle.t_fire, node.node_id
                assert self._queued("wake", node.node_id).count(wake) == 1


WorldMachine.TestCase.settings = settings(deadline=None)
test_world_machine = WorldMachine.TestCase
