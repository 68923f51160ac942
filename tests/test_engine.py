"""Event kernel, radio, mobility, energy accounting and world properties."""

import gc
import io
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from lisec_rtf import engine, experiment, node
from lisec_rtf.config import ARMS, SimParams
from lisec_rtf.demo import run_overflow_demo
from lisec_rtf.experiment import run_experiment
from lisec_rtf.engine import (
    DRAIN_S,
    DataPacket,
    Event,
    RwpState,
    ScheduleInPastError,
    SetupError,
    Trajectory,
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
    node_address,
)
from lisec_rtf.metrics import EnergyLedger
from lisec_rtf.node import NodeRole, TrickleState, compute_rank
from lisec_rtf.scenario import Scenario


def empty_world(params=None, arm="baseline", seed=1):
    return World(params or SimParams(), ARMS[arm], seed)


def walk(w, walkers, keep=False):
    """Give `w` a trajectory of its own for `walkers` (id -> RwpState)."""
    w.trajectory = Trajectory(w.params, w.seed, walkers, w.positions, keep=keep)
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


_GRID = (0.0, 0.25, 0.5)

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
    w = World(SimParams(d_hop_s=d_hop_s), ARMS["baseline"], seed=3)
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
        message = DisMessage(sender=nodes[sender].address)
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
        schedule(slot * 0.25, (sender, dest, offsets))
    w.run_until(10.0)

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


# -- radio --------------------------------------------------------------


def _receivers(w):
    """Node ids of the pending deliveries, in the order they were sent."""
    return [n.node_id for entry in w._inflight for n in entry[2]]


def radio_world(distance, loss=0.0):
    params = SimParams(loss_prob=loss)
    w = World(params, ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    b = w.add_node("b", NodeRole.CLIENT, (distance, 0.0))
    return w, a, b


def test_unicast_within_range_delivers():
    w, a, b = radio_world(40.0)
    w.transmit(a, b.address, DisMessage(sender=a.address))
    assert _receivers(w) == ["b"]
    assert w._inflight[0][0] == pytest.approx(w.params.d_hop_s)


def test_unicast_beyond_range_lost():
    w, a, b = radio_world(60.0)
    w.transmit(a, b.address, DisMessage(sender=a.address))
    assert not w._inflight and w._queue == []
    assert w.counters.link_losses == 1


def test_in_range_is_symmetric():
    rng = random.Random(4)
    params = SimParams()
    for _ in range(100):
        ax, ay, bx, by = (rng.uniform(0, 200) for _ in range(4))
        d1 = math.hypot(ax - bx, ay - by)
        d2 = math.hypot(bx - ax, by - ay)
        assert (d1 <= params.tx_range_m) == (d2 <= params.tx_range_m)


def test_loss_rate_monte_carlo():
    w, a, b = radio_world(40.0, loss=0.3)
    n = 10_000
    for _ in range(n):
        w.transmit(a, b.address, DisMessage(sender=a.address))
    delivered = len(_receivers(w))
    assert delivered / n == pytest.approx(0.7, abs=0.02)


def test_broadcast_reaches_only_in_range_nodes():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    w.add_node("near", NodeRole.CLIENT, (30.0, 0.0))
    w.add_node("far", NodeRole.CLIENT, (90.0, 0.0))
    w.transmit(a, None, DisMessage(sender=a.address))
    assert _receivers(w) == ["near"]


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
                       start_time=rng.choice([0.0, 0.0, 5.0]))
        oracle_rng = random.Random()
        oracle_rng.setstate(w.rng.getstate())
        expected = []
        senders = [rng.choice(list(w.nodes.values())) for _ in range(15)]
        for sender in senders:
            sx, sy = w.positions[sender.node_id]
            for other in w.nodes.values():
                ox, oy = w.positions[other.node_id]
                if (other is sender or w.start_times[other.node_id] > w.clock
                        or math.hypot(sx - ox, sy - oy) > params.tx_range_m):
                    continue
                if oracle_rng.random() >= params.loss_prob:
                    expected.append(other.node_id)
            w.transmit(sender, None, DisMessage(sender=sender.address))
        assert _receivers(w) == expected
        assert w.rng.getstate() == oracle_rng.getstate()


def test_broadcast_follows_mobility_tick():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    w.add_node("leaving", NodeRole.CLIENT, (45.0, 0.0))
    w.add_node("arriving", NodeRole.CLIENT, (0.0, 56.0))
    w.transmit(a, None, DisMessage(sender=a.address))
    assert _receivers(w) == ["leaving"]
    w._inflight.clear()
    walk(w, {"leaving": RwpState(waypoint=(200.0, 0.0), speed=10.0),
             "arriving": RwpState(waypoint=(0.0, 0.0), speed=10.0)})
    w.schedule(1.0, "mobility")
    w.run_until(1.0)
    w.transmit(a, None, DisMessage(sender=a.address))
    assert _receivers(w) == ["arriving"]


def test_broadcast_after_add_node_includes_it():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    a = w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    w.add_node("b", NodeRole.CLIENT, (30.0, 0.0))
    w.transmit(a, None, DisMessage(sender=a.address))
    w._inflight.clear()
    w.add_node("late", NodeRole.CLIENT, (0.0, 30.0))
    w.transmit(a, None, DisMessage(sender=a.address))
    assert _receivers(w) == ["b", "late"]


def test_unicast_matches_distance_test():
    # oracle: whether a unicast's range test is answered from the sender's
    # neighbour cache or not, deliveries, link losses and the loss generator
    # must match a plain distance test -- with caches filled, after a
    # mobility tick cleared them, after add_node, and for self-unicasts
    rng = random.Random(5)
    for trial in range(10):
        params = SimParams(loss_prob=0.3)
        w = World(params, ARMS["baseline"], seed=trial)
        walkers = {}
        for i in range(30):
            w.add_node(f"n{i:02d}", NodeRole.CLIENT,
                       (rng.uniform(0, 150), rng.uniform(0, 150)),
                       start_time=rng.choice([0.0, 0.0, 5.0]))
            walkers[f"n{i:02d}"] = RwpState(
                waypoint=(rng.uniform(0, 150), rng.uniform(0, 150)),
                speed=rng.uniform(5.0, 20.0))
        walk(w, walkers)
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
                    if (other is sender or w.clock < w.start_times[other.node_id]
                            or math.hypot(sx - ox, sy - oy) > params.tx_range_m):
                        continue
                    if oracle_rng.random() < params.loss_prob:
                        losses += 1
                    else:
                        expected.append(other.node_id)
                w.transmit(sender, None, DisMessage(sender=sender.address))
            pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(60)]
            pairs += [(n, n) for n in rng.sample(nodes, 5)]
            for sender, receiver in pairs:
                sx, sy = w.positions[sender.node_id]
                rx, ry = w.positions[receiver.node_id]
                if (w.clock < w.start_times[receiver.node_id]
                        or math.hypot(sx - rx, sy - ry) > params.tx_range_m
                        or oracle_rng.random() < params.loss_prob):
                    losses += 1
                else:
                    expected.append(receiver.node_id)
                w.transmit(sender, receiver.address,
                           DisMessage(sender=sender.address))

        exchange()
        w.clock = 6.0
        w._on_mobility(Event(6.0, 0, "mobility"))
        assert not w._in_range
        exchange()
        w.add_node("late", NodeRole.CLIENT, (75.0, 75.0), start_time=6.0)
        exchange()
        assert _receivers(w) == expected
        assert w.counters.link_losses == losses
        assert w.rng.getstate() == oracle_rng.getstate()


def _message_of_each_type(params):
    """(message, its size on the air in bytes) per message type."""
    a = node_address(1)
    return {
        "dis": (DisMessage(sender=a), params.dis_bytes),
        "dio": (DioMessage(sender=a, rank=512), params.dio_bytes),
        "dao": (DaoModified(src=a, target=a, sequence=3, reserved=7), DAO_BASE_LEN),
        "dao_options": (DaoModified(src=a, target=a, sequence=3, reserved=0,
                                    options=bytes(range(9))), DAO_BASE_LEN + 1 + 9),
        "status": (DaoStatus(originator=a, sequence=3, status=0), STATUS_LEN),
        "data": (DataPacket("a", a, 0.0, True), params.data_bytes),
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
        before = w.ledgers["a"].tx_s
        w.transmit(a, dest, message)
        assert w.ledgers["a"].tx_s - before == params.airtime_s(size)
    c = w.counters
    data = kind == "data"
    assert c.data_transmissions == (2 if data else 0)
    assert c.control_transmissions == (0 if data else 2)
    assert c.dao_path_transmissions == (2 if kind.startswith(("dao", "status")) else 0)


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
        return [e.time for e in w._queue if e.kind == "wake"
                and e.time == w._wake.get("a")]

    deliver_dio(1.0, 256)  # joins: first fire time drawn
    w.run_until(200.0)  # the interval has doubled to 64 s or more
    superseded = []
    for lead, rank, moved in ((5.0, 512, "earlier"), (1.0, 256, "later")):
        pending = a.trickle.t_fire
        deliver_dio(pending - lead, rank)  # the parent's rank changed: reset
        assert (a.trickle.t_fire < pending) == (moved == "earlier")
        assert w._wake == {"a": a.trickle.t_fire}
        assert live_wakeups() == [a.trickle.t_fire]
        superseded.append(f"{pending:.6f}")
    w.run_until(w.params.duration_s)

    fired = [f"{t:.6f}" for i, (_, t) in enumerate(redraws)
             if t <= w.params.duration_s
             and (i + 1 == len(redraws) or redraws[i + 1][0] == t)]
    sent = _dio_tx_times(trace)
    assert sent == fired and len(set(sent)) == len(sent) and len(sent) > 4
    assert not set(superseded) & set(sent)


def test_trickle_wake_dropped_past_horizon():
    w, a, trace, deliver_dio = _dio_driven_node(SimParams(duration_s=100.0))
    deliver_dio(1.0, 256)
    pending = a.trickle.t_fire
    a.trickle.i_min = 1000.0  # the next reset draws a time past the horizon
    deliver_dio(pending - 0.5, 512)
    assert a.trickle.t_fire > w.params.duration_s
    assert w._wake == {}
    w.run_until(w.params.duration_s + DRAIN_S)
    assert _dio_tx_times(trace) == []


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


def _reference_mobility_tick(positions, walkers, rng, p, clock):
    """The random-waypoint tick written plainly, kept as the oracle."""
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
            state.pause_until = clock + p.pause_s
        else:
            nx = min(max(x + dx / dist * step, 0.0), p.grid_m)
            ny = min(max(y + dy / dist * step, 0.0), p.grid_m)
            positions[node_id] = (nx, ny)


@st.composite
def _rwp_worlds(draw):
    """(params, seed, clock, [(position, RwpState)]) covering every branch."""
    grid = draw(st.sampled_from([200.0, 120.0]))
    tick = draw(st.sampled_from([1.0, 0.5, 2.0]))  # speed * tick is exact
    params = SimParams(grid_m=grid, mobility_tick_s=tick,
                       pause_s=draw(st.sampled_from([0.0, 3.0])))
    clock = draw(st.floats(0.0, 1000.0))
    coord = st.one_of(st.floats(0.0, grid), st.sampled_from([0.0, -0.0, grid]))
    # waypoints past the edge make the clamp bite
    far = st.one_of(coord, st.floats(-30.0, grid + 30.0))
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        pos = (draw(coord), draw(coord))
        state = RwpState(waypoint=(draw(far), draw(far)),
                         speed=draw(st.floats(0.1, 5.0)),
                         pause_until=draw(st.floats(0.0, clock)))
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
            state.pause_until = clock + draw(st.floats(0.001, 10.0))
        nodes.append((pos, state))
    return params, draw(st.integers(0, 2**32)), clock, nodes


@settings(max_examples=200)
@given(_rwp_worlds(), st.integers(1, 4), st.booleans())
def test_mobility_tick_matches_reference(case, n_ticks, keep):
    params, seed, clock, nodes = case
    w = World(params, ARMS["baseline"], seed=seed)
    walkers, ref_walkers = {}, {}
    for i, (pos, state) in enumerate(nodes):
        w.add_node(f"n{i}", NodeRole.CLIENT, pos)
        walkers[f"n{i}"] = RwpState(state.waypoint, state.speed, state.pause_until)
        ref_walkers[f"n{i}"] = RwpState(state.waypoint, state.speed, state.pause_until)
    trajectory = walk(w, walkers, keep)
    ref_positions = dict(w.positions)
    ref_rng = random.Random((seed << 16) ^ 0x30B1)  # the walk's own stream
    for _ in range(n_ticks):
        w.clock = clock
        w._in_range["n0"] = {}
        w._on_mobility(Event(clock, 0, "mobility"))
        _reference_mobility_tick(ref_positions, ref_walkers, ref_rng, params, clock)
        assert repr(w.positions) == repr(ref_positions)  # tells -0.0 from 0.0
        assert trajectory.walkers == ref_walkers
        assert trajectory.rng.getstate() == ref_rng.getstate()
        assert w._in_range == {}
        clock += params.mobility_tick_s


def test_rwp_step_unit_vector():
    w = World(SimParams(), ARMS["baseline"], seed=2)
    w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    walk(w, {"a": RwpState(waypoint=(3.0, 4.0), speed=1.0)})
    w.schedule(1.0, "mobility")
    w.run_until(1.0)
    x, y = w.positions["a"]
    assert (x, y) == pytest.approx((0.6, 0.8))


def test_static_world_positions_never_change():
    p = SimParams(duration_s=300.0, grid_m=120.0)
    w = build_random_world(p, ARMS["baseline"], seed=3, n_clients=10,
                           n_attackers=0, mobility=False)
    before = dict(w.positions)
    w.run()
    assert w.positions == before


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
        w.schedule(1.0, "mobility")  # each tick queues the next
        positions = []
        orig = w._on_mobility
        def spy(ev, _o=orig, _w=w, _p=positions):
            _o(ev)
            _p.append(_w.positions["a"])
        w._on_mobility = spy
        w.run_until(p.duration_s)
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
    w.run()
    elapsed = p.duration_s + DRAIN_S
    for ledger in w.ledgers.values():
        active = ledger.tx_s + ledger.rx_s + ledger.cpu_s
        assert active < elapsed
        assert active + ledger.lpm_s(elapsed) == pytest.approx(elapsed)


def test_transmission_strictly_increases_energy():
    w, a, b = radio_world(40.0)
    p = w.params
    before = w.ledgers["a"].energy_mj(100.0, p)
    w.transmit(a, b.address, DisMessage(sender=a.address))
    assert w.ledgers["a"].energy_mj(100.0, p) > before


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
            assert addr not in node.neighbors


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


def test_disconnected_topology_raises():
    p = SimParams(grid_m=2000.0)  # far too sparse to connect
    with pytest.raises(SetupError, match=r"^seed 1: no connected topology after "
                       r"5 tries \(disconnected 5, attacker too shallow 0, "
                       r"subtree overload 0\)$"):
        build_random_world(p, ARMS["baseline"], seed=1, n_clients=10,
                           n_attackers=0, max_tries=5)


@pytest.mark.parametrize("params, n_attackers, reason", [
    # everything is one hop from the root
    (SimParams(grid_m=30.0), 1,
     r"disconnected 0, attacker too shallow 5, subtree overload 0\)"),
    # no relay may carry a single descendant
    (SimParams(grid_m=140.0, rt_cap=4), 0,
     r"attacker too shallow 0, subtree overload [1-5]\)"),
])
def test_setup_error_names_the_failed_constraint(params, n_attackers, reason):
    with pytest.raises(SetupError, match=reason):
        build_random_world(params, ARMS["baseline"], seed=1, n_clients=10,
                           n_attackers=n_attackers, max_tries=5)


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
        build_random_world(p, ARMS["attack"], seed, n_clients=12, n_attackers=1,
                           mobility=not mobility, placements=memo)
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


@pytest.mark.parametrize("change", [
    {"seed": 2}, {"grid_m": 141.0}, {"tx_range_m": 51.0}, {"rt_cap": 17},
    {"n_clients": 11}, {"n_attackers": 2}, {"max_tries": 199},
])
def test_placement_memo_key_covers_every_search_input(monkeypatch, change):
    tries = _count_searches(monkeypatch)
    memo = {}

    def build(seed=1, grid_m=140.0, tx_range_m=50.0, rt_cap=16, n_clients=10,
              n_attackers=1, max_tries=200, placements=memo):
        p = SimParams(grid_m=grid_m, tx_range_m=tx_range_m, rt_cap=rt_cap)
        return build_random_world(p, ARMS["baseline"], seed, n_clients=n_clients,
                                  n_attackers=n_attackers, max_tries=max_tries,
                                  placements=placements)

    build()
    searched = len(tries)
    build()
    assert len(tries) == searched  # the same inputs hit
    changed = build(**change)
    assert len(tries) > searched and len(memo) == 2
    assert _built(changed) == _built(build(**change, placements=None))


def test_failed_search_raises_the_same_error_and_stores_nothing():
    p = SimParams(grid_m=2000.0)  # far too sparse to connect
    memo = {}
    messages = []
    for placements in (None, memo):
        with pytest.raises(SetupError) as info:
            build_random_world(p, ARMS["baseline"], seed=1, n_clients=10,
                               n_attackers=0, max_tries=5, placements=placements)
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
                     pause_s=draw(st.floats(0.5, 15.0)),
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
        assert expected and fresh.trajectory.xy is None  # no memo, no history
        assert _ticks_of(warm) == expected, arm
        shared.add(id(warm.trajectory))
    assert len(shared) == 1 and len(memo) == 1
    assert warm.trajectory.ticks == len(expected)  # walked once for all arms


@pytest.mark.parametrize("seed", [3, 4])
def test_longer_world_walks_past_the_shared_ticks(seed):
    short, long = (SimParams(duration_s=d, grid_m=140.0, startup_stagger_s=30.0,
                             data_warmup_s=40.0, pause_s=4.0)
                   for d in (60.0, 200.0))
    memo = {}
    first = build_random_world(short, ARMS["attack"], seed, n_clients=12,
                               n_attackers=1, mobility=True, placements=memo)
    assert len(_ticks_of(first)) == 60
    second = build_random_world(long, ARMS["baseline"], seed, n_clients=12,
                                n_attackers=1, mobility=True, placements=memo)
    assert second.trajectory is first.trajectory
    fresh = build_random_world(long, ARMS["baseline"], seed, n_clients=12,
                               n_attackers=1, mobility=True)
    assert _ticks_of(second) == _ticks_of(fresh)
    assert second.trajectory.ticks == 200


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


def _mobile_scenario(arms: list) -> Scenario:
    scenario = _small_scenario(arms)
    scenario.mobility = True
    return scenario


def test_experiment_walks_each_seed_once_for_all_arms(monkeypatch):
    steps = []
    step = Trajectory._step

    def counted(self, clock):
        steps.append(clock)
        step(self, clock)

    monkeypatch.setattr(Trajectory, "_step", counted)
    run_experiment(_mobile_scenario(["baseline"]), base=0)
    one_arm = list(steps)
    steps.clear()
    run_experiment(_mobile_scenario(["baseline", "attack", "defense"]), base=0)
    assert steps == one_arm
    assert len(steps) == 3 * 420  # three seeds, one tick a second


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


def test_provision_registers_more_than_1024_nodes():
    # the store once refused every node past the 1,024th with a traceback
    w = World(SimParams(), ARMS["defense_encrypted"], seed=1)
    for i in range(1100):
        w.add_node(f"c{i:04d}", NodeRole.CLIENT, (0.0, 0.0))
    w.provision()
    assert len(w.db.entries) == len(w.db.keys) == len(w.addr_to_id) == 1100


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
    w.schedule(30.0, "data", "a")
    w.run_until(31.0)
    assert w.counters.sent_per_node == {"a": 1}
    assert w.counters.received_at_root == 0
    assert w.counters.data_transmissions == 0


def test_warmup_boundary_sends_one_packet_per_instant():
    # 3.3 // 1.1 == 2.0 in floating point, so a data grid split at the warmup
    # would queue the packet due at 3 * 1.1 on both sides of the split
    p = SimParams(duration_s=30.0, data_period_s=1.1, data_warmup_s=3.3)
    w = World(p, ARMS["baseline"], seed=2)
    for node_id in ("a", "b"):
        w.add_node(node_id, NodeRole.CLIENT, (0.0, 0.0))
    sent = []
    on_data = w._on_data
    def spy(event):
        sent.append((w.clock, event.node_id))
        on_data(event)
    w._on_data = spy
    w.run()
    assert len(sent) == len(set(sent)) == 2 * 27  # 27 * 1.1 <= 30


@pytest.mark.parametrize("period, horizon", [(1.1, 3.3), (0.1, 0.3), (2.2, 6.6)])
@pytest.mark.parametrize("kind", ["data", "rt_sample"])
def test_period_dividing_horizon_in_decimal_keeps_last_event(kind, period, horizon):
    # adding the period up three times lands a hair past the horizon:
    # 1.1 + 1.1 + 1.1 == 3.3000000000000003
    p = SimParams(duration_s=horizon, data_warmup_s=0.0,
                  **{f"{kind}_period_s": period})
    w = World(p, ARMS["baseline"], seed=2)
    w.add_node("a", NodeRole.CLIENT, (0.0, 0.0))
    fired = []
    handler = getattr(w, f"_on_{kind}")
    def spy(event):
        fired.append(event.time)
        handler(event)
    setattr(w, f"_on_{kind}", spy)
    w.run()
    assert len(fired) == 3, fired
    if kind == "data":
        assert w.counters.sent_per_node == {"a": 3}


@pytest.mark.parametrize("period", [math.inf, math.nan, 4.0])
@pytest.mark.parametrize("kind", ["data", "rt_sample", "mobility"])
def test_loop_with_period_past_horizon_never_fires(kind, period):
    # an infinite period once crashed the run: inf does not read as a decimal
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
    assert all(event.kind != kind for event in w._queue)  # none queued at inf


def test_at_most_one_data_event_pending_per_client():
    p = SimParams(duration_s=300.0, startup_stagger_s=60.0, data_warmup_s=120.0,
                  grid_m=90.0)
    w = build_random_world(p, ARMS["attack"], seed=3, n_clients=6, n_attackers=1)
    peak = 0
    dispatch = w._dispatch
    def checked(event):
        nonlocal peak
        dispatch(event)
        pending = [e.node_id for e in w._queue if e.kind == "data"]
        assert len(pending) == len(set(pending)), f"t={w.clock}"
        peak = max(peak, len(pending))
    w._dispatch = checked
    c = w.run()
    assert peak == 6 and not w._queue
    # counted: the packets sent at 150, 180, ..., 300
    assert c.sent_per_node == {f"c{i:02d}": 6 for i in range(1, 7)}


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
    w.run_until(t_nack)
    assert b.parent == a.address
    nack = DaoStatus(originator=a.address, sequence=1, status=STATUS_NACK)
    w._receive(b, a.address, nack, 0.0)  # nothing else is due at t_nack
    assert w._wake["b"] == t_nack  # the trickle wake-up became a DIS
    w.run_until(t_nack + 50.0)
    refresh = [e for e in w._queue if e.kind == "dao_refresh" and e.node_id == "b"]
    assert len(refresh) == 1
    w.run_until(params.duration_s + DRAIN_S)

    after = [line.split("\t") for line in trace.getvalue().splitlines()
             if line.split("\t")[1] == "b" and float(line.split("\t")[0]) >= t_nack]
    assert [(t, kind) for t, _, kind, _ in after[:2]] == [
        (f"{t_nack:.6f}", "BLACKLIST"), (f"{t_nack:.6f}", "DIS_TX")]
    kinds = [kind for _, _, kind, _ in after[1:]]
    detached = kinds[:kinds.index("DAO_TX")] if "DAO_TX" in kinds else kinds
    assert "DIO_TX" not in detached
    if with_c:
        assert b.parent == c.address and b.rank == compute_rank(c.rank, params)
        assert "DIO_TX" in kinds  # advertises again once rejoined
    else:
        assert b.parent is None and b.rank is None and b.trickle is None
        assert "b" not in w._wake  # the next DIS falls past the horizon
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
    t_nack = params.duration_s + 0.5
    w.run_until(t_nack)
    assert b.parent == a.address
    sent = w.counters.control_transmissions
    nack = DaoStatus(originator=a.address, sequence=1, status=STATUS_NACK)
    w._receive(b, a.address, nack, 0.0)
    w.run_until(params.duration_s + DRAIN_S)
    assert b.parent is None and "b" not in w._wake
    assert w.counters.control_transmissions == sent
    late = [line.split("\t") for line in trace.getvalue().splitlines()
            if float(line.split("\t")[0]) > params.duration_s]
    assert ["b", "BLACKLIST"] in [[node_id, kind] for _, node_id, kind, _ in late]
    assert "DIS_TX" not in [kind for _, _, kind, _ in late]


class WorldMachine(RuleBasedStateMachine):
    """root, a and b on a line, a in range of both ends.  Between the steps
    the World runs its own loops, so injected DIOs and NACKs interleave with
    trickle fires, DIS solicitations and DAO refreshes.

    A detached a may adopt its own child b, and a DAO then circulates
    between them one hop per `d_hop_s`; a one-second hop keeps that cheap.
    """

    def __init__(self):
        super().__init__()
        self.w = World(SimParams(duration_s=1e6, d_hop_s=1.0), ARMS["baseline"],
                       seed=5)
        for node_id, x in (("root", 0.0), ("a", 45.0), ("b", 90.0)):
            self.w.add_node(node_id, NodeRole.ROOT if node_id == "root"
                            else NodeRole.CLIENT, (x, 0.0))
        self.w._schedule_initial()
        self.w.run_until(0.0)  # every node has started

    @rule(dt=st.floats(0.0, 40.0))
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
            nack = DaoStatus(originator=node.parent, sequence=1, status=STATUS_NACK)
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
            wake = w._wake[node.node_id]
            if node.trickle is None:
                assert not node.joined, node.node_id
                assert wake in self._queued("wake", node.node_id), node.node_id
            else:
                assert wake == node.trickle.t_fire, node.node_id
                assert self._queued("wake", node.node_id).count(wake) == 1


WorldMachine.TestCase.settings = settings(deadline=None)
test_world_machine = WorldMachine.TestCase
