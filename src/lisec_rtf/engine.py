"""Deterministic discrete-event kernel: unit-disk radio over the
random-waypoint walk of `mobility`, per-node energy accounting, and the
event loops that drive the protocol handlers in `node`.

One World is one logical timeline in whole microseconds (`config.US` to the
second), so a loop at period P fires at exactly k x P up to `duration_s`;
times go back to seconds only where a delay or a trace line is written.

Everything random flows through seeded generators: `rng_topo` (topology
and provisioning, identical across comparison arms for a given seed), the
walking trajectory's `rng` (waypoint draws, likewise arm-independent),
`rng_keys` (shared keys of the encrypted arm, kept apart so that drawing
them leaves the other streams untouched) and `rng` (protocol-driven draws).
Replaying the same seed and configuration reproduces the event trace byte
for byte.

Every world's radio reads a `Trajectory` (`mobility`) that covers every
node: a mobile world's walkers move in it, a static world's never steps,
and a world built by hand gets a still one the first time its radio is
used.  It keeps every tick in one flat array, x and y per node.  Worlds
built through one placement memo with one mobility setting share it: the
first world to take a tick walks the whole run, and the ids in range of a
sender at a tick are computed once for all of them.  Each world caches
each sender's neighbours by address, in `nodes` order, until `add_node` or
the next mobility tick; a unicast finds its receiver in the sender's cache
when it is filled and otherwise reads the two nodes' points at the tick.
A mobile world copies the tick into `positions` only when something reads
it.

Every client sends with the same period and phase, so data leaves from one
`"data"` event per period whose handler sends each client's packet in
`nodes` order.

Work waits at three heads, each ordered by (time, seq) with `seq` drawn
from one counter, and `run_until` takes whichever head is smallest:

- the event heap `_queue`;
- `_inflight`, a FIFO of radio deliveries with one entry per transmission:
  (arrival, seq, receivers, sender address, message, airtime), where
  `receivers` is the receiving node of a unicast or the list of nodes a
  broadcast reached.  Every delivery lands `d_hop_s` after it was sent, the
  clock never goes back and `d_hop_s` is a constant >= 0, so arrivals come
  due in send order;
- `_tick`, a mobile world's next mobility tick as a (time, seq) pair.  Tick
  k's `seq` is drawn when tick k-1 runs, as it would be for a heap event
  queued then, so an event at exactly k x `mobility_tick_s` runs before
  tick k only if it was queued before tick k-1 ran: data at 30 s runs
  before tick 30.  Between two ticks `run_until` drains the other two heads
  without looking at the third.

A relayed frame costs one call per layer it crosses: `_receive` (kernel),
the node's handler and `transmit` (radio).  `_receive` tests types by how
often they arrive and forwards a relay's data hop itself; `transmit` takes
the unicast branch first and keeps DAO airtimes by options length.  Each
node holds its start time, `EnergyLedger`, wake-up and join time, so a hop
charges and checks it, and a wake-up is found stale, without a lookup.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

from .config import RT_MARGIN, US, ArmFlags, SimParams, check_world
from .messages import (
    DaoModified,
    DaoStatus,
    DioMessage,
    DisMessage,
    STATUS_ACK,
    STATUS_LEN,
    dao_length,
    is_forged_address,
    node_address,
)
from .metrics import EnergyLedger, RunCounters
from .mobility import RwpState, Trajectory
from .node import CLIENT, MALICIOUS, ROOT, NodeRole, NodeState, TrickleState
from .puf import KEY_LEN, CRDatabase
from .topology import _connected, _max_subtree_load


class ScheduleInPastError(ValueError):
    pass


class SetupError(RuntimeError):
    """Topology generation could not satisfy its constraints."""


DATA_HOP_LIMIT = 64
MAX_TRIES = 200  # placements drawn before a build gives up
DRAIN_US = US  # lets transmissions issued right at the horizon land


class Event(NamedTuple):
    """Heap entry; (time, seq) is unique, so later fields never compare."""

    time: int
    seq: int
    kind: str
    node_id: str | None = None
    payload: object = None


class DataPacket:
    __slots__ = ("src_addr", "created", "hops")

    def __init__(self, src_addr: bytes, created: int):
        self.src_addr = src_addr
        self.created = created
        self.hops = 0


def _line_sink(stream: TextIO):
    """A tracer that writes one tab-separated line per event to `stream`.

    Callers build `detail` only when a tracer is attached, and the time is
    formatted in seconds once per distinct time.  The sink holds the stream
    and not the World, so the nodes that keep it make no cycle and a
    finished World is freed by reference counting.
    """
    stamp_at, stamp = None, ""

    def trace(now: int, node_id: str, event: str, detail: str) -> None:
        nonlocal stamp_at, stamp
        if now != stamp_at:
            stamp_at, stamp = now, f"{now / US:.6f}"
        stream.write(f"{stamp}\t{node_id}\t{event}\t{detail}\n")
    return trace


class World:
    """`clock`, every time it takes, `start_times` and `us` are whole µs;
    each node, not a table here, holds its own lifecycle."""

    def __init__(self, params: SimParams, arm: ArmFlags, seed: int,
                 trace: TextIO | None = None):
        self.us = params.us
        self.params = params
        self.arm = arm
        self.seed = seed
        self.rng_topo = random.Random(seed)
        self.rng = random.Random((seed << 16) ^ 0x5EED)
        self.rng_keys = random.Random((seed << 16) ^ 0x4E75)
        self.clock = 0
        self._queue: list[Event] = []
        self._inflight: deque[tuple] = deque()
        self._tick: tuple[int, int] | None = None  # next mobility tick's (time, seq)
        self._seq = 0
        self.nodes: dict[str, NodeState] = {}
        self._in_range: dict[str, dict[bytes, NodeState]] = {}
        self.by_addr: dict[bytes, NodeState] = {}
        self._positions: dict[str, tuple[float, float]] = {}
        self.trajectory: Trajectory | None = None  # covers every node
        self._ticks = 0  # mobility ticks this world has taken
        self.db = CRDatabase(width=params.license_width)
        self.counters = RunCounters()
        self.tracer = None if trace is None else _line_sink(trace)
        self._hop_us = params.us["d_hop_s"]
        self._loss, self._cpu_s = params.loss_prob, params.cpu_per_packet_s
        # airtime by message type; a DAO's by the length of its options
        self._dao_airtime: dict[int, float] = {}
        self._airtime = {
            DioMessage: params.airtime_s(params.dio_bytes),
            DisMessage: params.airtime_s(params.dis_bytes),
            DaoStatus: params.airtime_s(STATUS_LEN),
            DataPacket: params.airtime_s(params.data_bytes),
        }

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: str, role: NodeRole, pos: tuple[float, float],
                 start_time: int = 0) -> NodeState:
        if node_id in self.nodes:
            raise ValueError(f"{node_id}: already in the world")
        if not isinstance(start_time, int) or start_time < 0:
            raise ValueError(f"{node_id}: start_time must be a non-negative whole "
                             f"number of microseconds, got {start_time!r}")
        if self.mobility:
            raise ValueError(f"{node_id}: add every node before attaching a trajectory")
        self.trajectory = None  # a still walk is made again with the node
        address = node_address(len(self.nodes))
        node = NodeState(node_id, address, role, self.params)
        node.tracer = self.tracer
        self.nodes[node_id] = node
        self._in_range.clear()
        self.by_addr[address] = node
        self._positions[node_id] = pos
        node.start_time = start_time
        node.ledger = EnergyLedger()
        return node

    @property
    def start_times(self) -> dict[str, int]:
        """Each node's start time by id, read off the nodes."""
        return {node_id: node.start_time for node_id, node in self.nodes.items()}

    @property
    def mobility(self) -> tuple[str, ...]:
        """Ids of the nodes that walk, in trajectory order; empty if static."""
        return () if self.trajectory is None else self.trajectory.ids

    @property
    def positions(self) -> dict[str, tuple[float, float]]:
        """Every node's (x, y) now, copied from the walk once it has stepped."""
        if self._ticks:
            walk = self.trajectory
            row = iter(walk.xy[self._ticks * walk.width:(self._ticks + 1) * walk.width])
            self._positions.update(zip(walk.order, zip(row, row)))
        return self._positions

    def provision(self, skip: set[str] | None = None) -> None:
        """Registration phase: store one pair per node, hand out licenses."""
        skip = skip or set()
        self._license(self.db.enrol(self.seed, {
            node.address: node.node_id for node in self.nodes.values()
            if node.role is not ROOT and node.node_id not in skip}, self.rng_topo))

    def _license(self, licenses: dict[str, int]) -> None:
        """Give each node of `licenses` its license and, in the encrypted
        arm, a shared key drawn from `rng_keys` in that order."""
        for node_id, license_bits in licenses.items():
            node = self.nodes[node_id]
            node.license = license_bits
            if self.arm.encrypted:
                key = node.shared_key = self.rng_keys.randbytes(KEY_LEN)
                self.db.keys[node.address] = key

    # -- event queue -------------------------------------------------------

    def schedule(self, time: int, kind: str, node_id: str | None = None,
                 payload=None) -> None:
        if time < self.clock:
            raise ScheduleInPastError(f"cannot schedule at {time} (clock {self.clock})")
        # the NamedTuple constructor costs more than twice as much
        heapq.heappush(self._queue, tuple.__new__(
            Event, (time, self._seq, kind, node_id, payload)))
        self._seq += 1

    def run_until(self, t_end: int) -> None:
        if t_end < self.clock:
            raise ValueError("t_end before current clock")
        queue, inflight = self._queue, self._inflight
        receive, dispatch = self._receive, self._dispatch
        end = (t_end, math.inf)  # after every (time, seq) with time <= t_end
        while True:
            tick = self._tick
            bound = end if tick is None or end < tick else tick
            stop = bound[0]
            # every delivery and event that comes before `bound`; the seq is
            # read only at a tie, as comparing a tuple costs more
            while True:
                if inflight and (not queue or inflight[0] < queue[0]):
                    if inflight[0][0] >= stop and not inflight[0] < bound:
                        break
                    self.clock, _, receivers, sender_addr, message, airtime = (
                        inflight.popleft())
                    if receivers.__class__ is NodeState:  # a unicast
                        receive(receivers, sender_addr, message, airtime)
                    else:
                        for node in receivers:
                            receive(node, sender_addr, message, airtime)
                elif queue and (queue[0].time < stop or queue[0] < bound):
                    event = heapq.heappop(queue)
                    self.clock = event.time
                    dispatch(event)
                else:
                    break
            if bound is end:
                break
            self._tick = None  # stays None if the handler queues no next tick
            self.clock = tick[0]
            self._on_mobility(tick)  # looked up per tick: a patched handler runs
        self.clock = t_end

    def run(self) -> RunCounters:
        self._schedule_initial()
        self.run_until(self.us["duration_s"] + DRAIN_US)
        self._finalize()
        return self.counters

    def _reschedule(self, time: int, kind: str,
                    node_id: str | None = None) -> None:
        """Queue a periodic loop's next event unless it falls past the
        horizon; after it `run` only drains radio deliveries."""
        if time <= self.us["duration_s"]:
            self.schedule(time, kind, node_id)

    def _schedule_initial(self) -> None:
        """Start the root's trickle timer, queue each node's first wake-up
        (the root's at its fire time, another's at its start time) and the
        first event of each periodic loop; each handler queues its next."""
        for node in self.nodes.values():
            if node.role is ROOT:
                node.trickle = TrickleState.start(self.params, self.rng, node.start_time)
                node.joined_at = node.start_time
                self._wake_at(node, node.trickle.t_fire)
            else:
                self._wake_at(node, node.start_time)
        self._reschedule(self.us["data_period_s"], "data")
        if self.mobility:
            self._tick_at(self.us["mobility_tick_s"])

    def _tick_at(self, time: int) -> None:
        """Queue the next mobility tick, drawing its `seq` now, unless it
        falls past the horizon."""
        if time <= self.us["duration_s"]:
            self._tick = (time, self._seq)
            self._seq += 1

    # -- radio -------------------------------------------------------------

    # unused by the simulator; the benchmark's probe (bench/probe.py) patches it by name
    def _distance(self, a: str, b: str) -> float:
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    def _walk(self) -> Trajectory:
        """The world's geometry; a world built by hand stands still in one."""
        if self.trajectory is None:
            self.trajectory = Trajectory(self.params, self.seed, {}, self._positions)
        return self.trajectory

    def _neighbours(self, sender: NodeState) -> dict[bytes, NodeState]:
        """Nodes within radio range of `sender` by address, in `nodes` order."""
        near = self._in_range.get(sender.node_id)
        if near is None:
            ids = self._walk().near(self._ticks, sender.node_id)
            near = self._in_range[sender.node_id] = {
                other.address: other for other in map(self.nodes.__getitem__, ids)}
        return near

    def transmit(self, sender: NodeState, dest: bytes | None, message) -> None:
        kind = type(message)
        if kind is DaoModified:
            memo, n = self._dao_airtime, len(message.options)
            airtime = memo.get(n)
            if airtime is None:
                airtime = memo[n] = self.params.airtime_s(dao_length(message))
        else:
            airtime = self._airtime[kind]
        sender.ledger.tx_s += airtime
        counters, now, loss = self.counters, self.clock, self._loss
        if kind is DataPacket:
            counters.data_transmissions += 1
        else:
            counters.control_transmissions += 1
            if kind is DaoModified or kind is DaoStatus:
                counters.dao_path_transmissions += 1
        if dest is not None:
            near = self._in_range.get(sender.node_id)
            receiver = None if near is None else near.get(dest)
            if receiver is None:  # not in a filled cache, which excludes the sender
                receiver = self.by_addr.get(dest)
                if (receiver is None or (near is not None and receiver is not sender)
                        or not self._walk().reaches(self._ticks, sender.node_id,
                                                    receiver.node_id)):
                    counters.link_losses += 1
                    return
            if now < receiver.start_time or self.rng.random() < loss:
                counters.link_losses += 1
                return
            receivers = receiver
        else:
            receivers, draw = [], self.rng.random
            for other in self._neighbours(sender).values():
                if now < other.start_time:
                    continue
                if draw() < loss:
                    counters.link_losses += 1
                    continue
                receivers.append(other)
            if not receivers:
                return
        self._inflight.append((now + self._hop_us, self._seq, receivers,
                               sender.address, message, airtime))
        self._seq += 1

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        handler = getattr(self, f"_on_{event.kind}")
        handler(event)

    def _receive(self, node: NodeState, sender_addr: bytes, message,
                 airtime: float) -> None:
        ledger = node.ledger
        ledger.rx_s += airtime
        ledger.cpu_s += self._cpu_s
        kind = type(message)
        if kind is DataPacket:
            if node.role is ROOT:
                self._handle_data(node, message)
                return
            message.hops += 1
            if message.hops <= DATA_HOP_LIMIT and node.parent is not None:
                self.transmit(node, node.parent, message)
            return
        # calling `self.transmit` builds no bound method and still finds a
        # transmit patched on the class (bench/probe.py)
        now = self.clock
        if kind is DaoStatus:
            joined = node.rank is not None
            for dest, out in node.handle_status(message, now):
                self.transmit(node, dest, out)
            if joined and node.rank is None:
                # detached: solicit at once, like a node that never joined
                self._wake_at(node, now)
        elif kind is DaoModified:
            if node.role is ROOT:
                sent = node.root_handle_dao(message, sender_addr, now,
                                            self.db if self.arm.defense else None)
                accepted = sent[0][1].status == STATUS_ACK
                if is_forged_address(message.src):
                    self.counters.forged_acked += accepted
                    self.counters.forged_nacked += not accepted
                else:
                    self.counters.genuine_acked += accepted
                    self.counters.genuine_nacked += not accepted
            else:
                sent = node.handle_dao(message, sender_addr, now)
            for dest, out in sent:
                self.transmit(node, dest, out)
        elif kind is DioMessage:
            for dest, out in node.handle_dio(message, now, self.rng):
                self.transmit(node, dest, out)
            # a joined node wakes at its fire time, which handle_dio may move
            if node.trickle is not None and node.trickle.t_fire != node.wake:
                self._wake_at(node, node.trickle.t_fire)
            if node.rank is not None and node.joined_at is None:
                node.joined_at = now  # first join: start its DAO loops
                if node.role is MALICIOUS:
                    if self.arm.attack:
                        self._reschedule(now, "volley", node.node_id)
                    self._reschedule(now + self.us["attacker_self_dao_delay_s"],
                                     "dao_refresh", node.node_id)
                else:
                    self._reschedule(now + self.us["dao_period_s"], "dao_refresh",
                                     node.node_id)
        elif kind is DisMessage:
            for dest, out in node.handle_dis(message, now):
                self.transmit(node, dest, out)

    def _wake_at(self, node: NodeState, t: int) -> None:
        """Move the node's one wake-up to `t`, queuing it unless it falls
        past the horizon; an event at any other time is then stale."""
        if node.wake != t:
            node.wake = t
            if t <= self.us["duration_s"]:
                self.schedule(t, "wake", node.node_id)

    def _on_wake(self, event: Event) -> None:
        """Fire the trickle timer of a joined node; solicit with a DIS
        while the node has not joined."""
        node = self.nodes[event.node_id]
        if node.wake != event.time:
            return  # stale: the wake-up has moved since
        if node.rank is not None:
            for dest, message in node.trickle_fire(self.clock, self.rng):
                self.transmit(node, dest, message)
            self._wake_at(node, node.trickle.t_fire)
            return
        if self.tracer is not None:
            self.tracer(self.clock, node.node_id, "DIS_TX", "soliciting")
        self.transmit(node, None, DisMessage())
        self._wake_at(node, self.clock + self.us["dis_period_s"])

    def _on_dao_refresh(self, event: Event) -> None:
        node = self.nodes[event.node_id]
        for dest, message in node.build_own_dao(self.clock, self.rng):
            self.transmit(node, dest, message)
        self._reschedule(self.clock + self.us["dao_period_s"], "dao_refresh",
                         node.node_id)

    def _on_volley(self, event: Event) -> None:
        node = self.nodes[event.node_id]
        for dest, message in node.emit_forged(self.clock, self.rng):
            self.transmit(node, dest, message)
        self._reschedule(self.clock + self.us["attack_period_s"], "volley",
                         node.node_id)

    def _on_data(self, event: Event) -> None:
        """Send one data packet from every client, in `nodes` order."""
        now = self.clock
        self._reschedule(now + self.us["data_period_s"], "data")
        counted = now > self.us["data_warmup_s"]
        sent = self.counters.sent_per_node
        for node in self.nodes.values():
            if node.role is not CLIENT:
                continue
            if counted:
                sent[node.node_id] = sent.get(node.node_id, 0) + 1
            if node.parent is None:
                continue  # orphan: packet lost at the source
            if self.tracer is not None:
                self.tracer(now, node.node_id, "DATA_TX", f"counted={counted}")
            self.transmit(node, node.parent, DataPacket(node.address, now))

    def _handle_data(self, root: NodeState, packet: DataPacket) -> None:
        """The sink admits data only from sources it holds a route for."""
        if packet.src_addr not in root.routes(self.clock):
            self.counters.root_admission_drops += 1
            return
        if self.tracer is not None:
            self.tracer(self.clock, root.node_id, "DATA_RX",
                        f"from {self.by_addr[packet.src_addr].node_id}")
        if packet.created > self.us["data_warmup_s"]:
            self.counters.received_at_root += 1
            self.counters.delays.append((self.clock - packet.created) / US)

    def _on_mobility(self, due: tuple) -> None:
        """Take the tick that came due at (time, seq) `due` and queue the
        next one."""
        self._tick_at(due[0] + self.us["mobility_tick_s"])
        self._in_range.clear()
        if not self.trajectory.ticks:  # the first world to take a tick walks the run
            self.trajectory.walk(self.us["duration_s"] // self.us["mobility_tick_s"])
        self._ticks += 1

    # -- teardown ----------------------------------------------------------

    def _finalize(self) -> None:
        c = self.counters
        c.ledgers = {node_id: node.ledger for node_id, node in self.nodes.items()}
        c.client_ids = [n.node_id for n in self.nodes.values()
                        if n.role is CLIENT]
        non_root = [n for n in self.nodes.values() if n.role is not ROOT]
        c.n_blacklisted = sum(len(n.blacklist) for n in non_root)
        c.rt_peak = max((n.rt_peak for n in non_root), default=0)

    # -- debugging ---------------------------------------------------------

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.clock).encode())
        positions = self.positions
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            x, y = positions[node_id]
            h.update(node_id.encode())
            h.update(f"|{node.rank}|{node.parent.hex() if node.parent else '-'}"
                     f"|{len(node.blacklist)}|{node.dao_seq}|{x:.6f},{y:.6f}".encode())
            for target, entry in sorted(node.live_routes(self.clock).items()):
                h.update(target.hex().encode())
                h.update(entry.next_hop.hex().encode())
            for addr in sorted(node.blacklist):
                h.update(addr.hex().encode())
        c = self.counters
        h.update(f"{c.total_sent()}|{c.received_at_root}|{c.control_transmissions}"
                 f"|{c.data_transmissions}|{c.link_losses}".encode())
        return h.hexdigest()


# -- topology generation ----------------------------------------------------


def _search(rng: random.Random, params: SimParams, seed: int, client_ids: list[str],
            attacker_ids: list[str]) -> dict[str, tuple[float, float]]:
    """Draw uniform placements from `rng` until one is connected, puts every
    attacker at depth >= 2 and overloads no router; returns its positions.
    A try with an attacker in range of the root, by the BFS's own test,
    fails with no BFS; only a failed search runs one on it, to count why."""
    uniform, hypot = rng.uniform, math.hypot
    grid, reach = params.grid_m, params.tx_range_m
    half = grid / 2
    rejected = dict.fromkeys(("disconnected", "attacker too shallow", "subtree overload"), 0)
    shallow = []
    for _ in range(MAX_TRIES):
        positions = {"root": (half, half)}
        for node_id in client_ids:
            positions[node_id] = (uniform(0, grid), uniform(0, grid))
        for node_id in attacker_ids:
            positions[node_id] = (uniform(0, grid), uniform(0, grid))
        if any(hypot(half - x, half - y) <= reach
               for x, y in map(positions.__getitem__, attacker_ids)):
            shallow.append(positions)
            continue
        ok, depth = _connected(positions, reach, "root")
        if not ok:
            rejected["disconnected"] += 1
            continue
        if any(depth[node_id] < 2 for node_id in attacker_ids):
            rejected["attacker too shallow"] += 1
            continue
        if _max_subtree_load(positions, depth, reach, "root") > params.rt_cap - RT_MARGIN:
            rejected["subtree overload"] += 1
            continue
        return positions
    for positions in shallow:
        connected = _connected(positions, reach, "root")[0]
        rejected["attacker too shallow" if connected else "disconnected"] += 1
    counts = ", ".join(f"{reason} {n}" for reason, n in rejected.items())
    raise SetupError(
        f"seed {seed}: no connected topology after {MAX_TRIES} tries ({counts})")


@dataclass
class _Placement:
    """A memo entry: what `rng_topo` decides for a seed, where it then
    stood, and per mobility setting the walk its worlds share and where
    `rng_topo` stood after the first waypoints."""

    positions: dict
    start_times: dict
    pairs: dict
    licenses: dict
    rng_state: tuple
    walks: dict[bool, tuple[Trajectory, tuple]] = field(default_factory=dict)


def build_random_world(params: SimParams, arm: ArmFlags, seed: int,
                       n_clients: int = 29, n_attackers: int = 1,
                       mobility: bool = False, trace: TextIO | None = None,
                       placements: dict | None = None) -> World:
    """Uniform placement, root at the grid center, attackers at depth >= 2.

    Positions, start times, provisioning and the first waypoints draw only
    from the topology generator, so every arm sees the same network for a
    given seed.  Inputs that `check_world` refuses raise `ScenarioError`
    before any draw.

    `placements` is a memo the caller owns, keyed by the seed, the counts
    and `params`, a frozen `SimParams` that compares by every field;
    without one the build uses a memo of its own.  A miss draws an entry;
    a failed search stores nothing.  Every world is assembled from the
    entry, leaving `rng_topo` where a fresh build would; only encrypted
    keys are drawn per world.  Worlds on one entry with one mobility
    setting share its trajectory: a static one never steps, and a mobile
    one keeps every tick while it lives.
    """
    check_world(params, arm, n_clients, n_attackers)
    world = World(params, arm, seed, trace=trace)
    rng, us = world.rng_topo, params.us
    client_ids = [f"c{i + 1:02d}" for i in range(n_clients)]
    attacker_ids = [f"m{i + 1:02d}" for i in range(n_attackers)]
    roles = dict.fromkeys(client_ids, CLIENT) | dict.fromkeys(attacker_ids, MALICIOUS)
    key = (seed, n_clients, n_attackers, params)
    if placements is None:
        placements = {}
    entry = placements.get(key)
    if entry is None:
        positions = _search(rng, params, seed, client_ids, attacker_ids)
        windows = {CLIENT: us["startup_stagger_s"], MALICIOUS: us["attacker_start_window_s"]}
        start_times = {node_id: round(rng.uniform(0, windows[role]))
                       for node_id, role in roles.items()}
        # all but the root, by the addresses `add_node` gives them below
        ids = dict(zip(map(node_address, range(1, len(positions))), roles))
        db = CRDatabase(width=params.license_width)
        licenses = db.enrol(seed, ids, rng)
        entry = placements[key] = _Placement(positions, start_times, db.entries,
                                             licenses, rng.getstate())
    world.add_node("root", ROOT, entry.positions["root"])
    for node_id, role in roles.items():
        world.add_node(node_id, role, entry.positions[node_id], entry.start_times[node_id])
    world.db.entries.update(entry.pairs)
    world._license(entry.licenses)
    walk = entry.walks.get(mobility)
    if walk is None:
        rng.setstate(entry.rng_state)
        walkers = {}
        if mobility:  # the sink stays where it is deployed
            for node_id in roles:
                walkers[node_id] = RwpState(
                    waypoint=(rng.uniform(0, params.grid_m), rng.uniform(0, params.grid_m)),
                    speed=rng.uniform(params.speed_min_mps, params.speed_max_mps))
        walk = entry.walks[mobility] = (Trajectory(params, seed, walkers, entry.positions),
                                        rng.getstate())
    world.trajectory, state = walk
    rng.setstate(state)
    return world
