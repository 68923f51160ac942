"""Deterministic discrete-event kernel: unit-disk radio, random-waypoint
mobility, per-node energy accounting, and the event loops that drive the
protocol handlers in `node`.

One World is one logical timeline.  Everything random flows through seeded
generators: `rng_topo` (topology and provisioning, identical across
comparison arms for a given seed), the trajectory's `rng` (random-waypoint
draws, likewise arm-independent), `rng_keys` (shared keys of the encrypted
arm, kept apart so that drawing them leaves the other streams untouched)
and `rng` (protocol-driven draws).  Replaying the same seed and
configuration reproduces the event trace byte for byte.

The walkers of a mobile world live in a `Trajectory`, which worlds built
through one placement memo share: whichever world first reaches a tick
computes it, and the others copy its positions.

Each sender's broadcast neighbours are cached: the nodes within
`tx_range_m`, in `nodes` insertion order, built lazily by the first
broadcast and cleared by `add_node` and at every mobility tick.
Unicast range tests read the sender's cache when it is filled.

Radio deliveries wait in `_inflight`, a FIFO beside the event heap with
one entry per transmission: (arrival, seq, receivers, sender address,
message, airtime).  Every delivery lands `d_hop_s` after it was sent, the
clock never goes back and `d_hop_s` is a constant >= 0, so arrivals come due
in send order.  `seq` is drawn from the heap's counter, and `run_until`
takes whichever head has the smaller (time, seq).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, TextIO

from .config import ArmFlags, SimParams
from .messages import (
    DaoModified,
    DaoStatus,
    DioMessage,
    DisMessage,
    STATUS_LEN,
    dao_length,
    is_forged_address,
    node_address,
)
from .metrics import EnergyLedger, RunCounters
from .node import NodeRole, NodeState, TrickleState
from .puf import CRDatabase, KeyedPuf


class ScheduleInPastError(ValueError):
    pass


class SetupError(RuntimeError):
    """Topology generation could not satisfy its constraints."""


DATA_HOP_LIMIT = 64
DRAIN_S = 1.0  # lets transmissions issued right at the horizon land


def _last_multiple(period: float, horizon: float) -> int:
    """The largest k with k * period <= horizon, reading both floats as the
    decimals they print as: 3 for 1.1 and 3.3, where 3.3 / 1.1 < 3.

    A period past the horizon, inf or nan gives 0 without reading it as a
    decimal: shortest decimals keep the order of their floats, so no
    multiple fits."""
    if not period <= horizon:
        return 0
    return int(Fraction(repr(horizon)) // Fraction(repr(period)))


def _loop_end_time(period: float, horizon: float) -> float:
    """Latest time a loop at `period` fires: half a period past its last
    multiple within the horizon.  The margin keeps the last event where the
    period divides the horizon in decimal but the binary sum lands a hair
    past it.  With no multiple it is the horizon, as half of inf would not do."""
    k = _last_multiple(period, horizon)
    return (k + 0.5) * period if k else horizon


def last_loop_time(period: float, horizon: float) -> float:
    """When a loop started at 0 fires last, its times added up as a World
    adds them (one addition per event); 0.0 if it never fires."""
    end, last = _loop_end_time(period, horizon), 0.0
    while last + period <= end:
        last += period
    return last


class Event(NamedTuple):
    """Heap entry; (time, seq) is unique, so later fields never compare."""

    time: float
    seq: int
    kind: str
    node_id: str | None = None
    payload: object = None


class DataPacket:
    __slots__ = ("src_id", "src_addr", "created", "counted", "hops")

    def __init__(self, src_id: str, src_addr: bytes, created: float, counted: bool):
        self.src_id = src_id
        self.src_addr = src_addr
        self.created = created
        self.counted = counted
        self.hops = 0


@dataclass
class RwpState:
    waypoint: tuple[float, float]
    speed: float
    pause_until: float = 0.0


class Trajectory:
    """The random-waypoint walk of `walkers` from their `positions`.

    `at(k, clock)` gives each walker's (x, y) after mobility tick k, counted
    from 0, in `ids` order; it computes the tick at `clock` when no world
    has reached it yet.  Every world ticks at the same accumulated times,
    so a shared tick is computed at the clock each of them would use.
    `now` holds the latest tick.  With `keep`, `xy` also holds every tick
    so far, so that worlds sharing the walk can replay it: flat
    `array("d")` blocks of `TICKS_PER_BLOCK` ticks, x and y per walker, 16 B
    per walker per tick.  Blocks of about 30 kB fit into memory the heap
    already holds, where one growing array would raise the peak by its
    whole size.  Without `keep`, nothing older than `now` is kept.
    """

    TICKS_PER_BLOCK = 64

    def __init__(self, params: SimParams, seed: int, walkers: dict[str, RwpState],
                 positions: dict[str, tuple[float, float]], keep: bool = False):
        self.params = params
        # a stream of its own, so trajectories match across arms at equal seed
        self.rng = random.Random((seed << 16) ^ 0x30B1)
        self.walkers = walkers
        self.ids = tuple(walkers)
        self.now = [positions[node_id] for node_id in self.ids]
        self.xy: list[array] | None = [] if keep else None
        self.ticks = 0

    def at(self, k: int, clock: float):
        if k == self.ticks:
            self._step(clock)
        if k == self.ticks - 1:
            return self.now
        block, row = divmod(k, self.TICKS_PER_BLOCK)
        width = 2 * len(self.ids)
        start = row * width
        end = start + width
        xy = self.xy[block]
        return zip(xy[start:end:2], xy[start + 1:end:2])

    def _step(self, clock: float) -> None:
        p = self.params
        tick = p.mobility_tick_s
        grid = p.grid_m
        uniform = self.rng.uniform
        now = self.now
        for i, state in enumerate(self.walkers.values()):
            if clock < state.pause_until:
                continue
            x, y = now[i]
            wx, wy = state.waypoint
            dx, dy = wx - x, wy - y
            dist = math.hypot(dx, dy)
            step = state.speed * tick
            if dist <= step:
                now[i] = state.waypoint
                state.waypoint = (uniform(0, grid), uniform(0, grid))
                state.speed = uniform(p.speed_min_mps, p.speed_max_mps)
                state.pause_until = clock + p.pause_s
            else:
                # clamp into the grid; branches cost less than min/max calls
                nx = x + dx / dist * step
                if nx < 0.0:
                    nx = 0.0
                elif nx > grid:
                    nx = grid
                ny = y + dy / dist * step
                if ny < 0.0:
                    ny = 0.0
                elif ny > grid:
                    ny = grid
                now[i] = (nx, ny)
        if self.xy is not None:
            if not self.ticks % self.TICKS_PER_BLOCK:
                self.xy.append(array("d"))
            self.xy[-1].fromlist(list(chain.from_iterable(now)))
        self.ticks += 1


def _line_sink(stream: TextIO):
    """A tracer that writes one tab-separated line per event to `stream`.

    Callers build `detail` only when a tracer is attached.  The sink holds
    the stream and not the World, so the nodes that keep it make no cycle
    and a finished World is freed by reference counting.
    """
    def trace(now: float, node_id: str, event: str, detail: str) -> None:
        stream.write(f"{now:.6f}\t{node_id}\t{event}\t{detail}\n")
    return trace


class World:
    def __init__(self, params: SimParams, arm: ArmFlags, seed: int,
                 trace: TextIO | None = None):
        if not params.d_hop_s >= 0:  # also refuses nan
            raise ValueError(f"d_hop_s: must be non-negative, got {params.d_hop_s}")
        self.params = params
        self.arm = arm
        self.seed = seed
        self.rng_topo = random.Random(seed)
        self.rng = random.Random((seed << 16) ^ 0x5EED)
        self.rng_keys = random.Random((seed << 16) ^ 0x4E75)
        self.clock = 0.0
        self._queue: list[Event] = []
        self._inflight: deque[tuple] = deque()
        self._seq = 0
        self.nodes: dict[str, NodeState] = {}
        self._in_range: dict[str, dict[str, NodeState]] = {}
        self.by_addr: dict[bytes, NodeState] = {}
        self.positions: dict[str, tuple[float, float]] = {}
        self.start_times: dict[str, float] = {}
        self.trajectory: Trajectory | None = None
        self._ticks = 0  # mobility ticks this world has taken
        self.ledgers: dict[str, EnergyLedger] = {}
        self.db = CRDatabase(width=params.license_width)
        self.addr_to_id: dict[bytes, str] = {}
        self.counters = RunCounters()
        self.tracer = None if trace is None else _line_sink(trace)
        self._joined: set[str] = set()
        # time of each node's one live wake-up: its trickle fire time while
        # joined, its next DIS while not; events at other times are stale
        self._wake: dict[str, float] = {}
        # end time of each loop that runs at period, 2 * period, ...
        self._loop_end: dict[str, float] = {}
        self.ever_registered: set[str] = set()
        # airtime by message type; a DAO's size depends on its options
        self._airtime = {
            DioMessage: params.airtime_s(params.dio_bytes),
            DisMessage: params.airtime_s(params.dis_bytes),
            DaoStatus: params.airtime_s(STATUS_LEN),
            DataPacket: params.airtime_s(params.data_bytes),
        }

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: str, role: NodeRole, pos: tuple[float, float],
                 start_time: float = 0.0, rt_cap: int | None = None) -> NodeState:
        address = node_address(len(self.nodes))
        node = NodeState(node_id, address, role, self.params, rt_cap=rt_cap)
        node.encrypted = self.arm.encrypted
        node.tracer = self.tracer
        self.nodes[node_id] = node
        self._in_range.clear()
        self.by_addr[address] = node
        self.positions[node_id] = pos
        self.start_times[node_id] = start_time
        self.ledgers[node_id] = EnergyLedger()
        return node

    @property
    def mobility(self) -> tuple[str, ...]:
        """Ids of the nodes that walk, in trajectory order; empty if static."""
        return () if self.trajectory is None else self.trajectory.ids

    def provision(self, skip: set[str] | None = None) -> None:
        """Registration phase: store one pair per node, hand out licenses."""
        skip = skip or set()
        for node in self.nodes.values():
            if node.role is NodeRole.ROOT or node.node_id in skip:
                continue
            secret = hashlib.blake2b(f"{self.seed}|{node.node_id}".encode(),
                                     digest_size=16).digest()
            device = KeyedPuf(node.node_id, secret, self.params.license_width)
            _, license_bits = self.db.register(node.node_id, device, self.rng_topo)
            node.license = license_bits
            self.addr_to_id[node.address] = node.node_id
            if self.arm.encrypted:
                key = self.rng_keys.randbytes(self.params.shared_key_bytes)
                self.db.keys[node.node_id] = key
                node.shared_key = key

    # -- event queue -------------------------------------------------------

    def schedule(self, time: float, kind: str, node_id: str | None = None,
                 payload=None) -> None:
        if time < self.clock:
            raise ScheduleInPastError(f"cannot schedule at {time} (clock {self.clock})")
        heapq.heappush(self._queue, Event(time, self._seq, kind, node_id, payload))
        self._seq += 1

    def run_until(self, t_end: float) -> None:
        if t_end < self.clock:
            raise ValueError("t_end before current clock")
        queue, inflight = self._queue, self._inflight
        receive, dispatch = self._receive, self._dispatch
        while True:
            if inflight and (not queue or inflight[0] < queue[0]):
                if inflight[0][0] > t_end:
                    break
                self.clock, _, receivers, sender_addr, message, airtime = (
                    inflight.popleft())
                for node in receivers:
                    receive(node, sender_addr, message, airtime)
            elif queue and queue[0].time <= t_end:
                event = heapq.heappop(queue)
                self.clock = event.time
                dispatch(event)
            else:
                break
        self.clock = t_end

    def run(self) -> RunCounters:
        self._schedule_initial()
        self.run_until(self.params.duration_s + DRAIN_S)
        self._finalize()
        return self.counters

    def _reschedule(self, time: float, kind: str,
                    node_id: str | None = None) -> None:
        """Queue a periodic loop's next event unless it falls past the
        loop's end: its `_loop_end`, or else the horizon.  After the horizon
        `run` only drains radio deliveries."""
        if time <= self._loop_end.get(kind, self.params.duration_s):
            self.schedule(time, kind, node_id)

    def _schedule_initial(self) -> None:
        """Queue the start events, then the first event of each periodic
        loop; every loop's handler schedules its own next event."""
        p = self.params
        for node_id, t0 in self.start_times.items():
            self.schedule(t0, "start", node_id)
        loops = {"data": p.data_period_s, "rt_sample": p.rt_sample_period_s}
        if self.mobility:
            loops["mobility"] = p.mobility_tick_s
        for kind, period in loops.items():
            self._loop_end[kind] = _loop_end_time(period, p.duration_s)
        for node in self.nodes.values():
            if node.role is NodeRole.CLIENT:
                self._reschedule(p.data_period_s, "data", node.node_id)
        self._reschedule(p.rt_sample_period_s, "rt_sample")
        if self.mobility:
            self._reschedule(p.mobility_tick_s, "mobility")

    # -- radio -------------------------------------------------------------

    def _distance(self, a: str, b: str) -> float:
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    def _neighbours(self, sender: NodeState) -> dict[str, NodeState]:
        """Nodes within radio range of `sender` by id, in `nodes` order."""
        near = self._in_range.get(sender.node_id)
        if near is None:
            near = {other_id: other for other_id, other in self.nodes.items()
                    if other is not sender
                    and self._distance(sender.node_id, other_id)
                    <= self.params.tx_range_m}
            self._in_range[sender.node_id] = near
        return near

    def transmit(self, sender: NodeState, dest: bytes | None, message) -> None:
        p = self.params
        kind = type(message)
        airtime = self._airtime.get(kind)
        if airtime is None:
            airtime = p.airtime_s(dao_length(message))
        self.ledgers[sender.node_id].tx_s += airtime
        counters = self.counters
        if kind is DataPacket:
            counters.data_transmissions += 1
        else:
            counters.control_transmissions += 1
            if kind is DaoModified or kind is DaoStatus:
                counters.dao_path_transmissions += 1
        if dest is None:
            receivers = []
            for other in self._neighbours(sender).values():
                if self.clock < self.start_times[other.node_id]:
                    continue
                if self.rng.random() < p.loss_prob:
                    self.counters.link_losses += 1
                    continue
                receivers.append(other)
            if receivers:
                self._inflight.append((self.clock + p.d_hop_s, self._seq, receivers,
                                       sender.address, message, airtime))
                self._seq += 1
            return
        receiver = self.by_addr.get(dest)
        if receiver is None or self.clock < self.start_times[receiver.node_id]:
            self.counters.link_losses += 1
            return
        near = self._in_range.get(sender.node_id)
        if near is None or receiver is sender:  # the cache excludes the sender
            out_of_range = (self._distance(sender.node_id, receiver.node_id)
                            > p.tx_range_m)
        else:
            out_of_range = receiver.node_id not in near
        if out_of_range or self.rng.random() < p.loss_prob:
            self.counters.link_losses += 1
            return
        self._inflight.append((self.clock + p.d_hop_s, self._seq, (receiver,),
                               sender.address, message, airtime))
        self._seq += 1

    def _send_all(self, node: NodeState, outgoing: list) -> None:
        for dest, message in outgoing:
            self.transmit(node, dest, message)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        handler = getattr(self, f"_on_{event.kind}")
        handler(event)

    def _on_start(self, event: Event) -> None:
        node = self.nodes[event.node_id]
        if node.role is NodeRole.ROOT:
            node.trickle = TrickleState.start(self.params, self.rng, self.clock)
            self._joined.add(node.node_id)
        self._wake_at(node, node.trickle.t_fire if node.joined else self.clock)

    def _receive(self, node: NodeState, sender_addr: bytes, message,
                 airtime: float) -> None:
        ledger = self.ledgers[node.node_id]
        ledger.rx_s += airtime
        ledger.cpu_s += self.params.cpu_per_packet_s
        now = self.clock
        kind = type(message)

        if kind is DataPacket:
            self._handle_data(node, message)
            return
        if kind is DisMessage:
            self._send_all(node, node.handle_dis(message, now))
            return
        if kind is DioMessage:
            out = node.handle_dio(message, now, self.rng)
            self._send_all(node, out)
            self._after_protocol_step(node)
            return
        if kind is DaoModified:
            if node.role is NodeRole.ROOT:
                out = node.root_handle_dao(message, sender_addr, now, self.db,
                                           self.addr_to_id, self.arm.defense)
                self._record_root_decision(message, out)
                self._send_all(node, out)
            else:
                self._send_all(node, node.handle_dao(message, sender_addr, now))
            return
        if kind is DaoStatus:
            joined = node.joined
            out = node.handle_status(message, now)
            if message.originator == node.address and message.is_ack:
                self.ever_registered.add(node.node_id)
            self._send_all(node, out)
            if joined and not node.joined:
                # detached: solicit at once, like a node that never joined
                self._wake_at(node, now)

    def _record_root_decision(self, dao: DaoModified, out: list) -> None:
        accepted = bool(out) and out[0][1].is_ack
        if is_forged_address(dao.src):
            if accepted:
                self.counters.forged_acked += 1
            else:
                self.counters.forged_nacked += 1
        else:
            if accepted:
                self.counters.genuine_acked += 1
            else:
                self.counters.genuine_nacked += 1

    def _after_protocol_step(self, node: NodeState) -> None:
        if node.trickle is not None:
            self._wake_at(node, node.trickle.t_fire)
        if node.joined and node.node_id not in self._joined:
            self._joined.add(node.node_id)
            if node.role is NodeRole.MALICIOUS:
                if self.arm.attack:
                    self.schedule(self.clock, "volley", node.node_id)
                self._reschedule(self.clock + self.params.attacker_self_dao_delay_s,
                                 "dao_refresh", node.node_id)
            else:
                self._reschedule(self.clock + self.params.dao_period_s,
                                 "dao_refresh", node.node_id)

    def _wake_at(self, node: NodeState, t: float) -> None:
        """Move the node's one wake-up to `t`, or drop it past the horizon."""
        if t > self.params.duration_s:
            self._wake.pop(node.node_id, None)
        elif self._wake.get(node.node_id) != t:
            self._wake[node.node_id] = t
            self.schedule(t, "wake", node.node_id)

    def _on_wake(self, event: Event) -> None:
        """Fire the trickle timer of a joined node; solicit with a DIS
        while the node has not joined."""
        if self._wake.get(event.node_id) != event.time:
            return  # stale: the wake-up has moved since
        del self._wake[event.node_id]
        node = self.nodes[event.node_id]
        if node.joined:
            self._send_all(node, node.trickle_fire(self.clock, self.rng))
            self._wake_at(node, node.trickle.t_fire)
            return
        if self.tracer is not None:
            self.tracer(self.clock, node.node_id, "DIS_TX", "soliciting")
        self.transmit(node, None, DisMessage(sender=node.address))
        self._wake_at(node, self.clock + self.params.dis_period_s)

    def _on_dao_refresh(self, event: Event) -> None:
        node = self.nodes[event.node_id]
        self._send_all(node, node.build_own_dao(self.clock, self.rng))
        self._reschedule(self.clock + self.params.dao_period_s, "dao_refresh",
                         node.node_id)

    def _on_volley(self, event: Event) -> None:
        node = self.nodes[event.node_id]
        self._send_all(node, node.emit_forged(self.clock, self.rng))
        self._reschedule(self.clock + self.params.attack_period_s, "volley",
                         node.node_id)

    def _on_data(self, event: Event) -> None:
        node = self.nodes[event.node_id]
        self._reschedule(self.clock + self.params.data_period_s, "data",
                         node.node_id)
        counted = self.clock > self.params.data_warmup_s
        if counted:
            self.counters.sent_per_node[node.node_id] = (
                self.counters.sent_per_node.get(node.node_id, 0) + 1)
        if node.parent is None:
            return  # orphan: packet lost at the source
        packet = DataPacket(node.node_id, node.address, self.clock, counted)
        if self.tracer is not None:
            self.tracer(self.clock, node.node_id, "DATA_TX", f"counted={counted}")
        self.transmit(node, node.parent, packet)

    def _handle_data(self, node: NodeState, packet: DataPacket) -> None:
        if node.role is NodeRole.ROOT:
            # the sink only accepts traffic from sources it holds a
            # registered downward route for
            node._purge_expired(self.clock)
            if packet.src_addr not in node.routing:
                self.counters.root_admission_drops += 1
                return
            if self.tracer is not None:
                self.tracer(self.clock, node.node_id, "DATA_RX",
                            f"from {packet.src_id}")
            if packet.counted:
                self.counters.received_at_root += 1
                self.counters.delays.append(self.clock - packet.created)
            return
        packet.hops += 1
        if packet.hops > DATA_HOP_LIMIT or node.parent is None:
            return
        self.transmit(node, node.parent, packet)

    def _on_rt_sample(self, event: Event) -> None:
        self._reschedule(self.clock + self.params.rt_sample_period_s, "rt_sample")
        occ = max((n.rt_occupancy(self.clock) for n in self.nodes.values()
                   if n.role is not NodeRole.ROOT), default=0)
        if occ > self.counters.rt_peak:
            self.counters.rt_peak = occ

    def _on_mobility(self, event: Event) -> None:
        self._reschedule(self.clock + self.params.mobility_tick_s, "mobility")
        self._in_range.clear()
        trajectory = self.trajectory
        self.positions.update(zip(trajectory.ids,
                                  trajectory.at(self._ticks, self.clock)))
        self._ticks += 1

    # -- teardown ----------------------------------------------------------

    def _finalize(self) -> None:
        c = self.counters
        c.ledgers = self.ledgers
        c.client_ids = [n.node_id for n in self.nodes.values()
                        if n.role is NodeRole.CLIENT]
        c.n_blacklisted = sum(len(n.blacklist) for n in self.nodes.values()
                              if n.role is not NodeRole.ROOT)

    # -- debugging ---------------------------------------------------------

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.clock:.9f}".encode())
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            x, y = self.positions[node_id]
            h.update(node_id.encode())
            h.update(f"|{node.rank}|{node.parent.hex() if node.parent else '-'}"
                     f"|{len(node.blacklist)}|{node.dao_seq}|{x:.6f},{y:.6f}".encode())
            for target in sorted(node.routing):
                entry = node.routing[target]
                h.update(target.hex().encode())
                h.update(entry.next_hop.hex().encode())
            for addr in sorted(node.blacklist):
                h.update(addr.hex().encode())
        c = self.counters
        h.update(f"{c.total_sent()}|{c.received_at_root}|{c.control_transmissions}"
                 f"|{c.data_transmissions}|{c.link_losses}".encode())
        return h.hexdigest()


# -- topology generation ----------------------------------------------------


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


def _search(rng: random.Random, params: SimParams, seed: int,
            client_ids: list[str], attacker_ids: list[str],
            max_tries: int) -> dict[str, tuple[float, float]]:
    """Draw uniform placements from `rng` until one is connected, puts every
    attacker at depth >= 2 and overloads no router; returns its positions."""
    uniform = rng.uniform
    grid = params.grid_m
    half = grid / 2
    rejected = {"disconnected": 0, "attacker too shallow": 0,
                "subtree overload": 0}
    for _ in range(max_tries):
        positions = {"root": (half, half)}
        for node_id in client_ids:
            positions[node_id] = (uniform(0, grid), uniform(0, grid))
        for node_id in attacker_ids:
            positions[node_id] = (uniform(0, grid), uniform(0, grid))
        ok, depth = _connected(positions, params.tx_range_m, "root")
        if not ok:
            rejected["disconnected"] += 1
            continue
        if any(depth[node_id] < 2 for node_id in attacker_ids):
            rejected["attacker too shallow"] += 1
            continue
        if _max_subtree_load(positions, depth, params.tx_range_m,
                             "root") > params.rt_cap - 4:
            rejected["subtree overload"] += 1
            continue
        return positions
    counts = ", ".join(f"{reason} {n}" for reason, n in rejected.items())
    raise SetupError(
        f"seed {seed}: no connected topology after {max_tries} tries ({counts})")


@dataclass
class _Placement:
    """A memo entry: an accepted placement, where `rng_topo` stood right
    after it, and the walk that mobile worlds built on it share."""

    positions: dict
    rng_state: tuple
    trajectory: Trajectory | None = None


def build_random_world(params: SimParams, arm: ArmFlags, seed: int,
                       n_clients: int = 29, n_attackers: int = 1,
                       mobility: bool = False, trace: TextIO | None = None,
                       max_tries: int = 200,
                       placements: dict | None = None) -> World:
    """Uniform placement, root at the grid center, attackers at depth >= 2.

    Positions, start times and provisioning draw only from the topology
    generator, so every arm sees the same network for a given seed.

    `placements` is a memo the caller owns, keyed by every input the search
    and the walk read.  A hit skips the search: it reuses the accepted
    positions and restores `rng_topo` to its state right after the accepted
    try, so every later draw is the one a fresh search would have led to.
    A miss searches and stores both; a failed search stores nothing.  Mobile
    worlds built on one entry share its trajectory, which keeps every tick
    for as long as the entry lives; a world built without a memo keeps only
    its latest tick.
    """
    world = World(params, arm, seed, trace=trace)
    rng = world.rng_topo
    client_ids = [f"c{i + 1:02d}" for i in range(n_clients)]
    attacker_ids = [f"m{i + 1:02d}" for i in range(n_attackers)]
    # license_width sets how many draws provisioning takes from rng_topo,
    # and so the walkers' first waypoints
    key = (seed, params.grid_m, params.tx_range_m, params.rt_cap,
           n_clients, n_attackers, max_tries, params.license_width,
           params.mobility_tick_s, params.speed_min_mps, params.speed_max_mps,
           params.pause_s)
    entry = None if placements is None else placements.get(key)
    if entry is None:
        positions = _search(rng, params, seed, client_ids, attacker_ids, max_tries)
        if placements is not None:
            entry = placements[key] = _Placement(positions, rng.getstate())
    else:
        positions = entry.positions
        rng.setstate(entry.rng_state)

    uniform = rng.uniform
    world.add_node("root", NodeRole.ROOT, positions["root"], start_time=0.0)
    for node_id in client_ids:
        world.add_node(node_id, NodeRole.CLIENT, positions[node_id],
                       start_time=uniform(0.0, params.startup_stagger_s))
    for node_id in attacker_ids:
        world.add_node(node_id, NodeRole.MALICIOUS, positions[node_id],
                       start_time=uniform(0.0, params.attacker_start_window_s))
    world.provision()

    if mobility:
        # every world draws the first waypoints, so rng_topo ends where it would
        walkers = {}
        for node in world.nodes.values():
            if node.role is NodeRole.ROOT:
                continue  # the sink stays where it is deployed
            walkers[node.node_id] = RwpState(
                waypoint=(rng.uniform(0, params.grid_m), rng.uniform(0, params.grid_m)),
                speed=rng.uniform(params.speed_min_mps, params.speed_max_mps))
        if entry is None:
            world.trajectory = Trajectory(params, seed, walkers, positions)
        elif entry.trajectory is None:
            world.trajectory = entry.trajectory = Trajectory(
                params, seed, walkers, positions, keep=True)
        else:
            world.trajectory = entry.trajectory
    return world
