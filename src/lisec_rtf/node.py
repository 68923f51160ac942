"""Per-node RPL state machine: joining, ranks, trickle, storing-mode DAO
handling, the forged-DAO attacker, and the license check at the root.

Handlers take `now`, the simulated time in whole microseconds, mutate the
node and return a list of (destination, message) pairs for the engine to
transmit; destination None means broadcast.  Nothing here touches the
event queue or the radio, which keeps every operation unit testable in
isolation.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .config import US, SimParams
from .messages import (
    DaoModified,
    DaoStatus,
    DioMessage,
    DisMessage,
    STATUS_ACK,
    STATUS_NACK,
    encode_dao,
    forged_address,
    format_address,
)
from .puf import NONCE_LEN, CRDatabase, encrypt_license, license_blob_len


class NodeRole(enum.Enum):
    ROOT = "root"
    CLIENT = "client"
    MALICIOUS = "malicious"


# bound once: on Python 3.10 and 3.11 every `NodeRole.X` load runs the enum
# metaclass's `__getattr__`, four to eight times the cost of a module global
ROOT, CLIENT, MALICIOUS = NodeRole.ROOT, NodeRole.CLIENT, NodeRole.MALICIOUS

# RFC 6550: ROOT_RANK, the default MinHopRankIncrease and INFINITE_RANK
ROOT_RANK = 256
MIN_HOP_RANK_INCREASE = 256
INFINITE_RANK = 0xFFFF


def compute_rank(advertised: int) -> int:
    """Hop-count rank: a parent's advertised rank plus one hop, saturating."""
    return min(advertised + MIN_HOP_RANK_INCREASE, INFINITE_RANK)


@dataclass
class TrickleState:
    """RFC 6206 timer: intervals in seconds, the fire time `t_fire` in µs."""

    i_min: float
    cap: float
    k: int
    interval: float
    t_fire: int
    counter: int = 0

    @classmethod
    def start(cls, params: SimParams, rng: random.Random, now: int) -> "TrickleState":
        t = cls(i_min=params.trickle_imin_s, cap=params.trickle_cap_s(),
                k=params.trickle_k, interval=params.trickle_imin_s, t_fire=0)
        t.redraw(rng, now)
        return t

    def redraw(self, rng: random.Random, now: int) -> None:
        self.t_fire = now + round(rng.uniform(self.interval / 2, self.interval) * US)

    def step(self, rng: random.Random, now: int) -> bool:
        """Advance one round at the scheduled fire time; True means transmit."""
        fired = self.counter < self.k
        self.interval = min(2 * self.interval, self.cap)
        self.counter = 0
        self.redraw(rng, now)
        return fired

    def reset(self, rng: random.Random, now: int) -> None:
        self.interval = self.i_min
        self.counter = 0
        self.redraw(rng, now)


@dataclass
class RoutingEntry:
    next_hop: bytes
    expires_at: float = math.inf  # µs; inf never expires


class NodeState:
    """One sensor node (or the border router); `now` is in whole µs."""

    def __init__(self, node_id: str, address: bytes, role: NodeRole, params: SimParams):
        self.node_id = node_id
        self.address = address
        self.role = role
        self.params = params
        if role is ROOT:
            self.rt_cap = params.root_rt_cap if params.root_rt_cap > 0 else None
        else:
            self.rt_cap = params.rt_cap
        self.route_lifetime = params.us["route_lifetime_s"]

        self.rank: int | None = ROOT_RANK if role is ROOT else None
        self.parent: bytes | None = None
        self.routing: dict[bytes, RoutingEntry] = {}
        self.rt_peak = 0  # largest size `routing` has reached
        self.blacklist: set[bytes] = set()  # only grows
        self.trickle: TrickleState | None = None
        self.wake: int | None = None  # µs of the live wake-up; others are stale
        self.joined_at: int | None = None  # µs of the first join: DAO loops start

        self.license = 0
        self.shared_key: bytes | None = None
        self.dao_seq = 0
        self.registered = False  # has taken its own ACK; never cleared
        self.tracer = None  # callers test it first, so no detail is built untraced

    # -- plumbing ---------------------------------------------------------

    def _drop_expired(self, table: dict, now: int) -> dict:
        for target in [t for t, e in table.items() if e.expires_at <= now]:
            del table[target]
        return table

    def routes(self, now: int) -> dict[bytes, RoutingEntry]:
        """The routing table, once every route expired by `now` is dropped;
        the handlers here skip the call when no route can expire."""
        return self._drop_expired(self.routing, now) if self.route_lifetime else self.routing

    def live_routes(self, now: int) -> dict[bytes, RoutingEntry]:
        """What `routes(now)` would keep, as a new dict; the table stays."""
        return self._drop_expired(dict(self.routing), now)

    def add_route(self, target: bytes, next_hop: bytes, now: int) -> bool:
        """Install or refresh a downward route; True if the table now holds it."""
        if target in self.blacklist or next_hop in self.blacklist:
            return False
        routing = self.routes(now) if self.route_lifetime else self.routing
        expires = now + self.route_lifetime if self.route_lifetime > 0 else math.inf
        entry = routing.get(target)
        if entry is not None:
            entry.next_hop = next_hop
            entry.expires_at = expires
            return True
        if self.rt_cap is not None and len(routing) >= self.rt_cap:
            if self.tracer is not None:
                self.tracer(now, self.node_id, "ROUTE_FULL", format_address(target))
            return False
        routing[target] = RoutingEntry(next_hop, expires)
        self.rt_peak = max(self.rt_peak, len(routing))
        if self.tracer is not None:
            self.tracer(now, self.node_id, "ROUTE_ADD",
                        f"{format_address(target)} via {format_address(next_hop)}")
        return True

    # -- control plane ----------------------------------------------------

    def handle_dis(self, dis: DisMessage, now: int) -> list:
        if self.rank is None:
            return []
        if self.tracer is not None:
            self.tracer(now, self.node_id, "DIO_TX", f"rank={self.rank} (solicited)")
        return [(None, self._dio())]

    def _dio(self) -> DioMessage:
        return DioMessage(sender=self.address, rank=self.rank)

    def handle_dio(self, dio: DioMessage, now: int, rng: random.Random) -> list:
        sender = dio.sender
        if sender in self.blacklist or self.role is ROOT:
            return []

        candidate = compute_rank(dio.rank)
        if sender == self.parent:  # never true before joining
            if candidate != self.rank:
                self.rank = candidate
                self.trickle.reset(rng, now)
            else:
                self.trickle.counter += 1
            return []
        if self.rank is not None and candidate + self.params.hysteresis >= self.rank:
            self.trickle.counter += 1
            return []

        # join, or switch to a parent that is better by the hysteresis; a
        # fresh trickle makes the same single draw as a reset
        self.parent = sender
        self.rank = candidate
        self.trickle = TrickleState.start(self.params, rng, now)
        if self.role is MALICIOUS:
            return []  # lies low; registers only after its first volley
        return self.build_own_dao(now, rng)

    def trickle_fire(self, now: int, rng: random.Random) -> list:
        if self.trickle is None:
            return []
        fired = self.trickle.step(rng, now)
        if not fired:
            return []
        if self.tracer is not None:
            self.tracer(now, self.node_id, "DIO_TX", f"rank={self.rank}")
        return [(None, self._dio())]

    # -- DAO path ---------------------------------------------------------

    def _dao(self, src: bytes, reserved: int, options: bytes, now: int) -> tuple:
        """Number, trace and address a DAO registering `src`, own or forged."""
        self.dao_seq = (self.dao_seq + 1) % 256
        dao = DaoModified(src=src, target=src, sequence=self.dao_seq,
                          reserved=reserved, options=options)
        if self.tracer is not None:
            head = f"seq={self.dao_seq}" if src == self.address else "forged"
            self.tracer(now, self.node_id, "DAO_TX",
                        f"{head} frame={encode_dao(dao).hex()}")
        return self.parent, dao

    def build_own_dao(self, now: int, rng: random.Random) -> list:
        """Register (or refresh) this node at the root through its parent."""
        if self.parent is None:
            return []
        # without a key the license is the reserved octet; a node never
        # provisioned holds neither, sends license 0, and the root refuses it
        if self.shared_key is None:
            return [self._dao(self.address, self.license, b"", now)]
        options = encrypt_license(self.shared_key, self.license, rng.randbytes(NONCE_LEN),
                                  self.params.license_width)
        return [self._dao(self.address, 0, options, now)]

    def emit_forged(self, now: int, rng: random.Random) -> list:
        """One attack volley: forged registrations for nonexistent children.
        Each license field follows the key the node holds, as in its own
        DAO: random options of a license blob's length, else a random octet."""
        if self.role is not MALICIOUS or self.parent is None:
            return []
        out = []
        n = license_blob_len(self.params.license_width)
        for _ in range(self.params.forged_per_period):
            fake = forged_address(rng)  # drawn before its license field
            reserved, options = ((rng.randrange(256), b"") if self.shared_key is None
                                 else (0, rng.randbytes(n)))
            out.append(self._dao(fake, reserved, options, now))
        return out

    def handle_dao(self, dao: DaoModified, sender: bytes, now: int) -> list:
        """Storing-mode relay: install the advertised route, forward upward.

        A DAO from this node's own parent can only come round a parent
        cycle; it is dropped, so no DAO circulates."""
        src = dao.src
        if src in self.blacklist or sender == self.parent:
            return []
        self.add_route(dao.target, sender, now)
        if self.parent is None:
            return []
        if self.tracer is not None:
            self.tracer(now, self.node_id, "DAO_FWD",
                        f"{format_address(src)} frame={encode_dao(dao).hex()}")
        return [(self.parent, dao)]

    def root_handle_dao(self, dao: DaoModified, sender: bytes, now: int,
                        db: CRDatabase | None = None) -> list:
        """Border-router check: ACK or NACK the DAO by the license table
        `db`, or take every DAO when there is none (no defense).

        A registration is only acknowledged once its downward route is
        actually stored; a full table means the node cannot be registered
        and is refused like any other bad DAO.
        """
        src = dao.src
        accepted = ((db is None or db.admits(src, dao.reserved, dao.options))
                    and self.add_route(dao.target, sender, now))
        status = DaoStatus(originator=src,
                           status=STATUS_ACK if accepted else STATUS_NACK)
        if self.tracer is not None:
            self.tracer(now, self.node_id, "ACK" if accepted else "NACK",
                        format_address(src))
        return [(sender, status)]

    def handle_status(self, st: DaoStatus, now: int) -> list:
        """Consume our own ACK/NACK or relay it one hop further down."""
        ack, originator = st.status == STATUS_ACK, st.originator
        if originator == self.address:
            self.registered |= ack
            if self.tracer is not None:
                self.tracer(now, self.node_id, "ACK" if ack else "NACK",
                            "registered" if ack else "registration rejected")
            return []

        entry = (self.routes(now) if self.route_lifetime else self.routing).get(originator)
        out = [(entry.next_hop, st)] if entry is not None else []
        if not ack:
            # forward first, then blacklist the rejected source and scrub
            # it from the routing table
            self.routing.pop(originator, None)
            if originator not in self.blacklist:
                self.blacklist.add(originator)
                if self.tracer is not None:
                    self.tracer(now, self.node_id, "BLACKLIST",
                                format_address(originator))
            if self.parent == originator:
                # detach: a node without a parent advertises no rank
                self.parent = self.rank = self.trickle = None
        return out
