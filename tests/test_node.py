"""Unit behavior of the node state machine: ranks, trickle, DAO handling."""

import random
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from lisec_rtf.config import MAX_FRAME, US, ScenarioError, SimParams
from lisec_rtf.messages import (
    DaoModified,
    DaoStatus,
    DioMessage,
    DisMessage,
    STATUS_ACK,
    STATUS_NACK,
    dao_length,
    encode_dao,
    forged_address,
    is_forged_address,
    node_address,
)
from lisec_rtf.node import (
    MIN_HOP_RANK_INCREASE,
    ROOT_RANK,
    NodeRole,
    NodeState,
    TrickleState,
    compute_rank,
)
from lisec_rtf.puf import CRDatabase, encrypt_license, license_blob_len


P = SimParams()
ROOT_ADDR = node_address(0)


def make_node(idx=1, role=NodeRole.CLIENT, params=P):
    return NodeState(f"n{idx:02d}", node_address(idx), role, params)


def make_root(params=P):
    return NodeState("root", ROOT_ADDR, NodeRole.ROOT, params)


def join(node, parent_addr=ROOT_ADDR, parent_rank=ROOT_RANK, now=0.0, seed=1):
    dio = DioMessage(sender=parent_addr, rank=parent_rank)
    return node.handle_dio(dio, now, random.Random(seed))


# -- rank ---------------------------------------------------------------


def test_compute_rank_root_child():
    assert compute_rank(256) == 512


def test_compute_rank_chain():
    ranks = [ROOT_RANK]
    for _ in range(3):
        ranks.append(compute_rank(ranks[-1]))
    assert ranks == [256, 512, 768, 1024]


def test_compute_rank_saturates():
    assert compute_rank(0xFFFF) == 0xFFFF


# -- trickle ------------------------------------------------------------


def test_trickle_fires_below_redundancy():
    t = TrickleState(i_min=4, cap=1024, k=1, interval=4, t_fire=4, counter=0)
    assert t.step(random.Random(0), 4.0)


def test_trickle_suppressed_at_redundancy():
    t = TrickleState(i_min=4, cap=1024, k=1, interval=4, t_fire=4, counter=1)
    assert not t.step(random.Random(0), 4.0)


def test_trickle_quiet_doubling_sequence():
    rng = random.Random(3)
    t = TrickleState.start(P, rng, 0.0)
    seen = [t.interval]
    for _ in range(4):
        t.step(rng, t.t_fire)
        seen.append(t.interval)
    assert seen == [4, 8, 16, 32, 64]


def test_trickle_interval_caps():
    rng = random.Random(3)
    t = TrickleState(i_min=4, cap=64, k=3, interval=64, t_fire=64)
    t.step(rng, 64.0)
    assert t.interval == 64


def test_trickle_reset_returns_to_imin():
    rng = random.Random(3)
    t = TrickleState.start(P, rng, 0.0)
    for _ in range(5):
        t.step(rng, t.t_fire)
    t.reset(rng, 100 * US)
    assert t.interval == P.trickle_imin_s
    t.reset(rng, 100 * US)
    assert t.interval == P.trickle_imin_s  # idempotent on the interval
    assert 102 * US <= t.t_fire <= 104 * US


# -- DIS / DIO ----------------------------------------------------------


def test_root_answers_dis_with_min_rank():
    root = make_root()
    out = root.handle_dis(DisMessage(), 1.0)
    assert len(out) == 1
    dest, dio = out[0]
    assert dest is None and dio.rank == ROOT_RANK


def test_unjoined_node_ignores_dis():
    node = make_node()
    assert node.handle_dis(DisMessage(), 1.0) == []


def test_joined_node_advertises_its_rank():
    node = make_node()
    join(node, parent_rank=ROOT_RANK)
    assert node.rank == 512
    out = node.handle_dis(DisMessage(), 5.0)
    assert out[0][1].rank == 512


def test_first_dio_joins_and_emits_dao():
    node = make_node()
    out = join(node)
    assert node.parent == ROOT_ADDR
    assert node.rank == ROOT_RANK + MIN_HOP_RANK_INCREASE
    assert len(out) == 1
    dest, dao = out[0]
    assert dest == ROOT_ADDR
    assert dao.src == node.address and dao.target == node.address


def test_worse_dio_does_not_switch():
    node = make_node()
    join(node, parent_rank=256)
    before = (node.parent, node.rank)
    out = node.handle_dio(
        DioMessage(sender=node_address(7), rank=512),
        1.0, random.Random(2))
    assert out == []
    assert (node.parent, node.rank) == before


@pytest.mark.parametrize("hysteresis, hops, switches", [
    (0, 1, True), (255, 1, True), (256, 2, True), (256, 1, False)])
def test_better_dio_beyond_hysteresis_switches(hysteresis, hops, switches):
    # ranks move in whole hops, so a margin acts as a number of hops
    node = make_node(params=SimParams(hysteresis=hysteresis))
    join(node, parent_addr=node_address(5), parent_rank=768)  # path rank 1024
    closer = 1024 - (hops + 1) * MIN_HOP_RANK_INCREASE
    out = node.handle_dio(
        DioMessage(sender=node_address(6), rank=closer),
        2.0, random.Random(2))
    if not switches:
        assert out == []
        assert (node.parent, node.rank) == (node_address(5), 1024)
        return
    assert node.parent == node_address(6)
    assert node.rank == closer + MIN_HOP_RANK_INCREASE
    assert len(out) == 1  # parent change refires the registration DAO
    assert node.trickle.interval == P.trickle_imin_s  # reset on inconsistency


def test_dio_from_blacklisted_sender_ignored():
    node = make_node()
    node.blacklist.add(node_address(7))
    out = node.handle_dio(
        DioMessage(sender=node_address(7), rank=256),
        1.0, random.Random(2))
    assert out == [] and node.rank is None


# -- own DAO ------------------------------------------------------------


def test_own_dao_carries_license_in_reserved():
    node = make_node()
    node.license = 0b11000000
    join(node)
    out = node.build_own_dao(1.0, random.Random(1))
    assert out[0][1].reserved == 0xC0


def test_orphan_emits_no_dao():
    node = make_node()
    assert node.build_own_dao(1.0, random.Random(1)) == []


def test_dao_sequence_increments():
    node = make_node()
    join(node)
    s1 = node.build_own_dao(1.0, random.Random(1))[0][1].sequence
    s2 = node.build_own_dao(2.0, random.Random(1))[0][1].sequence
    assert s2 == (s1 + 1) % 256


# -- storing-mode relay -------------------------------------------------


def relay_setup():
    """Parent b with a route toward the root, child d below it."""
    b = make_node(2)
    join(b)
    d_addr = node_address(3)
    return b, d_addr


def test_relay_installs_route_and_forwards():
    b, d_addr = relay_setup()
    fake = bytes([0xFE]) + b"\x00" * 15
    dao = DaoModified(src=fake, target=fake, sequence=1, reserved=0x55)
    out = b.handle_dao(dao, d_addr, 3.0)
    assert b.routing[fake].next_hop == d_addr
    assert out == [(ROOT_ADDR, dao)]


def test_relay_full_table_blocks_install_but_forwards():
    b, d_addr = relay_setup()
    b.rt_cap = 16
    for i in range(16):
        fake = bytes([0xFE, i]) + b"\x00" * 14
        b.handle_dao(DaoModified(src=fake, target=fake, sequence=i, reserved=0), d_addr, 3.0)
    assert len(b.routing) == 16
    legit = DaoModified(src=node_address(8), target=node_address(8), sequence=9, reserved=1)
    out = b.handle_dao(legit, d_addr, 4.0)
    assert node_address(8) not in b.routing      # blocked by the overflow
    assert out == [(ROOT_ADDR, legit)]           # still forwarded upward
    assert len(b.routing) == 16


def test_nack_blacklists_and_purges():
    b, d_addr = relay_setup()
    dao = DaoModified(src=d_addr, target=d_addr, sequence=1, reserved=0x55)
    b.handle_dao(dao, d_addr, 3.0)
    assert d_addr in b.routing
    nack = DaoStatus(originator=d_addr, status=STATUS_NACK)
    out = b.handle_status(nack, 3.1)
    assert out == [(d_addr, nack)]               # forwarded down first
    assert d_addr not in b.routing
    assert d_addr in b.blacklist
    assert len(b.blacklist) == 1


def test_blacklist_exclusion_no_route_after_nack():
    b, d_addr = relay_setup()
    dao = DaoModified(src=d_addr, target=d_addr, sequence=1, reserved=0x55)
    b.handle_dao(dao, d_addr, 3.0)
    b.handle_status(DaoStatus(originator=d_addr, status=STATUS_NACK), 3.1)
    out = b.handle_dao(dao, d_addr, 4.0)
    assert d_addr not in b.routing
    assert out == []                             # dropped, not relayed


def test_dao_relayed_by_blacklisted_neighbour_installs_no_route():
    b, d_addr = relay_setup()
    b.handle_status(DaoStatus(originator=d_addr, status=STATUS_NACK), 3.1)
    genuine = node_address(4)
    dao = DaoModified(src=genuine, target=genuine, sequence=1, reserved=0x55)
    out = b.handle_dao(dao, d_addr, 4.0)
    assert genuine not in b.routing
    assert out == [(ROOT_ADDR, dao)]             # the source is not refused


def test_ack_relay_follows_routing_entry():
    b, d_addr = relay_setup()
    dao = DaoModified(src=d_addr, target=d_addr, sequence=1, reserved=0x55)
    b.handle_dao(dao, d_addr, 3.0)
    ack = DaoStatus(originator=d_addr, status=STATUS_ACK)
    assert b.handle_status(ack, 3.1) == [(d_addr, ack)]


@pytest.mark.parametrize("status, registered",
                         [(STATUS_ACK, True), (STATUS_NACK, False)])
def test_own_ack_registers_and_nothing_clears_it(status, registered):
    b, d_addr = relay_setup()
    b.handle_status(DaoStatus(originator=d_addr, status=STATUS_ACK), 3.1)  # relayed
    assert not b.registered
    b.handle_status(DaoStatus(originator=b.address, status=status), 3.2)
    assert b.registered == registered
    b.handle_status(DaoStatus(originator=b.address, status=STATUS_NACK), 3.3)
    assert b.registered == registered


def test_status_for_unknown_target_dropped():
    b, _ = relay_setup()
    ack = DaoStatus(originator=node_address(40), status=STATUS_ACK)
    assert b.handle_status(ack, 3.1) == []


def test_add_route_tells_whether_the_table_holds_the_route():
    n = make_node(params=SimParams(route_lifetime_s=10.0))
    n.rt_cap = 2
    a, c, d = node_address(2), node_address(3), node_address(4)
    assert n.add_route(a, a, 0) is True           # added, expires at 10 s
    assert n.add_route(a, c, 5 * US) is True      # refreshed, expires at 15 s
    assert n.add_route(c, c, 6 * US) is True      # added, expires at 16 s
    assert n.add_route(d, d, 7 * US) is False     # full
    n.blacklist.add(d)
    assert n.add_route(d, d, 20 * US) is False    # refused, before any read
    assert list(n.routing) == [a, c]
    n.blacklist.clear()
    assert n.add_route(d, c, 15 * US) is True     # a expired at 15 s: room
    assert list(n.routing) == [c, d]


def test_routes_drop_what_has_expired_and_live_routes_changes_nothing():
    n = make_node(params=SimParams(route_lifetime_s=10.0))
    a, c = node_address(2), node_address(3)
    n.add_route(a, a, 0)
    n.add_route(c, c, 1)
    live = n.live_routes(10 * US)                 # a expires at 10 s exactly
    assert list(live) == [c] and live[c] is n.routing[c]
    assert list(n.routing) == [a, c]
    assert n.routes(10 * US) is n.routing
    assert list(n.routing) == [c]
    never = make_node()                           # route_lifetime_s = 0
    never.add_route(a, a, 0)
    assert list(never.routes(10 ** 15)) == [a]


# -- root validation ----------------------------------------------------


def root_with_db():
    root = make_root()
    db = CRDatabase()
    db.entries[node_address(1)] = (0b01110101, 0b10110101)
    return root, db


def test_root_acks_genuine_license():
    root, db = root_with_db()
    dao = DaoModified(src=node_address(1), target=node_address(1),
                      sequence=1, reserved=0b11000000)
    out = root.root_handle_dao(dao, node_address(1), 1.0, db)
    (dest, status), = out
    assert dest == node_address(1) and status.status == STATUS_ACK
    assert node_address(1) in root.routing


def test_root_nacks_unknown_source():
    root, db = root_with_db()
    fake = bytes([0xFE]) + b"\x00" * 15
    dao = DaoModified(src=fake, target=fake, sequence=1, reserved=0x12)
    (dest, status), = root.root_handle_dao(dao, node_address(1), 1.0, db)
    assert status.status == STATUS_NACK
    assert fake not in root.routing


def test_root_nacks_wrong_license():
    root, db = root_with_db()
    dao = DaoModified(src=node_address(1), target=node_address(1),
                      sequence=1, reserved=0b11000001)
    (_, status), = root.root_handle_dao(dao, node_address(1), 1.0, db)
    assert status.status == STATUS_NACK


def test_root_nacks_license_wider_than_width():
    # a registered source whose reserved octet does not fit a 4-bit license
    params = SimParams(license_width=4)
    root = make_root(params)
    db = CRDatabase(width=4)
    db.entries[node_address(1)] = (0x3, 0x5)
    dao = DaoModified(src=node_address(1), target=node_address(1),
                      sequence=1, reserved=200)
    (_, status), = root.root_handle_dao(dao, node_address(1), 1.0, db)
    assert status.status == STATUS_NACK
    assert node_address(1) not in root.routing


def test_unprovisioned_node_sends_a_dao_the_encrypted_root_refuses():
    # a node the registration phase skipped holds no shared key; building
    # its DAO once raised TypeError in the cipher
    node = make_node(1)
    (dest, dao), = join(node)
    assert dest == ROOT_ADDR and dao.reserved == 0 and dao.options == b""
    root = make_root()
    (_, status), = root.root_handle_dao(dao, node.address, 1.0, CRDatabase())
    assert status.status == STATUS_NACK


def test_widest_encrypted_license_fills_one_frame():
    # 36 octets of DAO, the options' length octet, the 8-octet nonce and 82
    # octets of ciphertext; one bit more needs a 128-octet frame
    params = SimParams(license_width=656)
    node = make_node(1, params=params)
    node.shared_key = bytes(range(16))
    node.license = (1 << 656) - 1
    (_, dao), = join(node)
    assert dao_length(dao) == len(encode_dao(dao)) == MAX_FRAME == 127
    with pytest.raises(ScenarioError, match="^license_width:"):
        replace(params, license_width=657)


def test_root_nacks_encrypted_license_wider_than_width():
    # a 10-byte blob that decrypts to 51513, past 12 bits
    params = SimParams(license_width=12)
    root = make_root(params)
    db = CRDatabase(width=12)
    db.entries[node_address(1)] = (0x123, 0x456)
    key = bytes(range(16))
    db.keys[node_address(1)] = key
    blob = encrypt_license(key, 51513, b"\x07" * 8, width=16)
    assert len(blob) == 10
    dao = DaoModified(src=node_address(1), target=node_address(1),
                      sequence=1, reserved=0, options=blob)
    (_, status), = root.root_handle_dao(dao, node_address(1), 1.0, db)
    assert status.status == STATUS_NACK
    assert node_address(1) not in root.routing


def test_root_defense_off_acks_everything():
    # db=None is the arm without the defense: no DAO is checked
    root = make_root()
    fake = bytes([0xFE]) + b"\x00" * 15
    for src, reserved in ((fake, 0x12), (node_address(1), 0b11000001)):
        dao = DaoModified(src=src, target=src, sequence=1, reserved=reserved)
        (_, status), = root.root_handle_dao(dao, node_address(1), 1.0)
        assert status.status == STATUS_ACK
        assert src in root.routing               # the route persists


# -- attacker -----------------------------------------------------------


def test_forged_volley_count_and_address_block():
    params = SimParams(forged_per_period=4)
    mal = NodeState("m01", node_address(30), NodeRole.MALICIOUS, params)
    join(mal)
    out = mal.emit_forged(5.0, random.Random(8))
    assert len(out) == 4
    for dest, dao in out:
        assert dest == ROOT_ADDR
        assert is_forged_address(dao.src) and dao.src == dao.target


def test_forged_volley_arithmetic_over_run():
    params = SimParams(forged_per_period=4, attack_period_s=30.0)
    mal = NodeState("m01", node_address(30), NodeRole.MALICIOUS, params)
    join(mal)
    rng = random.Random(8)
    total = 0
    t = 0.0
    while t < 300.0:                             # volleys at 0, 30, ..., 270
        total += len(mal.emit_forged(t, rng))
        t += params.attack_period_s
    assert total == 40


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("key", [None, bytes(range(16))], ids=["no_key", "shared_key"])
def test_license_field_follows_the_key_the_node_holds(key, width):
    # own and forged DAOs alike: with a shared key the field is an options
    # blob and reserved is 0; without one it is the reserved octet
    params = SimParams(license_width=width, forged_per_period=3)
    mal = NodeState("m01", node_address(30), NodeRole.MALICIOUS, params)
    mal.shared_key, mal.license = key, 0x5A
    join(mal)
    (_, own), = mal.build_own_dao(1.0, random.Random(1))
    forged = [dao for _, dao in mal.emit_forged(5.0, random.Random(8))]
    assert len(forged) == 3
    if key is None:
        assert own.reserved == 0x5A
        assert all(dao.options == b"" for dao in [own, *forged])
    else:
        assert all(dao.reserved == 0 and len(dao.options) == license_blob_len(width)
                   for dao in [own, *forged])


def test_orphan_attacker_emits_nothing():
    mal = NodeState("m01", node_address(30), NodeRole.MALICIOUS, P)
    assert mal.emit_forged(5.0, random.Random(8)) == []


# -- stateful fuzz ------------------------------------------------------

POOL = [node_address(i) for i in (0, 5, 6, 7)]
SELF_ADDR = node_address(1)
FUZZ_PARAMS = SimParams(route_lifetime_s=20.0)


class ClientMachine(RuleBasedStateMachine):
    """One client fed arbitrary control traffic from a small neighbourhood.

    The model tracks only the rank last heard from each sender, so the
    client's rank can be checked against the one its parent advertised.
    """

    def __init__(self):
        super().__init__()
        self.node = NodeState("n01", SELF_ADDR, NodeRole.CLIENT, FUZZ_PARAMS)
        self.node.rt_cap = 3
        self.rng = random.Random(0)
        self.now = 0
        self.heard = {}

    @rule(dt=st.integers(0, 10 * US))
    def tick(self, dt):
        self.now += dt

    @rule(sender=st.sampled_from(POOL), rank=st.integers(0, 0xFFFF))
    def dio(self, sender, rank):
        if sender not in self.node.blacklist:
            self.heard[sender] = rank
        dio = DioMessage(sender=sender, rank=rank)
        self.node.handle_dio(dio, self.now, self.rng)

    @rule(sender=st.sampled_from(POOL), genuine=st.sampled_from(POOL) | st.none())
    def dao(self, sender, genuine):
        target = genuine or forged_address(self.rng)
        dao = DaoModified(src=target, target=target, sequence=1, reserved=0)
        self.node.handle_dao(dao, sender, self.now)

    @rule(originator=st.sampled_from(POOL + [SELF_ADDR]), ack=st.booleans())
    def status(self, originator, ack):
        st_msg = DaoStatus(originator=originator,
                           status=STATUS_ACK if ack else STATUS_NACK)
        self.node.handle_status(st_msg, self.now)

    @rule()
    def dis(self):
        self.node.handle_dis(DisMessage(), self.now)

    @rule()
    def trickle(self):
        self.node.trickle_fire(self.now, self.rng)

    @invariant()
    def attachment_is_one_state(self):
        n = self.node
        assert (n.parent is None) == (n.rank is None) == (n.trickle is None)
        if n.parent is not None:
            assert n.rank == compute_rank(self.heard[n.parent])

    @invariant()
    def tables_bounded_and_clean(self):
        n = self.node
        assert len(n.routing) <= n.rt_cap
        assert not n.blacklist & set(n.routing)
        assert n.parent not in n.blacklist


ClientMachine.TestCase.settings = settings(deadline=None)
test_client_machine = ClientMachine.TestCase
