"""Exact laws at the desk scenario: 26 clients and 3 attackers, between
arms at seeds 0-2, static and mobile, within the static attack arm at
seeds 0-9, and within each run for the fate of every counted data packet.

Where two arms differ only in a switch that finds nothing to act on, they
must give the same run: the same `World.digest()` and the same counters,
ledgers included.  The acceptance tests check the paper's claims with
margins and the golden file pins bytes; these laws say that arms differ
only where they should.  The encrypted defense has no such law: its
license nonces come from `World.rng`, so it draws where the baseline does
not.
"""

from collections import Counter
from dataclasses import replace
from functools import cache

import pytest

from lisec_rtf.config import ARMS, ArmFlags, SimParams
from lisec_rtf.engine import DataPacket, build_random_world
from lisec_rtf.metrics import pdr

DESK = SimParams()
WORLDS = [(seed, mobility) for mobility in (False, True) for seed in (0, 1, 2)]
PEACE = ArmFlags("peace", attack=False, defense=True)
_PLACEMENTS: dict = {}  # one search per seed for every arm


@cache
def _run(params: SimParams, arm: ArmFlags, seed: int, mobility: bool):
    """The digest and counters of one desk world."""
    w = build_random_world(params, arm, seed, n_clients=26, n_attackers=3,
                           mobility=mobility, placements=_PLACEMENTS)
    counters = w.run()
    return w.digest(), counters


@pytest.mark.parametrize("seed, mobility", WORLDS)
def test_a_defense_in_peacetime_is_the_baseline(seed, mobility):
    # the license check admits every genuine DAO, so it changes nothing
    assert _run(DESK, PEACE, seed, mobility) == _run(DESK, ARMS["baseline"], seed, mobility)


@pytest.mark.parametrize("seed, mobility", WORLDS)
@pytest.mark.parametrize("arm", ["attack", "defense"])
def test_an_attack_that_forges_nothing_is_the_baseline(arm, seed, mobility):
    # the attacker still joins and registers itself, as it does in every arm
    params = replace(DESK, forged_per_period=0)
    assert _run(params, ARMS[arm], seed, mobility) == _run(
        params, ARMS["baseline"], seed, mobility)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_unbounded_root_table_loses_no_data_to_the_attack(seed):
    # forged routes fill the relays' tables and change the run, but the
    # unbounded root stores every genuine route beside them, and data climbs
    # through parents, so the root admits what it admits without the attack
    params = replace(DESK, root_rt_cap=0)
    attacked = _run(params, ARMS["attack"], seed, False)
    baseline = _run(params, ARMS["baseline"], seed, False)
    assert attacked[0] != baseline[0]  # the attack does act
    assert pdr(attacked[1]) == pdr(baseline[1])


@pytest.mark.parametrize("seed", range(10))
def test_the_static_attack_is_a_race_to_fill_the_root_table(seed):
    # forged routes fill the root's table; a client that joined before it
    # filled holds its route and loses nothing, one that joined after is
    # refused a route and the root admits none of its data
    w = build_random_world(DESK, ARMS["attack"], seed, n_clients=26, n_attackers=3,
                           placements=_PLACEMENTS)
    root = w.nodes["root"]
    # the kernel reads both from w at run time, so wrappers set on w are called
    receive, handle_data = w._receive, w._handle_data
    full_at = []
    delivered = Counter()

    def watch_table(node, sender_addr, message, airtime):
        receive(node, sender_addr, message, airtime)
        if node is root and not full_at and len(root.routes(w.clock)) >= root.rt_cap:
            full_at.append(w.clock)

    def count_delivery(node, packet):
        before = w.counters.received_at_root
        handle_data(node, packet)
        delivered[packet.src_addr] += w.counters.received_at_root - before

    w._receive, w._handle_data = watch_table, count_delivery
    sent = w.run().sent_per_node
    assert full_at  # the attack does fill the table
    clients = [c for c in w.nodes.values() if c.node_id in sent]
    late = {c.node_id for c in clients
            if c.joined_at is None or c.joined_at >= full_at[0]}
    broken = [(c.node_id, c.joined_at, delivered[c.address], sent[c.node_id])
              for c in clients if delivered[c.address]
              != (0 if c.node_id in late else sent[c.node_id])]
    assert broken == [], f"table full at {full_at[0]} µs"


@pytest.mark.parametrize("loss_prob", [0.0, 0.15])
@pytest.mark.parametrize("seed, mobility", WORLDS)
@pytest.mark.parametrize("arm", ["baseline", "attack", "defense"])
def test_every_counted_data_packet_ends_once(arm, seed, mobility, loss_prob):
    # each counted packet is received or ends at one named point, and none
    # is still on the air when the run ends; wrappers set on w follow it
    params = replace(DESK, loss_prob=loss_prob)
    w = build_random_world(params, ARMS[arm], seed, n_clients=26, n_attackers=3,
                           mobility=mobility, placements=_PLACEMENTS)
    c, warmup = w.counters, params.us["data_warmup_s"]
    on_data, transmit, receive, handle_data = (
        w._on_data, w.transmit, w._receive, w._handle_data)
    ends = Counter()
    sends = Counter()  # of counted data: launched by the source, relayed

    def send_all(event):
        sent, launched = c.total_sent(), sends["launched"]
        on_data(event)
        ends["orphaned at the source"] += (
            c.total_sent() - sent - (sends["launched"] - launched))

    def send(sender, dest, message):
        lost = c.link_losses
        transmit(sender, dest, message)
        if type(message) is DataPacket and message.created > warmup:
            sends["relayed" if message.hops else "launched"] += 1
            ends["lost on a link"] += c.link_losses - lost

    def relay(node, sender_addr, message, airtime):
        relayed = sends["relayed"]
        receive(node, sender_addr, message, airtime)
        if (type(message) is DataPacket and message.created > warmup
                and node.node_id != "root" and sends["relayed"] == relayed):
            ends["dropped by a relay"] += 1

    def admit(root, packet):
        refused = c.root_admission_drops
        handle_data(root, packet)
        if packet.created > warmup:
            ends["refused at root admission"] += c.root_admission_drops - refused

    w._on_data, w.transmit, w._receive, w._handle_data = send_all, send, relay, admit
    w.run()
    assert c.received_at_root + sum(ends.values()) == c.total_sent() > 0, ends
    if loss_prob:
        assert ends["lost on a link"] > 0
