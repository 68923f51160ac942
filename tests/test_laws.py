"""Exact laws between arms at the desk scenario: 26 clients and 3 attackers,
seeds 0-2, static and mobile.

Where two arms differ only in a switch that finds nothing to act on, they
must give the same run: the same `World.digest()` and the same counters,
ledgers included.  The acceptance tests check the paper's claims with
margins and the golden file pins bytes; these laws say that arms differ
only where they should.  The encrypted defense has no such law: its
license nonces come from `World.rng`, so it draws where the baseline does
not.
"""

from dataclasses import replace
from functools import cache

import pytest

from lisec_rtf.config import ARMS, ArmFlags, SimParams
from lisec_rtf.engine import build_random_world
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
