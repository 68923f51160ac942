"""All tunable protocol and simulation constants in one place.

Values mirror the desk-scale experiment defaults: 200 m grid, 50 m unit-disk
radio, hop-count ranks with MRHOF-style hysteresis, Z1-class power numbers.
RFC 6550's rank constants are in `node.py`, the shared key's length in `puf.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class SimParams:
    # parent selection: a switch needs a rank better by more than this
    hysteresis: int = 128

    # storing-mode routing
    rt_cap: int = 16              # route entries per client router
    root_rt_cap: int = 128        # border router is resource-rich but finite; 0 = unbounded
    route_lifetime_s: float = 0.0  # 0 = entries persist for the whole run
    dao_period_s: float = 60.0    # registration refresh

    # trickle
    trickle_imin_s: float = 4.0
    trickle_doublings: int = 8
    trickle_k: int = 3

    # joining and data plane
    dis_period_s: float = 10.0
    data_period_s: float = 30.0
    data_bytes: int = 30
    dio_bytes: int = 24
    dis_bytes: int = 8

    # attacker
    attack_period_s: float = 30.0
    forged_per_period: int = 4
    attacker_self_dao_delay_s: float = 1.0  # registers itself after the first volley

    # radio
    tx_range_m: float = 50.0
    loss_prob: float = 0.0
    d_hop_s: float = 0.005        # per-hop propagation + MAC delay
    bitrate_bps: float = 250_000.0

    # energy (Z1-class engineering defaults, config-overridable)
    p_tx_mw: float = 52.2
    p_rx_mw: float = 56.4
    p_cpu_mw: float = 1.8
    p_lpm_mw: float = 0.0545
    cpu_per_packet_s: float = 0.0005

    # world
    grid_m: float = 200.0
    mobility_tick_s: float = 1.0
    speed_min_mps: float = 1.0
    speed_max_mps: float = 2.0
    pause_s: float = 0.0
    duration_s: float = 1800.0
    startup_stagger_s: float = 900.0   # clients power on uniformly in [0, stagger]
    attacker_start_window_s: float = 30.0
    data_warmup_s: float = 1200.0      # PDR/AE2ED measured from here to duration

    # licensing
    license_width: int = 8

    def trickle_cap_s(self) -> float:
        """`trickle_imin_s * 2**trickle_doublings`; OverflowError past floats."""
        return math.ldexp(self.trickle_imin_s, self.trickle_doublings)

    def airtime_s(self, n_bytes: int) -> float:
        return n_bytes * 8.0 / self.bitrate_bps


US = 1_000_000  # clock ticks per second: simulated time is whole microseconds

# the keys the clock reads, each a whole number of microseconds
DURATION_KEYS = ("data_period_s", "dis_period_s", "dao_period_s", "attack_period_s",
                 "mobility_tick_s", "trickle_imin_s", "duration_s", "d_hop_s",
                 "startup_stagger_s", "attacker_start_window_s",
                 "attacker_self_dao_delay_s", "data_warmup_s", "pause_s",
                 "route_lifetime_s")


class ScenarioError(ValueError):
    """Bad scenario file or inconsistent settings; message names the key."""


def durations_us(params: SimParams) -> dict[str, int]:
    """Every duration key of `params` in whole microseconds.  A ScenarioError
    naming the key refuses a negative value, inf, nan and any fraction of one."""
    us = {}
    for key in DURATION_KEYS:
        seconds = getattr(params, key)
        n = seconds * US
        if not (math.isfinite(n) and n >= 0 and round(n) / US == seconds):
            raise ScenarioError(f"{key}: must be a non-negative whole number of "
                                f"microseconds, got {seconds}")
        us[key] = round(n)
    return us


@dataclass(frozen=True)
class ArmFlags:
    """What a comparison arm switches on."""

    name: str
    attack: bool
    defense: bool
    encrypted: bool = False


ARMS = {
    "baseline": ArmFlags("baseline", attack=False, defense=False),
    "attack": ArmFlags("attack", attack=True, defense=False),
    "defense": ArmFlags("defense", attack=True, defense=True),
    "defense_encrypted": ArmFlags("defense_encrypted", attack=True, defense=True,
                                  encrypted=True),
}
