"""All tunable protocol and simulation constants in one place.

Values mirror the desk-scale experiment defaults: 200 m grid, 50 m unit-disk
radio, hop-count ranks with MRHOF-style hysteresis, Z1-class power numbers.
RFC 6550's rank constants are in `node.py`, the shared key's length in `puf.py`.

A `SimParams` is frozen and checked when it is made, for a scenario file and
library use alike: a value that breaks a rule in `RULES` raises `ScenarioError`
naming the key.  Vary one with `dataclasses.replace`, which checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .messages import DAO_BASE_LEN
from .puf import NONCE_LEN, license_blob_len

US = 1_000_000  # clock ticks per second: simulated time is whole microseconds
MAX_FRAME = 127  # octets in an IEEE 802.15.4 PHY frame (aMaxPHYPacketSize)
_FRAME = f"at most {MAX_FRAME} octets"


class ScenarioError(ValueError):
    """Bad scenario file or inconsistent settings; message names the key."""


# Every field once, with its rules in the order they are checked: the ranges
# (nan fails all but "finite"), the trickle cap and the license size, then
# "µs": whole microseconds, as `SimParams.us` holds each duration the clock reads.
RULES = {
    # below 0 a node leaves its parent for a neighbour no better, and parents
    # swap in a loop; a root cap of 0 is unbounded, a lifetime of 0 endless
    "hysteresis": ("non-negative",), "rt_cap": ("non-negative",),
    "root_rt_cap": ("non-negative",), "route_lifetime_s": ("non-negative", "µs"),
    "dao_period_s": ("positive", "µs"), "trickle_doublings": ("non-negative",),
    # an infinite interval never fires, so no node joins; RFC 6206 asks k >= 1
    "trickle_imin_s": ("positive", "finite", "µs"), "trickle_k": ("positive",),
    "dis_period_s": ("positive", "µs"), "data_period_s": ("positive", "µs"),
    # a longer frame would still land d_hop_s after it is sent
    "data_bytes": ("positive", _FRAME), "dio_bytes": ("positive", _FRAME),
    "dis_bytes": ("positive", _FRAME),
    "attack_period_s": ("positive", "µs"), "forged_per_period": ("non-negative",),
    "attacker_self_dao_delay_s": ("non-negative", "µs"), "tx_range_m": ("positive",),
    "loss_prob": ("in [0, 1]",), "d_hop_s": ("non-negative", "µs"),
    "bitrate_bps": ("positive",),
    # an infinite power or CPU figure makes APC inf and its CI nan
    "p_tx_mw": ("finite", "non-negative"), "p_rx_mw": ("finite", "non-negative"),
    "p_cpu_mw": ("finite", "non-negative"), "p_lpm_mw": ("finite", "non-negative"),
    "cpu_per_packet_s": ("finite", "non-negative"),
    # inf places nodes at infinity, moves walkers to nan or never ends a run
    "grid_m": ("positive", "finite"), "mobility_tick_s": ("positive", "µs"),
    "speed_min_mps": ("finite", "non-negative"),
    "speed_max_mps": ("finite", "non-negative"), "pause_s": ("non-negative", "µs"),
    "duration_s": ("positive", "finite", "µs"),
    "startup_stagger_s": ("non-negative", "µs"),
    "attacker_start_window_s": ("non-negative", "µs"),
    "data_warmup_s": ("non-negative", "µs"), "license_width": ("positive",),
}

_HOLDS = {"positive": lambda v: v > 0, "finite": lambda v: v != math.inf,
          "non-negative": lambda v: v >= 0, "in [0, 1]": lambda v: 0 <= v <= 1,
          _FRAME: lambda v: v <= MAX_FRAME}


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        """Apply `RULES`; set `us`, each "µs" key in whole microseconds."""
        for key, rules in RULES.items():
            value = getattr(self, key)
            for rule in rules:
                if rule in _HOLDS and not _HOLDS[rule](value):
                    raise ScenarioError(f"{key}: must be {rule}, got {value}")
        try:
            self.trickle_cap_s()
        except OverflowError:
            raise ScenarioError(f"trickle_doublings: trickle_imin_s * "
                                f"2**{self.trickle_doublings} must be finite") from None
        # an encrypted DAO: options of one length octet, the nonce and the ciphertext
        if DAO_BASE_LEN + 1 + license_blob_len(self.license_width) > MAX_FRAME:
            bits = (MAX_FRAME - DAO_BASE_LEN - 1 - NONCE_LEN) * 8
            raise ScenarioError(f"license_width: at most {bits} bits fit an encrypted DAO "
                                f"in one {MAX_FRAME}-octet frame, got {self.license_width}")
        us = {}
        for key, rules in RULES.items():
            if "µs" in rules:
                seconds = getattr(self, key)
                n = seconds * US
                if not (math.isfinite(n) and round(n) / US == seconds):
                    raise ScenarioError(f"{key}: must be a non-negative whole number "
                                        f"of microseconds, got {seconds}")
                us[key] = round(n)
        object.__setattr__(self, "us", us)  # no field: repr, eq and hash skip it

    def trickle_cap_s(self) -> float:
        """`trickle_imin_s * 2**trickle_doublings`; OverflowError past floats."""
        return math.ldexp(self.trickle_imin_s, self.trickle_doublings)

    def airtime_s(self, n_bytes: int) -> float:
        return n_bytes * 8.0 / self.bitrate_bps


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
