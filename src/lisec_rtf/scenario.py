"""Experiment descriptions: flat key=value files plus validation.

A scenario is the full recipe for one comparative experiment: the world
parameters, how many clients and attackers, which arms to run, and the seed
list.  Unknown keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

from .config import ARMS, US, ScenarioError, SimParams, durations_us
from .messages import OPTIONS_MAX
from .puf import NONCE_LEN, license_blob_len

# loop periods, the horizon, airtime's divisor, the license's bit count,
# the radio range and grid side that placement and its cell index rest on,
# the frame sizes that airtime charges and the trickle redundancy constant
# (RFC 6206 asks k >= 1)
_POSITIVE_KEYS = ("data_period_s", "dis_period_s", "dao_period_s", "attack_period_s",
                  "mobility_tick_s", "trickle_imin_s", "duration_s",
                  "bitrate_bps", "license_width", "tx_range_m", "grid_m",
                  "data_bytes", "dio_bytes", "dis_bytes", "trickle_k")
# an infinite horizon never ends a run; an infinite grid places nodes at
# infinity; an infinite speed moves them to nan; an infinite trickle
# interval never fires, so no node joins
_FINITE_KEYS = ("duration_s", "grid_m", "speed_min_mps", "speed_max_mps",
                "trickle_imin_s")
# delays, windows, a doubling count, the waypoint speeds and pause, the
# power and CPU figures, the forged rate, the table caps (0 is unbounded at
# the root), the route lifetime (0 never expires) and the parent-switch
# margin (below 0 a node leaves its parent for a neighbour no better, and
# parents swap in a loop): zero is allowed, negatives and nan not
_NON_NEGATIVE_KEYS = ("d_hop_s", "startup_stagger_s", "attacker_start_window_s",
                      "attacker_self_dao_delay_s", "data_warmup_s",
                      "trickle_doublings", "speed_min_mps", "speed_max_mps",
                      "pause_s", "p_tx_mw", "p_rx_mw", "p_cpu_mw",
                      "p_lpm_mw", "cpu_per_packet_s", "forged_per_period",
                      "rt_cap", "root_rt_cap", "route_lifetime_s", "hysteresis")

_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}


@dataclass
class Scenario:
    params: SimParams = field(default_factory=SimParams)
    n_clients: int = 29
    n_attackers: int = 1
    mobility: bool = False
    encrypted: bool = False
    arms: list = field(default_factory=lambda: ["baseline", "attack", "defense"])
    seeds: list = field(default_factory=lambda: list(range(10)))

    def effective_arms(self) -> list[str]:
        """Arm list with the encrypted variant substituted when requested."""
        if not self.encrypted:
            return list(self.arms)
        return ["defense_encrypted" if a == "defense" else a for a in self.arms]

    def validate(self) -> None:
        if not self.arms:
            raise ScenarioError("arms: need at least one arm")
        for arm in self.effective_arms():
            if arm not in ARMS:
                raise ScenarioError(f"arms: unknown arm {arm!r}")
            if ARMS[arm].attack and self.n_attackers < 1:
                raise ScenarioError(
                    f"n_attackers: arm {arm!r} requires at least one attacker")
        if self.n_clients < 1:
            raise ScenarioError("n_clients: need at least one client")
        if self.n_attackers < 0:
            raise ScenarioError("n_attackers: must be non-negative")
        if self.n_attackers > 3:
            warnings.warn(f"n_attackers={self.n_attackers} is outside the "
                          "usual 0..3 range", stacklevel=2)
        if not self.seeds:
            raise ScenarioError("seeds: need at least one seed")
        if min(self.seeds) < 0:  # Random(-n) seeds exactly as Random(n) does
            raise ScenarioError(f"seeds: must be non-negative, got {min(self.seeds)}")
        # a repeat would count one sample twice in the CIs and overwrite a trace
        for key, values in (("arms", self.effective_arms()), ("seeds", self.seeds)):
            seen = set()
            for value in values:
                if value in seen:
                    raise ScenarioError(f"{key}: {value!r} is listed twice")
                seen.add(value)
        for keys, holds, rule in ((_POSITIVE_KEYS, lambda v: v > 0, "positive"),
                                  (_FINITE_KEYS, lambda v: v != math.inf, "finite"),
                                  (_NON_NEGATIVE_KEYS, lambda v: v >= 0, "non-negative")):
            for key in keys:
                value = getattr(self.params, key)
                if not holds(value):  # nan fails every comparison but !=
                    raise ScenarioError(f"{key}: must be {rule}, got {value}")
        try:
            self.params.trickle_cap_s()
        except OverflowError:
            doublings = self.params.trickle_doublings
            raise ScenarioError(f"trickle_doublings: trickle_imin_s * 2**{doublings}"
                                " must be finite") from None
        if not 0 <= self.params.loss_prob <= 1:  # also refuses nan
            raise ScenarioError(
                f"loss_prob: must be in [0, 1], got {self.params.loss_prob}")
        us = durations_us(self.params)
        # some packet must go after the warm-up, or PDR is undefined
        last = us["duration_s"] // us["data_period_s"] * us["data_period_s"]
        if not last > us["data_warmup_s"]:
            when = f"the last goes at {last / US} s" if last else "none goes by duration_s"
            raise ScenarioError(f"data_warmup_s: no data packet is sent after "
                                f"{self.params.data_warmup_s} s; {when}")
        # a client not yet powered on counts its packets as sent and lost
        if self.params.startup_stagger_s > self.params.data_warmup_s:
            raise ScenarioError(
                f"startup_stagger_s: must not exceed data_warmup_s "
                f"({self.params.data_warmup_s}), got {self.params.startup_stagger_s}")
        plain = [a for a in self.effective_arms() if not ARMS[a].encrypted]
        if self.params.license_width > 8 and plain:
            raise ScenarioError(
                f"license_width: arm {plain[0]!r} carries the license in the "
                "8-bit reserved octet; wider licenses need encrypted=on "
                "with only the defense arm")
        # the encrypted license and its nonce ride in the DAO options
        if license_blob_len(self.params.license_width) > OPTIONS_MAX:
            raise ScenarioError(
                f"license_width: at most {(OPTIONS_MAX - NONCE_LEN) * 8} bits fit "
                f"the DAO options, got {self.params.license_width}")


_PARAM_FIELDS = {f.name: f.type for f in fields(SimParams)}
_SCENARIO_KEYS = {"n_clients", "n_attackers", "mobility", "encrypted",
                  "arms", "seeds"}


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ScenarioError(f"{key}: expected on/off, got {raw!r}") from None


def parse_seeds(raw: str) -> list[int]:
    raw = raw.strip()
    try:
        if "," in raw:
            return [int(tok) for tok in raw.split(",") if tok.strip()]
        return list(range(int(raw)))
    except ValueError:
        raise ScenarioError(f"seeds: expected a count or comma list, got {raw!r}") from None


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        apply(scenario, key, raw)
    return scenario


def apply(scenario: Scenario, key: str, raw: str) -> None:
    """Set one key from its text form, as a scenario file line would."""
    if key in _SCENARIO_KEYS:
        if key in ("mobility", "encrypted"):
            setattr(scenario, key, _parse_bool(key, raw))
        elif key == "arms":
            scenario.arms = [tok.strip() for tok in raw.split(",") if tok.strip()]
        elif key == "seeds":
            scenario.seeds = parse_seeds(raw)
        else:
            try:
                setattr(scenario, key, int(raw))
            except ValueError:
                raise ScenarioError(f"{key}: expected an integer, got {raw!r}") from None
        return
    if key in _PARAM_FIELDS:
        current = getattr(scenario.params, key)
        caster = int if isinstance(current, int) else float
        try:
            setattr(scenario.params, key, caster(raw))
        except ValueError:
            raise ScenarioError(
                f"{key}: expected {caster.__name__}, got {raw!r}") from None
        return
    raise ScenarioError(f"unknown key {key!r}")


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text)
