"""Experiment descriptions: flat key=value files plus validation.

A scenario is the full recipe for one comparative experiment: the world
parameters, how many clients and attackers, which arms to run, and the seed
list.  Unknown keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

from .config import ARMS, US, ScenarioError, SimParams

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
        """What needs the arms, seeds or counts, or defines the metrics."""
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
        us = self.params.us
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


# a key's text is read as its default's type, int or float
_PARAM_TYPES = {f.name: type(f.default) for f in fields(SimParams)}
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
    """Read every line, then make one `SimParams` from all the parameter
    keys, so the order of the lines never decides whether a file is valid."""
    settings = SimpleNamespace()  # the scenario-level keys, as `apply` sets them
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _PARAM_TYPES:
            apply(settings, key, raw)
            continue
        try:
            values[key] = _PARAM_TYPES[key](raw)
        except ValueError:
            raise ScenarioError(f"{key}: expected {_PARAM_TYPES[key].__name__}, "
                                f"got {raw!r}") from None
    return Scenario(params=SimParams(**values), **vars(settings))


def apply(scenario: Scenario, key: str, raw: str) -> None:
    """Set one scenario-level key from its text form, as a file line would."""
    if key not in _SCENARIO_KEYS:
        raise ScenarioError(f"unknown key {key!r}")
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


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text)
