"""Experiment descriptions: flat key=value files, checked when made.

A scenario is the full recipe for one comparative experiment: the world
parameters, how many clients and attackers, which arms to run, and the seed
list.  Unknown keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

from .config import ARMS, US, ScenarioError, SimParams, check_world

_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class Scenario:
    """Frozen and checked when made, by `dataclasses.replace` too, so a
    Scenario that breaks a rule never exists; `arms` and `seeds` are
    stored as tuples."""

    params: SimParams = field(default_factory=SimParams)
    n_clients: int = 29
    n_attackers: int = 1
    mobility: bool = False
    arms: tuple = ("baseline", "attack", "defense")
    seeds: tuple = tuple(range(10))

    def __post_init__(self) -> None:
        """`check_world` for each arm, then the experiment's own rules: seeds, arms
        once, an attacker per attack arm, data after the warm-up, clients on by then."""
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for seed in self.seeds:  # True is an int to Python, but no seed
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ScenarioError(f"seeds: must be an integer, got {seed!r}")
        if not isinstance(self.mobility, bool):  # "off" is truthy
            raise ScenarioError(f"mobility: must be True or False, got {self.mobility!r}")
        if not self.arms:
            raise ScenarioError("arms: need at least one arm")
        for arm in self.arms:
            if arm not in ARMS:
                raise ScenarioError(f"arms: unknown arm {arm!r}")
            check_world(self.params, ARMS[arm], self.n_clients, self.n_attackers)
            if ARMS[arm].attack and self.n_attackers < 1:
                raise ScenarioError(
                    f"n_attackers: arm {arm!r} requires at least one attacker")
        if self.n_attackers > 3:
            warnings.warn(f"n_attackers={self.n_attackers} is outside the "
                          "usual 0..3 range", stacklevel=3)
        if not self.seeds:
            raise ScenarioError("seeds: need at least one seed")
        if min(self.seeds) < 0:  # Random(-n) seeds exactly as Random(n) does
            raise ScenarioError(f"seeds: must be non-negative, got {min(self.seeds)}")
        # a repeat would count one sample twice in the CIs and overwrite a trace
        for key, values in (("arms", self.arms), ("seeds", self.seeds)):
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


# a key's text is read as its default's type, int or float
_PARAM_TYPES = {f.name: type(f.default) for f in fields(SimParams)}


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


def _parse_value(key: str, raw: str):
    """One key's value from its text form, as a file line gives it."""
    if key in ("mobility", "encrypted"):
        return _parse_bool(key, raw)
    if key == "arms":
        return [tok.strip() for tok in raw.split(",") if tok.strip()]
    if key == "seeds":
        return parse_seeds(raw)
    kind = int if key in ("n_clients", "n_attackers") else _PARAM_TYPES.get(key)
    if kind is None:
        raise ScenarioError(f"unknown key {key!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ScenarioError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def parse_scenario(text: str, flags: dict | None = None) -> Scenario:
    """Read every line, then every flag, then make one `Scenario`, so the
    order of the lines never decides whether a file is valid.  A flag is
    key -> text, read as a line and overriding the line with its key;
    `encrypted = on` is read last, as "run `defense` as `defense_encrypted`",
    and refused for want of that arm only once the rest makes a Scenario."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key=value, got {line!r}")
        pairs.append([part.strip() for part in line.split("=", 1)])
    params, settings = {}, {}
    for key, raw in [*pairs, *(flags or {}).items()]:
        (params if key in _PARAM_TYPES else settings)[key] = _parse_value(key, raw)
    encrypted = settings.pop("encrypted", False)
    if encrypted:
        settings["arms"] = ["defense_encrypted" if arm == "defense" else arm
                            for arm in settings.get("arms", Scenario.arms)]
    scenario = Scenario(params=SimParams(**params), **settings)
    if encrypted and "defense_encrypted" not in scenario.arms:
        raise ScenarioError("encrypted: on needs a defense arm, and none is listed")
    return scenario


def load_scenario(path, flags: dict | None = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text, flags)
