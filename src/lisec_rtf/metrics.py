"""Evaluation metrics: delivery ratio, mean delay, power, and t-based CIs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .config import SimParams


class MetricUndefinedError(ValueError):
    """Metric has no value for this run (nothing sent / delivered)."""


@dataclass
class EnergyLedger:
    """Seconds spent per radio/CPU state; low-power mode is the residual."""

    tx_s: float = 0.0
    rx_s: float = 0.0
    cpu_s: float = 0.0

    def lpm_s(self, elapsed_s: float) -> float:
        """The residual; undefined when the node was busy for longer than
        `elapsed_s`, as frames overlap on a radio with no channel capacity."""
        busy = self.tx_s + self.rx_s + self.cpu_s
        if busy > elapsed_s:
            raise MetricUndefinedError(f"a node was busy for {busy} s of {elapsed_s} s")
        return max(0.0, elapsed_s - self.tx_s - self.rx_s - self.cpu_s)

    def energy_mj(self, elapsed_s: float, params: SimParams) -> float:
        return (self.tx_s * params.p_tx_mw
                + self.rx_s * params.p_rx_mw
                + self.cpu_s * params.p_cpu_mw
                + self.lpm_s(elapsed_s) * params.p_lpm_mw)

    def power_mw(self, elapsed_s: float, params: SimParams) -> float:
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        return self.energy_mj(elapsed_s, params) / elapsed_s


@dataclass
class RunCounters:
    """Raw per-run observations the metrics are computed from."""

    sent_per_node: dict = field(default_factory=dict)
    received_at_root: int = 0
    delays: list = field(default_factory=list)
    ledgers: dict = field(default_factory=dict)       # node_id -> EnergyLedger
    client_ids: list = field(default_factory=list)
    n_blacklisted: int = 0
    rt_peak: int = 0          # largest table any non-root node held
    control_transmissions: int = 0
    dao_path_transmissions: int = 0
    data_transmissions: int = 0
    root_admission_drops: int = 0
    link_losses: int = 0
    forged_acked: int = 0
    forged_nacked: int = 0
    genuine_acked: int = 0
    genuine_nacked: int = 0

    def total_sent(self) -> int:
        return sum(self.sent_per_node.values())


def pdr(counters: RunCounters) -> float:
    sent = counters.total_sent()
    if sent == 0:
        raise MetricUndefinedError("no data packets were sent")
    return counters.received_at_root / sent


def ae2ed(counters: RunCounters) -> float:
    if not counters.delays:
        raise MetricUndefinedError("no data packets were delivered")
    return float(sum(counters.delays) / len(counters.delays))


def apc(counters: RunCounters, elapsed_s: float, params: SimParams) -> float:
    """Mean power over legitimate clients (attacker and root excluded)."""
    if elapsed_s <= 0:
        raise ValueError("elapsed time must be positive")
    powers = [counters.ledgers[i].power_mw(elapsed_s, params)
              for i in counters.client_ids]
    if not powers:
        raise MetricUndefinedError("no client ledgers")
    return float(sum(powers) / len(powers))


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df >= 1, at t >= 0.

    The finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(t / sqrt(df)); every term is positive.
    """
    c2 = df / (df + t * t)                 # cos^2 theta
    odd = df % 2
    term = math.sqrt(c2) if odd else 1.0
    total = 0.0
    for k in range(1 + odd, df, 2):
        total += term
        term *= k / (k + 1) * c2
    total *= t / math.sqrt(df + t * t)     # sin theta
    if odd:
        return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + total)
    return total


@lru_cache(maxsize=256, typed=True)  # True must not hit the entry for 1
def t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value: P(|T| <= t) = confidence.

    Bisects `_t_central` down to adjacent floats and returns the upper one.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if type(df) is not int or df < 1:
        raise ValueError(f"df must be an int >= 1, got {df!r}")
    lo, hi = 0.0, 1.0
    while _t_central(hi, df) < confidence:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _t_central(mid, df) < confidence:
            lo = mid
        else:
            hi = mid


def aggregate_ci(values: list[float], confidence: float = 0.95) -> tuple[float, float]:
    """Mean and Student-t half-width across per-seed values."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values for a confidence interval")
    mean = math.fsum(values) / n
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return mean, t_critical(confidence, n - 1) * sd / math.sqrt(n)
