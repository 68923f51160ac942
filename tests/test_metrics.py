"""Metric formulas and the cross-seed confidence interval."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lisec_rtf.config import SimParams
from lisec_rtf.metrics import (
    EnergyLedger,
    MetricUndefinedError,
    RunCounters,
    aggregate_ci,
    ae2ed,
    apc,
    pdr,
    t_critical,
)


P = SimParams()


def counters_with(sent, received, delays=()):
    c = RunCounters()
    c.sent_per_node = {"c01": sent}
    c.received_at_root = received
    c.delays = list(delays)
    return c


# -- PDR ------------------------------------------------------------------


def test_pdr_lossless_run_is_one():
    assert pdr(counters_with(1740, 1740)) == 1.0


def test_pdr_zero_received():
    assert pdr(counters_with(100, 0)) == 0.0


def test_pdr_attack_anchor_division():
    assert pdr(counters_with(1740, 957)) == pytest.approx(0.55, abs=0.001)


def test_pdr_undefined_without_traffic():
    with pytest.raises(MetricUndefinedError):
        pdr(counters_with(0, 0))


def test_pdr_bounds_random():
    rng = random.Random(3)
    for _ in range(200):
        sent = rng.randrange(1, 500)
        received = rng.randrange(0, sent + 1)
        assert 0.0 <= pdr(counters_with(sent, received)) <= 1.0


# -- AE2ED ----------------------------------------------------------------


def test_ae2ed_single_two_hop_packet():
    c = counters_with(1, 1, delays=[0.010])
    assert ae2ed(c) == pytest.approx(0.010)


def test_ae2ed_identical_delays():
    c = counters_with(5, 5, delays=[0.2] * 5)
    assert ae2ed(c) == pytest.approx(0.2)


def test_ae2ed_matches_independent_summation():
    rng = random.Random(8)
    delays = [rng.uniform(0.005, 0.5) for _ in range(321)]
    c = counters_with(400, len(delays), delays=delays)
    total = 0.0
    for d in delays:  # independent recomputation
        total += d
    assert ae2ed(c) == pytest.approx(total / 321)


def test_ae2ed_undefined_without_delivery():
    with pytest.raises(MetricUndefinedError):
        ae2ed(counters_with(10, 0))


# -- APC ------------------------------------------------------------------


def idle_counters(n_clients):
    c = RunCounters()
    c.client_ids = [f"c{i:02d}" for i in range(n_clients)]
    c.ledgers = {i: EnergyLedger() for i in c.client_ids}
    return c


def test_apc_all_idle_equals_lpm_power():
    c = idle_counters(5)
    assert apc(c, 1800.0, P) == pytest.approx(P.p_lpm_mw)


def test_apc_monotone_in_tx_time():
    c = idle_counters(3)
    base = apc(c, 1800.0, P)
    for ledger in c.ledgers.values():
        ledger.tx_s = 10.0
    up = apc(c, 1800.0, P)
    for ledger in c.ledgers.values():
        ledger.tx_s = 20.0
    assert apc(c, 1800.0, P) > up > base


def test_apc_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        apc(idle_counters(2), 0.0, P)


def test_apc_excludes_non_clients():
    c = idle_counters(2)
    c.ledgers["root"] = EnergyLedger(tx_s=500.0)  # not in client_ids
    assert apc(c, 1800.0, P) == pytest.approx(P.p_lpm_mw)


# -- confidence intervals ---------------------------------------------------


def test_ci_identical_values():
    mean, half = aggregate_ci([0.7] * 10)
    assert mean == pytest.approx(0.7)
    assert half == pytest.approx(0.0)


def test_ci_two_point_t_table_value():
    # n=2, values {0,1}: half-width = t(0.975, 1) * s / sqrt(2) = 6.353
    mean, half = aggregate_ci([0.0, 1.0])
    assert mean == pytest.approx(0.5)
    assert half == pytest.approx(6.353, abs=0.001)


def test_ci_requires_two_values():
    with pytest.raises(ValueError):
        aggregate_ci([1.0])


def test_ci_coverage_monte_carlo():
    # CI from 10 samples of a known normal should cover the true mean in
    # roughly 95% of meta-trials; assert a conservative 90% floor
    rng = random.Random(2025)
    true_mean = 3.0
    covered = 0
    trials = 1000
    for _ in range(trials):
        values = [rng.gauss(true_mean, 1.0) for _ in range(10)]
        mean, half = aggregate_ci(values)
        covered += (mean - half) <= true_mean <= (mean + half)
    assert covered / trials >= 0.90


# -- Student-t critical values ----------------------------------------------


def test_t_critical_table_values():
    # df 1 and 2 have closed forms; df 9 and 30 from 40-digit mpmath
    assert t_critical(0.95, 1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-12)
    assert t_critical(0.95, 2) == pytest.approx(
        0.95 * math.sqrt(2 / (1 - 0.95 ** 2)), rel=1e-12)
    assert t_critical(0.95, 9) == pytest.approx(2.2621571627982055, rel=1e-12)
    assert t_critical(0.99, 30) == pytest.approx(2.7499956535672253, rel=1e-12)


def test_t_critical_rejects_confidence_outside_unit_interval():
    for confidence in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            t_critical(confidence, 5)


def test_t_critical_refuses_degrees_of_freedom_it_cannot_use():
    # 0 gave inf, -1 ZeroDivisionError and 2.5 TypeError; True is no count
    for df in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="^df must be"):
            t_critical(0.95, df)


def test_t_critical_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    dfs = range(1, 501)
    for confidence in (0.8, 0.9, 0.95, 0.99):
        expected = stats.t.ppf((1 + confidence) / 2, list(dfs))
        for df, want in zip(dfs, expected.tolist()):
            assert abs(t_critical(confidence, df) - want) <= 1e-12 * want, (confidence, df)


def test_package_imports_neither_scipy_nor_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, lisec_rtf, lisec_rtf.cli; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("make, error, message", [
    # no other test reaches these checks
    (lambda: EnergyLedger().power_mw(0.0, P), ValueError, "elapsed time must be positive"),
    (lambda: apc(RunCounters(), 60.0, P), MetricUndefinedError, "no client ledgers"),
])
def test_input_check_names_its_cause(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
