"""Acceptance gate: every exit criterion at its stated tolerance.

Runs the desk-scale comparative experiment once per arm (30 nodes, 1800
simulated seconds, 10 seeds, loss-free links so the undisturbed network
delivers everything) and checks the license algebra, the overflow
reproduction, the ordinal metric relations, and the reproducibility
contract.  One PASS line is printed per criterion; run with `pytest -s`.
"""

import math
import random
import time

import pytest

from lisec_rtf.cli import main
from lisec_rtf.config import ARMS, SimParams
from lisec_rtf.demo import run_overflow_demo
from lisec_rtf.engine import build_random_world
from lisec_rtf.metrics import apc, pdr
from lisec_rtf.node import TrickleState
from lisec_rtf.puf import (
    CRDatabase,
    NONCE_LEN,
    decrypt_license,
    encrypt_license,
    generate_license,
    recover_response,
)

N_CLIENTS = 26
N_ATTACKERS = 3
SEEDS = range(10)


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def check(num: int, cond: bool, text: str) -> None:
    if not cond:
        print(f"ACCEPTANCE {num:2d} FAIL: {text}")
        raise AssertionError(f"criterion {num}: {text}")


@pytest.fixture(scope="module")
def grid():
    """One desk-scale run matrix shared by the metric criteria."""
    params = SimParams()  # loss_prob 0: undisturbed delivery is lossless
    results = {}
    elapsed = {}
    for mobility in (False, True):
        for arm_name in ("baseline", "attack", "defense"):
            t0 = time.time()
            runs = []
            for seed in SEEDS:
                world = build_random_world(params, ARMS[arm_name], seed,
                                           n_clients=N_CLIENTS,
                                           n_attackers=N_ATTACKERS,
                                           mobility=mobility)
                counters = world.run()
                runs.append((counters,
                             pdr(counters),
                             apc(counters, params.duration_s, params)))
            results[(arm_name, mobility)] = runs
            elapsed[(arm_name, mobility)] = time.time() - t0
    return results, elapsed


def mean_pdr(results, arm, mobility=False):
    runs = results[(arm, mobility)]
    return sum(r[1] for r in runs) / len(runs)


def mean_apc(results, arm, mobility=False):
    runs = results[(arm, mobility)]
    return sum(r[2] for r in runs) / len(runs)


def test_criterion_1_license_algebra_exhaustive():
    t0 = time.time()
    failures = 0
    for ch in range(256):
        for r in range(256):
            if recover_response(ch, generate_license(ch, r)) != r:
                failures += 1
    runtime = time.time() - t0
    check(1, failures == 0, f"{failures} mismatches in 2^16 pairs")
    check(1, runtime < 1.0, f"exhaustive sweep took {runtime:.2f}s (>= 1s)")
    report(1, f"recover(generate) identity over all 65536 pairs in {runtime:.2f}s")


def test_criterion_2_worked_example():
    ch, resp = 0b01110101, 0b10110101
    lic = generate_license(ch, resp)
    check(2, lic == 0b11000000, f"license {lic:08b} != 11000000")
    check(2, recover_response(ch, lic) == resp, "recovered response mismatch")
    db = CRDatabase()
    db.entries["S1"] = (ch, resp)
    check(2, db.verify("S1", lic), "worked-example license rejected")
    report(2, "01110101/10110101 pair yields license 11000000 and verifies")


def test_criterion_3_false_accept_enumeration():
    db = CRDatabase()
    db.entries["S1"] = (0b01110101, 0b10110101)
    accepted = [lic for lic in range(256) if db.verify("S1", lic)]
    check(3, len(accepted) == 1, f"{len(accepted)} of 256 licenses accepted")
    report(3, "exactly 1 of 256 license values accepted (rate 1/256)")


def test_criterion_4_overflow_reproduction():
    t0 = time.time()
    baseline = run_overflow_demo("baseline")
    attack = run_overflow_demo("attack")
    defense = run_overflow_demo("defense")
    runtime = time.time() - t0
    check(4, baseline["h_registered"], "h not registered without the attack")
    check(4, attack["b_forged_entries"] == 2, "forged routes did not fill b")
    check(4, not attack["h_registered"], "h registered despite the overflow")
    check(4, defense["forged_nacked"] == 8 and defense["forged_acked"] == 0,
          "forged registrations not all refused")
    check(4, not defense["forged_routes_anywhere"], "forged route survived")
    check(4, defense["d_blacklisted_at_b"], "attacker not blacklisted at b")
    check(4, defense["h_registered"], "h failed to register under defense")
    check(4, runtime < 1.0, f"overflow demo took {runtime:.2f}s")
    report(4, "h registers without the attack; overflow blocks h undefended; "
              "defense purges, blacklists d, h registers")


def test_criterion_5_ordinal_pdr_reproduction(grid):
    results, elapsed = grid
    base = mean_pdr(results, "baseline")
    attack = mean_pdr(results, "attack")
    defense = mean_pdr(results, "defense")
    check(5, abs(base - 1.0) < 1e-9, f"static baseline PDR {base:.3f} not ~1")
    check(5, attack <= 0.8 * base,
          f"attack PDR {attack:.3f} above 0.8 x baseline {base:.3f}")
    check(5, defense >= 0.9 * base,
          f"defense PDR {defense:.3f} below 0.9 x baseline {base:.3f}")
    slowest = max(v for (arm, mob), v in elapsed.items() if not mob)
    check(5, slowest < 60.0, f"slowest static arm took {slowest:.1f}s")
    report(5, f"static PDR baseline/attack/defense = "
              f"{base:.3f}/{attack:.3f}/{defense:.3f}; "
              f"slowest arm {slowest:.1f}s")


def test_criterion_6_mobility_degradation(grid):
    results, _ = grid
    static = mean_pdr(results, "baseline", mobility=False)
    mobile = mean_pdr(results, "baseline", mobility=True)
    check(6, mobile < static,
          f"mobile baseline {mobile:.3f} not below static {static:.3f}")
    report(6, f"baseline PDR degrades static->mobile: {static:.3f} -> {mobile:.3f}")


def test_criterion_7_power_ordering(grid):
    results, _ = grid
    for mobility in (False, True):
        base = mean_apc(results, "baseline", mobility)
        attack = mean_apc(results, "attack", mobility)
        defense = mean_apc(results, "defense", mobility)
        label = "mobile" if mobility else "static"
        check(7, attack > base,
              f"{label}: APC attack {attack:.5f} not above baseline {base:.5f}")
        check(7, defense <= 1.10 * attack,
              f"{label}: APC defense {defense:.5f} above 1.1 x attack {attack:.5f}")
    report(7, "APC(attack) > APC(baseline) in static and mobile; "
              "APC(defense) within +10% of APC(attack)")


def test_criterion_8_defense_completeness_soundness(grid):
    results, _ = grid
    forged_total = forged_nacked = 0
    genuine_nacked = 0
    genuine_acked = 0
    for counters, _, _ in results[("defense", False)]:
        forged_total += counters.forged_acked + counters.forged_nacked
        forged_nacked += counters.forged_nacked
        genuine_nacked += counters.genuine_nacked
        genuine_acked += counters.genuine_acked
    check(8, forged_total > 0, "no forged registrations reached the root")
    check(8, forged_nacked == forged_total,
          f"{forged_total - forged_nacked} forged DAOs accepted")
    check(8, genuine_nacked == 0, f"{genuine_nacked} genuine DAOs refused")
    check(8, genuine_acked > 0, "no genuine registrations observed")
    report(8, f"{forged_nacked}/{forged_total} forged refused, "
              f"{genuine_acked} genuine accepted, 0 genuine refused")


def test_criterion_9_encrypted_variant():
    rng = random.Random(90)
    for _ in range(1000):
        key = rng.randbytes(16)
        lic = rng.randrange(256)
        nonce = rng.randbytes(NONCE_LEN)
        check(9, decrypt_license(key, encrypt_license(key, lic, nonce)) == lic,
              "encrypted round trip broke")
    db = CRDatabase()
    db.entries["S1"] = (0b01110101, 0b10110101)
    right = rng.randbytes(16)
    n, accepted = 10_000, 0
    for _ in range(n):
        blob = encrypt_license(right, 0b11000000, rng.randbytes(NONCE_LEN))
        accepted += db.verify("S1", decrypt_license(rng.randbytes(16), blob))
    p = 1 / 256
    sigma = math.sqrt(n * p * (1 - p))
    check(9, abs(accepted - n * p) <= 3 * sigma,
          f"wrong-key acceptance {accepted} outside {n * p:.1f} +/- {3 * sigma:.1f}")
    report(9, f"1000 round trips exact; wrong-key acceptance {accepted} "
              f"within 3 sigma of {n * p:.1f}")


def test_criterion_10_determinism(tmp_path):
    scenario = tmp_path / "det.scenario"
    scenario.write_text(
        "grid_m = 120\nn_clients = 8\nn_attackers = 1\nduration_s = 420\n"
        "startup_stagger_s = 120\ndata_warmup_s = 180\nseeds = 2\n"
        "arms = baseline,attack,defense\n")
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["--scenario", str(scenario), "--trace", "on",
                     "--out", str(out)])
        check(10, code == 0, "CLI invocation failed")
        runs = (out / "runs.csv").read_bytes()
        traces = b"".join(p.read_bytes() for p in sorted(out.glob("trace-*.log")))
        blobs.append((runs, traces))
    check(10, blobs[0] == blobs[1], "reruns produced different bytes")
    report(10, "two invocations produced byte-identical runs.csv and traces")


def test_criterion_11_trickle_recurrence():
    rng = random.Random(7)
    t = TrickleState.start(SimParams(), rng, 0.0)
    seen = [t.interval]
    for _ in range(4):
        t.step(rng, t.t_fire)
        seen.append(t.interval)
    check(11, seen == [4, 8, 16, 32, 64], f"quiet intervals {seen}")
    t.reset(rng, 500.0)
    check(11, t.interval == 4, f"reset interval {t.interval} != i_min")
    report(11, "quiet intervals 4,8,16,32,64 s; reset returns to i_min")
