"""Golden-behaviour lock: SHA-256 of a small fixed scenario matrix.

Every arm, static and mobile, tracing on, two seeds, a shortened run, each
(arm, mobility) run through `run_experiment` as the command line runs it.
Per (arm, mobility) the lock holds the hashes of `runs.csv`, `summary.csv`
and each `trace-<arm>-<seed>.log`, and each run's `World.digest()`.  A change
that must keep behaviour reproduces `golden.json` unmodified; a change that
alters behaviour regenerates the entries it alters and says why:

    PYTHONPATH=src python tests/test_golden.py [ARM ...]

With no arm named, every entry is rewritten.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

from lisec_rtf import experiment
from lisec_rtf.config import ARMS, SimParams
from lisec_rtf.experiment import run_experiment
from lisec_rtf.scenario import Scenario

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 1)


def _scenario(mobility: bool) -> Scenario:
    params = SimParams(duration_s=300.0, grid_m=140.0, startup_stagger_s=60.0,
                       data_warmup_s=120.0, rt_cap=6, root_rt_cap=24,
                       loss_prob=0.02)
    return Scenario(params=params, n_clients=12, n_attackers=1,
                    mobility=mobility, seeds=list(SEEDS))


def entry_name(arm: str, mobility: bool) -> str:
    return f"{arm}/{'mobile' if mobility else 'static'}"


def compute(arms=ARMS) -> dict:
    """Hashes of every output of the matrix, keyed by entry_name()."""
    build_random_world = experiment.build_random_world
    built = []  # the world of each run, to take its digest after the run

    def build(*args, **kwargs):
        built.append(build_random_world(*args, **kwargs))
        return built[-1]

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(experiment, "build_random_world", build):
        golden = {}
        for arm in arms:
            for mobility in (False, True):
                scenario = replace(_scenario(mobility), arms=[arm])
                out = Path(tmp) / entry_name(arm, mobility).replace("/", "-")
                run_experiment(scenario, out_dir=out, trace=True, base=0)
                hashes = {f"digest-{seed}": world.digest()
                          for seed, world in zip(scenario.seeds, built, strict=True)}
                built.clear()
                for path in sorted(out.iterdir()):
                    hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
                golden[entry_name(arm, mobility)] = hashes
        return golden


def test_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute()
    assert actual.keys() == expected.keys()
    changed = [f"{entry} {name}" for entry in expected
               for name in expected[entry].keys() | actual[entry].keys()
               if expected[entry].get(name) != actual[entry].get(name)]
    assert not changed, "outputs differ from tests/golden.json: " + ", ".join(sorted(changed))


if __name__ == "__main__":
    names = sys.argv[1:] or list(ARMS)
    unknown = [a for a in names if a not in ARMS]
    if unknown:
        sys.exit(f"unknown arm(s): {', '.join(unknown)}")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden.update(compute(names))
    ordered = {entry_name(a, m): golden[entry_name(a, m)]
               for a in ARMS for m in (False, True) if entry_name(a, m) in golden}
    GOLDEN.write_text(json.dumps(ordered, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(ordered)} entries to {GOLDEN}")
