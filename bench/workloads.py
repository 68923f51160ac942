"""The benchmark's workloads.

Each one turns a seed base into fixed inputs, runs one round of calls into
the program's public entry points, and checks what that round produced.
Run keys are (arm, seed, mobile).  `run` returns the keys that failed with
a reason; `check` returns reasons per key for outputs that break a
property, with `None` standing for every key of the round.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import checks
from lisec_rtf import cli
from lisec_rtf.config import ARMS, SimParams
from lisec_rtf.engine import SetupError
from lisec_rtf.experiment import run_experiment
from lisec_rtf.scenario import Scenario

PAPER_ARMS = ("baseline", "attack", "defense")


def _add(errors: dict, key, messages: list[str]) -> None:
    if messages:
        errors.setdefault(key, []).extend(messages)


class Workload:
    name = ""

    def __init__(self, base: int, work: Path):
        self.base = base
        self.work = work
        self.result = work / "result"


class DeskMatrix(Workload):
    name = "desk-matrix"
    n_seeds = 10

    def __init__(self, base: int, work: Path):
        super().__init__(base, work)
        self.scenarios = {
            mobile: Scenario(n_clients=26, n_attackers=3, mobility=mobile,
                             arms=list(PAPER_ARMS), seeds=list(range(self.n_seeds)))
            for mobile in (False, True)}

    def _out(self, mobile: bool) -> Path:
        return self.result / ("mobile" if mobile else "static")

    def expected(self) -> list[tuple]:
        return [(arm, self.base + s, mobile) for mobile in (False, True)
                for arm in PAPER_ARMS for s in range(self.n_seeds)]

    def run(self, probe) -> dict:
        failed = {}
        for mobile, scenario in self.scenarios.items():
            try:
                run_experiment(scenario, out_dir=self._out(mobile), base=self.base)
            except SetupError as exc:
                for key in self.expected():
                    if key[2] == mobile:
                        failed[key] = [f"SetupError: {exc}"]
        return failed

    def check(self, records) -> dict:
        errors = checks.check_cross_arm(records)
        for rec in records:
            lossless = (rec.arm == "baseline" and not rec.mobile
                        and rec.params.loss_prob == 0)
            _add(errors, rec.key, checks.check_run(rec, lossless))
        if len(records) == len(self.expected()):
            claims, note = checks.check_paper_claims(records)
            _add(errors, None, claims)
            print(f"{self.name}: {note}")
        for mobile in (False, True):
            out = self._out(mobile)
            if (out / "summary.csv").exists():  # absent after a SetupError
                _add(errors, None, checks.check_reports(
                    [r for r in records if r.mobile == mobile],
                    (out / "runs.csv").read_text(), (out / "summary.csv").read_text()))
        return errors


class ScaledStatic(Workload):
    name = "scaled-static"
    n_seeds = 3
    arms = ("baseline", "defense")

    def __init__(self, base: int, work: Path):
        super().__init__(base, work)
        self.params = SimParams(grid_m=400.0, rt_cap=200, root_rt_cap=0)

    def expected(self) -> list[tuple]:
        return [(arm, self.base + s, False) for s in range(self.n_seeds)
                for arm in self.arms]

    def run(self, probe) -> dict:
        failed = {}
        for arm, seed, _ in self.expected():
            try:
                world = probe.build(self.params, ARMS[arm], seed, n_clients=200,
                                    n_attackers=3, mobility=False)
            except SetupError as exc:
                failed[(arm, seed, False)] = [f"SetupError: {exc}"]
                continue
            world.run()
            del world
        return failed

    def check(self, records) -> dict:
        errors = checks.check_cross_arm(records)
        for rec in records:
            _add(errors, rec.key, checks.check_run(rec, lossless_static_pdr=True))
        return errors


class EncryptedTrace(Workload):
    name = "encrypted-trace"
    n_seeds = 10
    arms = ("baseline", "attack", "defense_encrypted")

    def __init__(self, base: int, work: Path):
        super().__init__(base, work)
        self.scenario = work / "encrypted.scenario"
        seeds = ",".join(str(base + s) for s in range(self.n_seeds))
        self.scenario.write_text(
            "n_clients = 26\nn_attackers = 3\nforged_per_period = 16\n"
            f"mobility = off\narms = baseline,attack,defense\nseeds = {seeds}\n",
            encoding="utf-8")

    def expected(self) -> list[tuple]:
        return [(arm, self.base + s, False) for arm in self.arms
                for s in range(self.n_seeds)]

    def run(self, probe) -> dict:
        argv = ["--scenario", str(self.scenario), "--encrypted", "on",
                "--trace", "on", "--out", str(self.result)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return {key: [f"CLI exit code {code}"] for key in self.expected()}
        return {}

    def check(self, records) -> dict:
        errors = checks.check_cross_arm(records)
        for rec in records:
            lossless = rec.arm == "baseline" and rec.params.loss_prob == 0
            _add(errors, rec.key, checks.check_run(rec, lossless))
            trace = self.result / f"trace-{rec.arm}-{rec.seed}.log"
            _add(errors, rec.key, checks.check_trace(trace, rec))
        if (self.result / "summary.csv").exists():  # absent if the CLI failed
            _add(errors, None, checks.check_reports(
                records, (self.result / "runs.csv").read_text(),
                (self.result / "summary.csv").read_text()))
        return errors


WORKLOADS = {w.name: w for w in (DeskMatrix, ScaledStatic, EncryptedTrace)}
