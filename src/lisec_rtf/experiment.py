"""Experiment orchestration: one world per (arm, seed), CSV reports.

Outputs land in the chosen directory as `runs.csv` (one row per run),
`summary.csv` (per-arm mean and 95% CI half-width across seeds; `nan` when
fewer than two seeds give a value) and, when tracing is on,
`trace-<arm>-<seed>.log` in the shared trace format.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .config import ARMS
from .engine import build_random_world
from .metrics import MetricUndefinedError, aggregate_ci, ae2ed, apc, pdr
from .scenario import Scenario, ScenarioError

RUNS_HEADER = "arm,seed,attackers,mobility,pdr,ae2ed_s,apc_mw,n_blacklist,rt_peak"
SUMMARY_HEADER = ("arm,attackers,mobility,pdr_mean,pdr_ci95,"
                  "ae2ed_s_mean,ae2ed_s_ci95,apc_mw_mean,apc_mw_ci95")


@dataclass
class RunResult:
    arm: str
    seed: int
    attackers: int
    mobility: bool
    pdr: float
    ae2ed_s: float
    apc_mw: float
    n_blacklist: int
    rt_peak: int

    def csv_row(self) -> str:
        return (f"{self.arm},{self.seed},{self.attackers},"
                f"{'on' if self.mobility else 'off'},"
                f"{self.pdr:.6f},{self.ae2ed_s:.6f},{self.apc_mw:.6f},"
                f"{self.n_blacklist},{self.rt_peak}")


@dataclass
class ExperimentReport:
    rows: list
    summary: list  # dict per arm


def run_single(scenario: Scenario, arm_name: str, seed: int,
               trace: TextIO | None = None,
               placements: dict | None = None) -> RunResult:
    """Build and run one world of one of the scenario's arms; `placements`
    is passed to `build_random_world` as its placement memo."""
    if arm_name not in scenario.arms:  # only its arms were checked for an attacker
        raise ScenarioError(f"arms: {arm_name!r} is not an arm of this scenario")
    arm = ARMS[arm_name]
    # malicious nodes are placed in every arm (identical topology per seed)
    # but only emit volleys when the arm switches the attack on
    world = build_random_world(scenario.params, arm, seed,
                               n_clients=scenario.n_clients,
                               n_attackers=scenario.n_attackers,
                               mobility=scenario.mobility,
                               trace=trace, placements=placements)
    counters = world.run()
    try:
        delay = ae2ed(counters)
    except MetricUndefinedError:
        delay = math.nan
    return RunResult(
        arm=arm_name, seed=seed, attackers=scenario.n_attackers,
        mobility=scenario.mobility,
        pdr=pdr(counters), ae2ed_s=delay,
        apc_mw=apc(counters, scenario.params.duration_s, scenario.params),
        n_blacklist=counters.n_blacklisted, rt_peak=counters.rt_peak)


def summarize(rows: list) -> list:
    out = []
    for arm in dict.fromkeys(row.arm for row in rows):  # first-seen order
        group = [r for r in rows if r.arm == arm]
        entry = {"arm": arm, "attackers": group[0].attackers,
                 "mobility": group[0].mobility}
        for attr in ("pdr", "ae2ed_s", "apc_mw"):
            values = [getattr(r, attr) for r in group
                      if not math.isnan(getattr(r, attr))]
            if len(values) >= 2:
                mean, half = aggregate_ci(values)
            elif values:
                mean, half = values[0], math.nan  # one sample: no CI
            else:
                mean, half = math.nan, math.nan
            entry[f"{attr}_mean"] = mean
            entry[f"{attr}_ci95"] = half
        out.append(entry)
    return out


def run_experiment(scenario: Scenario, out_dir=None, trace: bool = False,
                   base: int = 0) -> ExperimentReport:
    """Run every (arm, seed) of `scenario` at run seed `base + seed`, then
    write the report.

    With tracing on, each run streams its trace into a hidden file in
    `out_dir`, which takes its final name only when the whole matrix has
    run: no trace is held in memory, and an experiment that fails part way
    leaves no trace file behind.

    Seeds go in the outer loop.  A seed's arms share one placement memo, so
    the first arm's placement search, trajectory and radio ranges serve the
    others (a static trajectory never steps); the memo goes before the next
    seed, so one trajectory is alive at a time.  Rows are reported arm by arm.
    """
    if trace and out_dir is None:
        raise ValueError("trace=True needs out_dir: each run's trace streams into a file there")
    if base + min(scenario.seeds) < 0:
        raise ScenarioError(f"base: run seed {base + min(scenario.seeds)} is negative")
    out = None if out_dir is None else Path(out_dir)
    if out is not None:  # an unwritable directory fails before any run
        out.mkdir(parents=True, exist_ok=True)
    by_arm: dict[str, list] = {arm_name: [] for arm_name in scenario.arms}
    staged = []  # (hidden path, final path) per trace written so far
    try:
        for s in scenario.seeds:
            placements: dict = {}
            for arm_name in scenario.arms:
                stream = nullcontext()
                if trace:
                    final = _trace_path(out, arm_name, base + s)
                    hidden = final.with_name(f".{final.name}.part")
                    staged.append((hidden, final))
                    stream = hidden.open("w", encoding="utf-8")
                with stream as sink:
                    by_arm[arm_name].append(run_single(
                        scenario, arm_name, base + s, trace=sink,
                        placements=placements))
    except BaseException:
        for hidden, _ in staged:
            hidden.unlink(missing_ok=True)
        raise
    for hidden, final in staged:
        hidden.replace(final)
    rows = [row for arm_rows in by_arm.values() for row in arm_rows]
    report = ExperimentReport(rows=rows, summary=summarize(rows))
    if out is not None:
        write_report(report, {}, out)
    return report


def _trace_path(out: Path, arm: str, seed: int) -> Path:
    return out / f"trace-{arm}-{seed}.log"


def write_report(report: ExperimentReport, traces: dict, out_dir) -> None:
    """Write runs.csv and summary.csv.  Each run streams its own trace file,
    so `traces` must be empty."""
    if traces:
        raise ValueError("write_report writes no traces: each run streams its own")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = [RUNS_HEADER] + [r.csv_row() for r in report.rows]
    (out / "runs.csv").write_text("\n".join(runs) + "\n", encoding="ascii")
    lines = [SUMMARY_HEADER]
    for entry in report.summary:
        lines.append(
            f"{entry['arm']},{entry['attackers']},"
            f"{'on' if entry['mobility'] else 'off'},"
            f"{entry['pdr_mean']:.6f},{entry['pdr_ci95']:.6f},"
            f"{entry['ae2ed_s_mean']:.6f},{entry['ae2ed_s_ci95']:.6f},"
            f"{entry['apc_mw_mean']:.6f},{entry['apc_mw_ci95']:.6f}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
