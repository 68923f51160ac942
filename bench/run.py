"""Host-time benchmark of the lisec-rtf simulator.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

One run repeats whole rounds of one workload's fixed inputs for S seconds.
The inputs come from the seed base N x 1000.  The first round's outputs are
checked against properties computed here (see checks.py), and every later
round must reproduce them exactly.

Every time is scaled to a reference host speed by calibration chunks run
next to it (see pace.py).  With --trace 0 the run reports the end-to-end
metrics (wall_s, run_p50_s, setup_s, peak_rss_mb), each part of a round at
its median over the rounds (see _median_parts).  With --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced rounds and the tracing overhead.  The last line of stdout is one
JSON object.  Without --workload every workload runs, one after another,
each in a process of its own so that its peak memory is its own.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "_out"

if not (SRC / "lisec_rtf" / "__init__.py").is_file():
    sys.exit(f"error: no lisec_rtf sources under {SRC}")
sys.path.insert(0, str(SRC))
os.environ.pop("LISEC_SEED_BASE", None)   # inputs come from --seed alone

from pace import Pace  # noqa: E402
from probe import NODE_HANDLERS, Probe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED_STRIDE = 1000   # seed bases of different --seed values never overlap


@dataclass
class Round:
    """What is kept of one round once its outputs have been checked."""

    wall_s: float      # unscaled, for the log
    rest_s: float      # the round outside builds and runs, scaled
    run_s: dict        # (arm, seed, mobile) -> World.run() time, scaled
    build_s: dict      # (arm, seed, mobile) -> build_random_world time, scaled
    layers: dict | None  # per-layer figures of a traced round

    @property
    def scaled_s(self) -> float:
        return sum(self.run_s.values()) + sum(self.build_s.values()) + self.rest_s


def _fingerprint(records, result: Path) -> dict:
    """Simulated outputs per run, and a hash of every file written."""
    out = {rec.key: (rec.digest, rec.counters.received_at_root,
                     sum(rec.counters.sent_per_node.values()),
                     sum(rec.counters.delays),
                     tuple((l.tx_s, l.rx_s, l.cpu_s)
                           for l in rec.counters.ledgers.values()),
                     rec.counters.forged_acked, rec.counters.forged_nacked,
                     rec.counters.genuine_acked, rec.counters.genuine_nacked)
           for rec in records}
    for path in sorted(result.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(result))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def run_round(workload, traced: bool) -> tuple[Round, list, dict]:
    """One pass over the workload: its timings, run records and failures."""
    shutil.rmtree(workload.result, ignore_errors=True)
    workload.result.mkdir(parents=True)
    tracer = Tracer() if traced else None
    pace = Pace()
    probe = Probe(pace, tracer)
    gc.collect()
    if tracer is not None:
        tracer.install()
    probe.install()
    try:
        t0 = perf_counter()
        failed = workload.run(probe)
        wall = perf_counter() - t0 - probe.hook_s
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, pace.factor())
        tracer.write_spans(workload.work / "spans.npz")
    timings = Round(wall, (wall - probe.timed_s) * pace.factor(),
                    {r.key: r.run_s for r in probe.records},
                    {r.key: r.build_s for r in probe.records}, layers)
    return timings, probe.records, failed


def _compare(reference: dict, fingerprint: dict, keys: list) -> dict:
    failed = {}
    for name in reference.keys() | fingerprint.keys():
        if reference.get(name) == fingerprint.get(name):
            continue
        hit = [name] if name in keys else keys
        for key in hit:
            failed.setdefault(key, []).append(f"{name} differs from round 1")
    return failed


def _median_parts(rounds: list) -> tuple[dict, dict, float]:
    """Median over the rounds of each scaled part of the workload.

    The parts are every (arm, seed) run's World.run() and
    build_random_world, and the rest of the round (aggregation, writing).
    """
    run = {key: statistics.median(r.run_s[key] for r in rounds)
           for key in rounds[0].run_s}
    build = {key: statistics.median(r.build_s[key] for r in rounds)
             for key in rounds[0].build_s}
    return run, build, statistics.median(r.rest_s for r in rounds)


def layer_metrics(tr: Tracer, factor: float) -> dict:
    """Per-layer figures of one traced round: (value, unit) by name.

    Times are scaled by `factor`, the round's calibration (pace.py).
    """
    st, calls = tr.self_times(), tr.calls
    st = {layer: t * factor for layer, t in st.items()}
    m = {
        "engine.events": (tr.events, "count"),
        "engine.queue_peak": (tr.queue_peak, "count"),
        "engine.transmit_calls": (calls["engine.transmit"], "count"),
        "engine.transmit_s": (st["engine.transmit"], "s"),
        "engine.radio_hit_ratio": (
            tr.broadcast_deliveries / tr.broadcast_examined
            if tr.broadcast_examined else 0.0, "ratio"),
        "engine.mobility_s": (st["engine.mobility"], "s"),
        "engine.run_self_s": (st["engine.run"], "s"),
        "engine.topology_attempts": (
            tr.topology_attempts / max(calls["engine.build"], 1), "tries/build"),
    }
    for name in NODE_HANDLERS:
        m[f"node.{name}_calls"] = (calls[f"node.{name}"], "count")
        m[f"node.{name}_s"] = (st[f"node.{name}"], "s")
    m.update({
        "node.blacklist_peak": (tr.blacklist_peak, "count"),
        "node.rt_peak": (tr.rt_peak, "count"),
        "messages.encode_dao_calls": (calls["messages.encode_dao"], "count"),
        "messages.encode_dao_s": (st["messages.encode_dao"], "s"),
        "messages.format_address_calls": (calls["messages.format_address"], "count"),
        "messages.format_address_s": (st["messages.format_address"], "s"),
        "puf.verify_calls": (calls["puf.verify"], "count"),
        "puf.verify_s": (st["puf.verify"], "s"),
        "puf.encrypt_s": (st["puf.encrypt"], "s"),
        "puf.decrypt_calls": (calls["puf.decrypt"], "count"),
        "puf.decrypt_s": (st["puf.decrypt"], "s"),
        "metrics.apc_s": (st["metrics.apc"], "s"),
        "metrics.summarize_s": (st["metrics.summarize"], "s"),
        "experiment.write_report_s": (st["experiment.write_report"], "s"),
        "experiment.report_bytes": (tr.report_bytes, "bytes"),
        "experiment.trace_lines": (tr.trace_lines, "count"),
        "scenario.parse_s": (st["scenario.parse"], "s"),
        "cli.main_s": (st["cli.main"], "s"),
    })
    return m


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed * SEED_STRIDE, work)
    keys = workload.expected()
    rounds, problems = [], []
    attempted = failed_runs = 0
    verdict = None      # round 1's check results, shared by identical rounds
    t_start = perf_counter()
    longest = 0.0
    while True:
        t_round = perf_counter()
        r, records, failed = run_round(workload, traced=trace and len(rounds) % 2 == 1)
        fingerprint = _fingerprint(records, workload.result)
        if verdict is None:
            verdict = workload.check(records)
            reference = fingerprint
        else:
            for key, why in _compare(reference, fingerprint, keys).items():
                failed.setdefault(key, []).extend(why)
        del records     # memory held across rounds would inflate peak_rss_mb
        for key, why in verdict.items():
            for k in (keys if key is None else [key]):
                failed.setdefault(k, []).extend(why)
        attempted += len(keys)
        failed_runs += len(failed)
        problems += [f"round {len(rounds) + 1} {k}: {w}"
                     for k, ws in failed.items() for w in ws]
        rounds.append(r)
        longest = max(longest, perf_counter() - t_round)
        # stop before a round that would run past the measuring time
        if (perf_counter() - t_start + longest > seconds
                and len(rounds) >= (2 if trace else 1)):
            break

    correct = failed_runs == 0
    plain = [r for r in rounds if r.layers is None]
    run_s, build_s, rest = _median_parts(plain)
    if trace:
        traced = [r for r in rounds if r.layers is not None]
        per_round = [r.layers for r in traced]
        metrics = {}
        for metric, (value, unit) in per_round[0].items():
            values = [m[metric][0] for m in per_round]
            if unit == "s":
                value = statistics.median(values)
            elif len(set(values)) != 1:
                correct = False
                problems.append(f"{metric} differs between traced rounds: {values}")
            metrics[metric] = (value, unit)
        metrics["engine.us_per_event"] = (sum(run_s.values()) / max(
            per_round[0]["engine.events"][0], 1) * 1e6, "us")
        metrics["trace.overhead_s"] = (
            statistics.median(r.scaled_s for r in traced)
            - statistics.median(r.scaled_s for r in plain), "s")
    else:
        metrics = {
            "wall_s": (sum(run_s.values()) + sum(build_s.values()) + rest, "s"),
            "run_p50_s": (statistics.median(run_s.values()), "s"),
            "setup_s": (sum(build_s.values()), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    for line in problems[:50]:
        print(f"FAILED {line}", file=sys.stderr)
    digest = hashlib.sha256(repr(sorted(
        (str(k), v) for k, v in reference.items())).encode()).hexdigest()
    print(f"{name}: {len(rounds)} rounds, {attempted} (arm, seed) runs attempted, "
          f"{failed_runs} failed; outputs sha256 {digest[:16]}")
    print(f"{name}: round wall_s measured/scaled " + " ".join(
        f"{r.wall_s:.3f}/{r.scaled_s:.3f}{'*' if r.layers else ''}" for r in rounds))
    for metric, (value, unit) in metrics.items():
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        print(f"{name:16s} {metric:32s} {text:>16s} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed_runs,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in turn, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if args.workload is None:
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
