"""The benchmark's probe (bench/probe.py) patches and reads simulator names:
World._distance, the five-argument World.schedule, the three-argument
write_report, World.start_times, the NodeState handlers, World._on_mobility,
engine._connected and CRDatabase.verify.  A rename in `src/` breaks the
benchmark, so the probe is installed here on a small mobile experiment."""

from pathlib import Path

import pytest

from lisec_rtf import experiment
from lisec_rtf.config import SimParams
from lisec_rtf.engine import World
from lisec_rtf.node import NodeState
from lisec_rtf.scenario import Scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_probe_installs_runs_and_leaves_no_patch(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    pytest.importorskip("numpy")
    from pace import Pace
    from probe import NODE_HANDLERS, Probe, Tracer

    world_before, node_before = dict(vars(World)), dict(vars(NodeState))
    scenario = Scenario(params=SimParams(duration_s=120.0, startup_stagger_s=0.0,
                                         data_warmup_s=0.0, grid_m=150.0),
                        n_clients=8, mobility=True, arms=("defense",), seeds=(0,))
    tracer = Tracer()
    probe = Probe(Pace(), tracer)
    try:
        tracer.install()
        probe.install()
        experiment.run_experiment(scenario, out_dir=tmp_path)
    finally:
        probe.uninstall()
        tracer.uninstall()
    assert dict(vars(World)) == world_before
    assert dict(vars(NodeState)) == node_before
    # every wrapper was reached: the run, its build and report, each handler
    (record,) = probe.records
    assert record.arm == "defense" and record.mobile and record.placement
    assert tracer.topology_attempts > 0 and tracer.report_bytes > 0
    assert tracer.queue_peak > 0 and tracer.events > 0
    # every transmission passes through World.transmit, where the tracer counts it
    assert tracer.calls["engine.transmit"] == sum(
        r.counters.data_transmissions + r.counters.control_transmissions
        for r in probe.records)
    for layer in ("engine.mobility", "puf.verify", "experiment.write_report",
                  *(f"node.{name}" for name in NODE_HANDLERS)):
        assert tracer.calls[layer] > 0, layer
