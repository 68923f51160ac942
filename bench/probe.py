"""Instrumentation the benchmark wraps around the simulator from outside.

`Probe` is always on.  It times each `build_random_world` call (set-up)
and each `World.run()` call between calibration chunks (see pace.py) and
keeps both times scaled to the reference speed.  After every run it
captures what the output checks need: the digest, the counters and the
node placement.  The time it spends on chunks and capturing is kept in
`hook_s` so that the caller can take it out of the workload's wall time.

`Tracer` is on only in traced rounds.  It records one span (layer, start,
end, parent) per call into each layer and a few counters, and derives
each layer's self time from the spans.  Functions that other modules
import by name are re-bound in every `lisec_rtf` module that holds them,
so a call is caught wherever the name is looked up.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from lisec_rtf import cli, engine, experiment, messages, metrics, node, puf, scenario
from lisec_rtf.engine import World
from pace import Pace

NODE_HANDLERS = ("handle_dio", "handle_dao", "root_handle_dao", "handle_status",
                 "trickle_fire", "build_own_dao", "emit_forged")


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, fn, wrapper) -> None:
        """Replace `fn` under every name a program module binds it to."""
        for name, module in list(sys.modules.items()):
            if name != "lisec_rtf" and not name.startswith("lisec_rtf."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@dataclass
class RunRecord:
    """What one (arm, seed) run left behind, for the output checks."""

    arm: str
    defense: bool
    encrypted: bool
    seed: int
    mobile: bool
    build_s: float        # both at the reference speed (pace.py)
    run_s: float
    digest: str
    counters: object
    params: object
    client_ids: list
    placement: dict       # node id -> (initial position, start time)
    final_positions: dict

    @property
    def key(self) -> tuple:
        return (self.arm, self.seed, self.mobile)


class Probe:
    def __init__(self, pace: Pace, tracer: "Tracer | None" = None):
        self.records: list[RunRecord] = []
        self.hook_s = 0.0
        self.timed_s = 0.0      # unscaled time of the builds and runs
        self._built: dict[int, tuple] = {}
        self._patches = _Patches()
        self._build_fn = None
        self._pace = pace
        self._chunk = pace.chunk
        self._sample = tracer is None   # no chunks inside traced spans
        if tracer is not None:
            # spans of their own keep these out of the callers' self time
            self._capture = tracer.span("bench.probe", self._capture)
            self._chunk = tracer.span("bench.pace", self._chunk)

    def install(self) -> None:
        self._build_fn = experiment.build_random_world
        self._patches.set(experiment, "build_random_world", self.build)
        self._patches.set(World, "run", self._wrap_run(World.run))

    def uninstall(self) -> None:
        self._patches.undo()

    def build(self, *args, **kwargs) -> World:
        h0 = perf_counter()
        before = self._chunk()
        t0 = perf_counter()
        world = self._build_fn(*args, **kwargs)
        t1 = perf_counter()
        after = self._chunk()
        # the chunk after the build is also the first one of the run
        self._built[id(world)] = (self._pace.scale(t1 - t0, before, after), after, {
            n: (world.positions[n], world.start_times[n]) for n in world.nodes})
        self.timed_s += t1 - t0
        self.hook_s += (t0 - h0) + (perf_counter() - t1)
        return world

    def _wrap_run(self, run):
        def timed_run(world):
            during, during_s = [], 0.0
            if self._sample:
                self._pace.start()
            try:
                t0 = perf_counter()
                counters = run(world)
                t1 = perf_counter()
            finally:
                if self._sample:
                    during, during_s = self._pace.stop()
            after = self._chunk()
            self._capture(world, counters, t1 - t0 - during_s, [*during, after])
            self.timed_s += t1 - t0 - during_s
            self.hook_s += perf_counter() - t1 + during_s
            return counters
        return timed_run

    def _capture(self, world, counters, seconds: float, chunks: list) -> None:
        build_s, before, placement = self._built.pop(id(world))
        run_s = self._pace.scale(seconds, before, *chunks)
        self.records.append(RunRecord(
            arm=world.arm.name, defense=world.arm.defense,
            encrypted=world.arm.encrypted, seed=world.seed,
            mobile=bool(world.mobility), build_s=build_s, run_s=run_s,
            digest=world.digest(), counters=counters, params=world.params,
            client_ids=[n.node_id for n in world.nodes.values()
                        if n.role.value == "client"],
            placement=placement, final_positions=dict(world.positions)))


class Tracer:
    """Spans around calls into each layer, plus counters at the same calls."""

    def __init__(self):
        self.layers: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patches = _Patches()
        self.calls: dict[str, int] = {}
        self.events = 0
        self.queue_peak = 0
        self._pending = 0
        self.broadcast_examined = 0
        self.broadcast_deliveries = 0
        self._in_broadcast = False
        self.topology_attempts = 0
        self.blacklist_peak = 0
        self.rt_peak = 0
        self.report_bytes = 0
        self.trace_lines = 0

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, fn):
        """Wrap `fn` so that every call records a span of `layer`."""
        code = len(self.layers)
        self.layers.append(layer)
        self.calls[layer] = 0
        calls = self.calls
        stack = self._stack
        layers, parents = self.span_layer, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            i = len(layers)
            layers.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, per layer."""
        if not self.span_layer:
            return {layer: 0.0 for layer in self.layers}
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.bincount(layer, weights=dur - child, minlength=len(self.layers))
        return {name: float(own[i]) for i, name in enumerate(self.layers)}

    def write_spans(self, path: Path) -> None:
        np.savez(path, layers=np.array(self.layers),
                 layer=np.frombuffer(self.span_layer, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        p = self._patches
        for fn, layer in ((engine.build_random_world, "engine.build"),
                          (messages.encode_dao, "messages.encode_dao"),
                          (messages.format_address, "messages.format_address"),
                          (puf.encrypt_license, "puf.encrypt"),
                          (puf.decrypt_license, "puf.decrypt"),
                          (metrics.apc, "metrics.apc"),
                          (experiment.summarize, "metrics.summarize"),
                          (scenario.parse_scenario, "scenario.parse"),
                          (cli.main, "cli.main")):
            p.rebind(fn, self.span(layer, fn))
        p.set(engine, "_connected", self._count_attempts(engine._connected))
        p.rebind(experiment.write_report, self._wrap_write_report(
            self.span("experiment.write_report", experiment.write_report)))
        p.set(puf.CRDatabase, "verify",
              self.span("puf.verify", puf.CRDatabase.verify))
        for name in NODE_HANDLERS:
            wrapped = self.span(f"node.{name}", getattr(node.NodeState, name))
            if name == "handle_dao":
                wrapped = self._watch_routing(wrapped)
            p.set(node.NodeState, name, wrapped)
        p.set(World, "run", self._wrap_run(self.span("engine.run", World.run)))
        p.set(World, "transmit",
              self._wrap_transmit(self.span("engine.transmit", World.transmit)))
        p.set(World, "_on_mobility",
              self.span("engine.mobility", World._on_mobility))
        p.set(World, "_dispatch", self._wrap_dispatch(World._dispatch))
        p.set(World, "schedule", self._wrap_schedule(World.schedule))
        p.set(World, "_distance", self._wrap_distance(World._distance))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- counters ----------------------------------------------------------

    def _count_attempts(self, fn):
        def wrapper(*args, **kwargs):
            self.topology_attempts += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_run(self, run):
        def wrapper(world):
            self._pending = 0
            counters = run(world)
            self.blacklist_peak = max(self.blacklist_peak, max(
                len(n.blacklist) for n in world.nodes.values()))
            return counters
        return wrapper

    def _wrap_dispatch(self, dispatch):
        def wrapper(world, event):
            self.events += 1
            self._pending -= 1
            dispatch(world, event)
        return wrapper

    def _wrap_schedule(self, schedule):
        # queue length = scheduled - dispatched, read at the calls themselves
        def wrapper(world, time, kind, node_id=None, payload=None):
            schedule(world, time, kind, node_id, payload)
            self._pending += 1
            if self._pending > self.queue_peak:
                self.queue_peak = self._pending
            if self._in_broadcast and kind == "deliver":
                self.broadcast_deliveries += 1
        return wrapper

    def _wrap_transmit(self, transmit):
        def wrapper(world, sender, dest, message):
            self._in_broadcast = dest is None
            try:
                return transmit(world, sender, dest, message)
            finally:
                self._in_broadcast = False
        return wrapper

    def _wrap_distance(self, distance):
        def wrapper(world, a, b):
            if self._in_broadcast:
                self.broadcast_examined += 1
            return distance(world, a, b)
        return wrapper

    def _watch_routing(self, handle_dao):
        def wrapper(state, *args, **kwargs):
            out = handle_dao(state, *args, **kwargs)
            if len(state.routing) > self.rt_peak:
                self.rt_peak = len(state.routing)
            return out
        return wrapper

    def _wrap_write_report(self, write_report):
        def wrapper(report, traces, out_dir):
            write_report(report, traces, out_dir)
            self.trace_lines += sum(len(lines) for lines in traces.values())
            self.report_bytes += sum(f.stat().st_size
                                     for f in Path(out_dir).iterdir())
        return wrapper
