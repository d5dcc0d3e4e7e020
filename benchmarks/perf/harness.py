"""The measurement loop, the tracer, and the metrics both produce.

:func:`measure` sets a workload up, then runs a closed loop — one op at
a time, the next only after the previous one is verified — for a fixed
number of ops, so two builds being compared time the same ops.  Every
op is checked: an op that misses its pin or breaks an invariant counts
as failed.

A bare run times each op's CPU time while a :class:`yardstick.Probe`
samples the host's speed during the op; an op's reported time is its
CPU time rescaled to the yardstick's reference speed
(``OpRecord.scaled_ms``).  CPU time leaves out the time the host's
hypervisor gives to other guests, and the rescaling cancels how fast
the host runs Python at the moment.

With ``trace=True`` a :class:`Tracer` wraps the public call into each
layer (spans with name, start, end, parent and op id), and ops run in
an ABBA order — bare, traced, traced, bare — so linear drift such as
the per-op growth of ``mdstep`` cancels out of the tracing overhead.
Each traced op also gets a fresh engine profiler, whose per-component
totals tile the run loop's wall time exactly; together with the spans
they split the op's whole wall time across layers.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
from dataclasses import dataclass, field
from time import monotonic_ns, perf_counter_ns, thread_time_ns
from typing import Any, Optional

import yardstick
from workloads import check_pins

#: Span name → the layer its self time is charged to.  The op span is
#: the harness's own time between the calls it makes into the layers.
SPAN_LAYER = {
    "op": "bench",
    "Simulator.run": "engine",
    "build_dhfr_md": "md",
    "AntonMD.run_step": "md",
    "AllReduce.run": "comm",
    "build_machine": "asic",
    "compile_pattern": "network",
    "Network.register_pattern": "network",
    "run_experiment": "runner",
    "build_congestion_tree": "congestion",
    "decompose_run": "congestion",
}

#: Layers every workload runs through, reported as ``<layer>.self_s``.
SELF_LAYERS = ("engine", "network", "asic")

#: Layers only some workloads reach: their self time is an extra,
#: printed where it is not zero.
WORKLOAD_LAYERS = ("md", "comm", "runner")

#: Bare ``run_experiment`` calls timed for the base of ``trace.capture_x``.
CAPTURE_REFERENCE_RUNS = 5


def _targets() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) of every wrapped public call."""
    from repro.analysis import mdstep
    from repro.asic import node
    from repro.comm.collectives import AllReduce
    from repro.congestion import decompose, tree
    from repro.engine.simulator import Simulator
    from repro.md.machine import AntonMD
    from repro.network import multicast
    from repro.network.network import Network
    from repro.runner import result

    return [
        (Simulator, "run", "Simulator.run"),
        (AntonMD, "run_step", "AntonMD.run_step"),
        (AllReduce, "run", "AllReduce.run"),
        (Network, "register_pattern", "Network.register_pattern"),
        (mdstep, "build_dhfr_md", "build_dhfr_md"),
        (node, "build_machine", "build_machine"),
        (multicast, "compile_pattern", "compile_pattern"),
        (result, "run_experiment", "run_experiment"),
        (tree, "build_congestion_tree", "build_congestion_tree"),
        (decompose, "decompose_run", "decompose_run"),
    ]


class Tracer:
    """Spans around the public calls into each layer, plus GC timing.

    Module-level functions are also rebound in every ``repro`` module
    that imported them by name (``from … import compile_pattern``), so
    internal callers are traced too.  Recording is on only while
    :attr:`enabled`; a disabled wrapper costs one attribute test.
    """

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or None, op id]
        self.spans: list[list] = []
        self.enabled = False
        self.op: Any = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._gc_start = 0
        #: GC wall ns and collections per generation while enabled.
        self.gc_ns = 0
        self.gc_counts = [0, 0, 0]

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("repro") and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter_ns(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_start
            self.gc_counts[info["generation"]] += 1

    def span_docs(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    out = [end - start for _n, start, end, _p, _op in spans]
    for _n, start, end, parent, _op in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


@dataclass
class OpRecord:
    index: int
    traced: bool
    wall_ns: int
    facts: dict
    problems: list[str]
    rss_bytes: int
    parts_s: Optional[dict] = None
    #: Bare ops of a bare run only: the op's CPU ns without the probe's
    #: own time (which ``wall_ns`` leaves out too), and the yardstick ns
    #: during it (``yardstick.Probe.since``).
    cpu_ns: int = 0
    yardstick_ns: float = 0.0
    #: Traced ops only: layer → self ns (tiles ``wall_ns`` exactly).
    layers: dict = field(default_factory=dict)
    loop_ns: int = 0
    profile: Optional[dict] = None
    gc_ns: int = 0
    gc_counts: tuple = (0, 0, 0)
    runner_overhead_ns: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def scaled_ms(self) -> float:
        """CPU ms at the yardstick's reference speed."""
        return self.cpu_ns * yardstick.REFERENCE_NS / self.yardstick_ns / 1e6


def _run_op(
    workload, i: int, tracer: Optional[Tracer], pins: dict,
    probe: Optional[yardstick.Probe] = None,
) -> OpRecord:
    """One op: traced when a ``tracer`` is given, else bare; a bare op
    of a bare run is timed against the running ``probe``."""
    from repro.profile.profiler import EngineProfiler, use_profiling
    from repro.profile.telemetry import peak_rss_bytes

    raw = None
    problems: list[str] = []
    cpu = yardstick_ns = 0
    workload.prepare(i)
    if tracer is None:
        mark = probe.mark() if probe else None
        t0 = perf_counter_ns()
        c0 = thread_time_ns()
        try:
            raw = workload.op(i)
        except Exception as exc:  # a crashed op is a failed op
            problems.append(f"op raised {exc!r}")
        cpu = thread_time_ns() - c0
        wall = perf_counter_ns() - t0
        if probe:
            yardstick_ns, spent = probe.since(mark)
            cpu -= spent
            wall -= spent
    else:
        first_span = len(tracer.spans)
        gc_ns, gc_counts = tracer.gc_ns, list(tracer.gc_counts)
        prof = EngineProfiler()
        tracer.op, tracer.enabled = i, True
        with use_profiling(prof):
            for sim in workload.sims():
                prof.attach(sim)
            index = tracer.begin("op")
            try:
                raw = workload.op(i)
            except Exception as exc:
                problems.append(f"op raised {exc!r}")
            finally:
                tracer.end(index)
        tracer.enabled = False
        prof.detach_all()
        wall = tracer.spans[index][2] - tracer.spans[index][1]
    facts: dict = {}
    if raw is not None:
        facts, broken = workload.verify(i, raw)
        problems += broken + check_pins(facts, pins)
    rec = OpRecord(
        index=i,
        traced=tracer is not None,
        wall_ns=wall,
        facts=facts,
        problems=problems,
        rss_bytes=peak_rss_bytes(),
        parts_s=workload.parts_s,
        cpu_ns=cpu,
        yardstick_ns=yardstick_ns,
    )
    if tracer is not None:
        _split_layers(rec, tracer, first_span, prof)
        rec.gc_ns = tracer.gc_ns - gc_ns
        rec.gc_counts = tuple(
            a - b for a, b in zip(tracer.gc_counts, gc_counts)
        )
    return rec


def _split_layers(rec: OpRecord, tracer: Tracer, first: int, prof) -> None:
    """Charge every ns of a traced op to one layer: span self time to
    the span's layer, except that the run loop's time is split by the
    profiler's component totals, whose gap to the wrapped
    ``Simulator.run`` spans goes to the engine."""
    spans = [  # the op's spans, parents re-indexed from the op span
        [n, s, e, None if p is None else p - first, op]
        for n, s, e, p, op in tracer.spans[first:]
    ]
    layers: dict[str, int] = {}
    loop_ns = 0
    for (name, start, end, parent, _op), own in zip(spans, self_times(spans)):
        if name == "Simulator.run":
            loop_ns += end - start
            if _under(spans, parent, "run_experiment"):
                rec.runner_overhead_ns -= end - start
            continue
        layers[SPAN_LAYER[name]] = layers.get(SPAN_LAYER[name], 0) + own
        if name == "run_experiment":
            rec.runner_overhead_ns += end - start
    totals = prof.component_totals()
    for component, (_events, wall) in totals.items():
        layers[component] = layers.get(component, 0) + wall
    layers["engine"] = layers.get("engine", 0) + loop_ns - prof.loop_wall_ns
    rec.layers = layers
    rec.loop_ns = loop_ns
    rec.profile = {
        "loop_wall_ns": prof.loop_wall_ns,
        "events": prof.events_total,
        "component_totals_ns": {k: w for k, (_n, w) in totals.items()},
    }


def _under(spans: list[list], index: Optional[int], name: str) -> bool:
    while index is not None:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


@dataclass
class Run:
    """Everything one ``measure`` call observed."""

    workload: str
    setup_done_ns: int
    ops: list[OpRecord]
    tracer: Optional[Tracer] = None
    reference_s: list[float] = field(default_factory=list)
    #: Bare runs only: the process's CPU seconds up to the end of
    #: set-up, rescaled like an op's; and the probe's CPU ns by then,
    #: which the wall clock at ``setup_done_ns`` includes.
    setup_s: Optional[float] = None
    probe_spent_ns: int = 0

    @property
    def bare(self) -> list[OpRecord]:
        return [op for op in self.ops if not op.traced]

    @property
    def traced(self) -> list[OpRecord]:
        return [op for op in self.ops if op.traced]


def measure(
    workload,
    ops: int,
    *,
    trace: bool = False,
    pins: Optional[dict] = None,
) -> Run:
    """Set ``workload`` up and run ``ops`` ops closed-loop.

    A traced run needs a bare and a traced op, so it needs two or more.
    A bare run of no ops times only the set-up.
    """
    if trace and ops < 2:
        raise ValueError("a traced run needs at least two ops")
    if not trace:
        return _measure_bare(workload, ops, pins or {})
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        workload.setup()
        run = Run(workload.name, monotonic_ns(), [], tracer)
        tracer.enabled = False
        if hasattr(workload, "reference_s"):
            run.reference_s = [
                workload.reference_s() for _ in range(CAPTURE_REFERENCE_RUNS)
            ]
        for n in range(ops):
            traced = n % 4 in (1, 2)
            run.ops.append(
                _run_op(workload, n, tracer if traced else None, pins or {})
            )
        return run
    finally:
        tracer.uninstall()


def _measure_bare(workload, ops: int, pins: dict) -> Run:
    with yardstick.Probe() as probe:
        mark = probe.mark()
        workload.setup()
        cpu = thread_time_ns() - probe.spent_ns
        run = Run(
            workload.name, monotonic_ns(), [], probe_spent_ns=probe.spent_ns
        )
        yard_ns, _spent = probe.since(mark)
        run.setup_s = cpu * yardstick.REFERENCE_NS / yard_ns / 1e9
        for n in range(ops):
            run.ops.append(_run_op(workload, n, None, pins, probe))
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile_with_tail(values: list[float]) -> tuple[Optional[str], Optional[float]]:
    """The highest of p90/p99/p999 that has at least ten samples above
    it, as ``(label, value)``; ``(None, None)`` under 100 samples."""
    best = (None, None)
    for label, q in (("p90", 10), ("p99", 100), ("p999", 1000)):
        if len(values) >= 10 * q:
            cuts = statistics.quantiles(values, n=q, method="inclusive")
            best = (label, cuts[-1])
    return best


def bare_summary(run: Run) -> dict:
    """What a measured child hands its parent: each op's times and
    deliveries, and the child's peak RSS after its last op."""
    return {
        "ops": [
            {
                "ms": op.scaled_ms,
                "wall_ms": op.wall_ns / 1e6,
                "host_speed_x": yardstick.REFERENCE_NS / op.yardstick_ns,
                "deliveries": op.facts.get("deliveries", 0),
                "failed": op.failed,
            }
            for op in run.ops
        ],
        "rss_mb": run.ops[-1].rss_bytes / 2**20,
        "model_err_pct": run.ops[0].facts.get("model_err_pct"),
    }


def end_to_end(children: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the ops of every measured child (each a
    :func:`bare_summary`) and over ``setups`` (each with ``setup_s``
    and ``setup_wall_s``), and the extras printed beside them.  Values
    are floats with all their digits."""
    ops = [op for child in children for op in child["ops"]]
    ms = [op["ms"] for op in ops]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pkts_per_s": sum(op["deliveries"] for op in ops) / sum(ms) * 1e3,
        "op_ms_p50": statistics.median(ms),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
    }
    extras: dict = {
        "failed_frac": sum(op["failed"] for op in ops) / len(ops),
        "wall_ms_p50": statistics.median(op["wall_ms"] for op in ops),
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
        "host_speed_x": statistics.median(op["host_speed_x"] for op in ops),
        "timed_s": sum(op["wall_ms"] for op in ops) / 1e3,
        "children": len(children),
        "setup_samples": len(setups),
    }
    label, tail = percentile_with_tail(ms)
    if label:
        extras[f"op_ms_{label}"] = tail
    if children[0]["model_err_pct"] is not None:
        extras["model_err_pct"] = children[0]["model_err_pct"]
    return metrics, extras


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops, and the workload-specific
    extras.  Times are means per traced op; counts come from the first
    traced op, so they repeat exactly from run to run."""
    traced, bare = run.traced, run.bare
    n = len(traced)
    first = traced[0]

    def mean_s(values) -> float:
        return sum(values) / n / 1e9

    self_s = {
        layer: mean_s(op.layers.get(layer, 0) for op in traced)
        for layer in SELF_LAYERS + WORKLOAD_LAYERS
    }
    events = first.profile["events"]
    hops = first.facts.get("hops", 0)
    metrics = {
        "engine.events": events,
        "engine.loop_s": mean_s(op.loop_ns for op in traced),
        "engine.self_s": self_s["engine"],
        "engine.ns_per_event": self_s["engine"] * 1e9 / events,
        "network.self_s": self_s["network"],
        "network.hops": hops,
        "network.ns_per_hop": self_s["network"] * 1e9 / hops if hops else 0.0,
        "network.deliveries": first.facts.get("deliveries", 0),
        "network.peak_queue": first.facts.get("peak_queue", 0),
        "asic.self_s": self_s["asic"],
        "py.gc_s": mean_s(op.gc_ns for op in traced),
        "py.gc0": first.gc_counts[0],
        "py.gc2": first.gc_counts[2],
        "bench.trace_overhead_x": (
            statistics.median(op.wall_ns for op in traced)
            / statistics.median(op.wall_ns for op in bare)
        ),
    }
    extras: dict = {
        "traced_ops": n,
        "bare_ops": len(bare),
        # the first and last ops are bare, so these span the whole run
        "op_growth_x": bare[-1].wall_ns / bare[0].wall_ns,
        "rss_mb_per_op": (
            (run.ops[-1].rss_bytes - run.ops[0].rss_bytes) / 2**20
            / (len(run.ops) - 1)
        ),
    }
    spans = run.tracer.spans
    setup = [s for s in spans if s[4] == "setup"]
    pattern_ns = sum(
        e - s for name, s, e, _p, _op in setup
        if name in ("compile_pattern", "Network.register_pattern")
    )
    if pattern_ns:
        extras["network.pattern_setup_s"] = pattern_ns / 1e9
    for layer in WORKLOAD_LAYERS:
        if self_s[layer]:
            extras[f"{layer}.self_s"] = self_s[layer]
    if self_s["md"]:
        extras["md.build_s"] = sum(
            e - s for name, s, e, _p, _op in setup if name == "build_dhfr_md"
        ) / 1e9
    if self_s["runner"]:
        extras["runner.overhead_ms"] = (
            mean_s(op.runner_overhead_ns for op in traced) * 1e3
        )
    if run.reference_s:
        parts = [op.parts_s for op in bare]
        extras["trace.capture_x"] = statistics.median(
            p["capture"] for p in parts
        ) / statistics.median(run.reference_s)
        extras["trace.hops_recorded"] = first.facts["hops_recorded"]
        extras["congestion.tree_ms"] = statistics.median(
            p["tree"] for p in parts
        ) * 1e3
        extras["congestion.decompose_ms"] = statistics.median(
            p["decompose"] for p in parts
        ) * 1e3
    return metrics, extras


def trace_document(run: Run, metrics: dict, extras: dict) -> dict:
    """The spans and per-op layer split a traced run writes out."""
    return {
        "workload": run.workload,
        "spans": run.tracer.span_docs(),
        "ops": [
            {
                "op": op.index,
                "wall_ns": op.wall_ns,
                "layers_ns": dict(sorted(op.layers.items())),
                "loop_ns": op.loop_ns,
                "profile": op.profile,
                "gc_ns": op.gc_ns,
                "gc_counts": list(op.gc_counts),
            }
            for op in run.traced
        ],
        "metrics": metrics,
        "extras": extras,
    }
