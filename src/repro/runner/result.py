"""The one result type every run produces: :class:`RunResult`.

Every observed or bare run is ``run_experiment(spec, Captures(...))``
and produces a :class:`RunResult`: the spec that produced the run, the
headline simulated elapsed nanoseconds, the named measurements, a
plain-data metrics snapshot, and any artifact paths.
The serializable core round-trips through :meth:`RunResult.to_dict` /
:meth:`RunResult.from_dict` — that is what the content-addressed cache
stores and what sweep workers ship back across the process boundary.
Live handles (the flight recorder and metrics registry of an
in-process run) ride along as non-serialized attributes for the trace
and monitor exporters.
"""

from __future__ import annotations

import math
import random
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter_ns
from typing import TYPE_CHECKING, Iterable, Optional

from repro.bench.results import BenchResult
from repro.runner.spec import ExperimentSpec, get_experiment
from repro.trace.metrics import MetricsRegistry, use_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.congestion.view import CongestionView
    from repro.profile.profiler import EngineProfiler
    from repro.trace.flight import FlightRecorder

_BETTER = ("lower", "higher")


@dataclass(frozen=True)
class Measurement:
    """One named scalar a run measured (maps 1:1 onto a
    ``repro-bench/1`` result row when a sweep persists it)."""

    metric: str
    value: float
    units: str = "ns"
    better: str = "lower"

    def __post_init__(self) -> None:
        if not self.metric or not self.units:
            raise ValueError("metric and units must be non-empty")
        if self.better not in _BETTER:
            raise ValueError(f"better must be one of {_BETTER}")
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"{self.metric}: value must be finite")

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "value": self.value,
            "units": self.units,
            "better": self.better,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Measurement":
        missing = {"metric", "value"} - set(doc)
        if missing:
            raise ValueError(f"measurement missing fields: {sorted(missing)}")
        return cls(
            metric=doc["metric"],
            value=doc["value"],
            units=doc.get("units", "ns"),
            better=doc.get("better", "lower"),
        )


@dataclass
class Outcome:
    """What a registered experiment function returns: the pieces of a
    :class:`RunResult` the framework cannot derive itself."""

    description: str
    elapsed_ns: float
    measurements: tuple[Measurement, ...] = ()


@dataclass
class RunResult:
    """One completed run.  ``metrics`` is a plain-data registry
    snapshot (serializable); ``registry`` and ``flight`` are the live
    in-process objects and are dropped on serialization.  ``flight`` is
    the run's one transport probe: ``congestion`` is a view of it."""

    spec: ExperimentSpec
    elapsed_ns: float
    description: str
    measurements: tuple[Measurement, ...] = ()
    metrics: dict = field(default_factory=dict)
    artifacts: tuple[str, ...] = ()
    registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )
    flight: "Optional[FlightRecorder]" = field(
        default=None, repr=False, compare=False
    )
    #: Wall-clock facts about how this run executed (wall_time_s,
    #: loop_wall_s, events_executed, events_per_second, peak_rss_bytes).
    #: ``peak_rss_bytes`` is the lifetime peak of the process that ran
    #: the point, not this run's own: on a reused sweep worker an
    #: earlier, larger point can set it.  Host- and load-dependent, so
    #: deliberately OUTSIDE the serializable core: cached results and
    #: sweep checkpoints must stay byte-identical regardless of where
    #: and how fast a point computed.  Sweep workers ship it
    #: separately, via the telemetry stream.
    meta: dict = field(default_factory=dict, repr=False, compare=False)
    #: The live :class:`~repro.profile.profiler.EngineProfiler` when
    #: the run was profiled (``Captures(profile=True)``).
    profile: "Optional[EngineProfiler]" = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def congestion(self) -> "Optional[CongestionView]":
        """The congestion X-ray's per-link timelines, derived from
        ``flight`` on first access (``None`` without a flight record)."""
        if self.flight is None:
            return None
        from repro.congestion.view import CongestionView

        return CongestionView(self.flight)

    @property
    def experiment(self) -> str:
        return self.spec.experiment

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.spec.shape

    def value(self, metric: str) -> float:
        for m in self.measurements:
            if m.metric == metric:
                return m.value
        raise KeyError(
            f"no measurement {metric!r} in "
            f"{[m.metric for m in self.measurements]}"
        )

    def to_bench_results(self) -> list[BenchResult]:
        """Measurements as ``repro-bench/1`` rows keyed by the spec."""
        config = self.spec.to_config()
        return [
            BenchResult(
                benchmark=self.spec.experiment,
                metric=m.metric,
                value=m.value,
                units=m.units,
                better=m.better,
                config=config,
            )
            for m in self.measurements
        ]

    # -- serialization (the cacheable core) --------------------------------
    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "elapsed_ns": float(self.elapsed_ns),
            "description": self.description,
            "measurements": [m.to_dict() for m in self.measurements],
            "metrics": self.metrics,
            "artifacts": list(self.artifacts),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunResult":
        missing = {"spec", "elapsed_ns", "description"} - set(doc)
        if missing:
            raise ValueError(f"result document missing fields: {sorted(missing)}")
        return cls(
            spec=ExperimentSpec.from_dict(doc["spec"]),
            elapsed_ns=float(doc["elapsed_ns"]),
            description=doc["description"],
            measurements=tuple(
                Measurement.from_dict(m) for m in doc.get("measurements", ())
            ),
            metrics=doc.get("metrics", {}),
            artifacts=tuple(doc.get("artifacts", ())),
        )


@dataclass(frozen=True)
class Captures:
    """Which live observers to attach to a run — the one bundle that
    replaced ``run_experiment``'s grown-by-accretion boolean flags.

    * ``flight`` — attach a :class:`~repro.trace.flight.FlightRecorder`
      (per-packet causal spans); hands it back on ``result.flight``
      and, after the run, publishes the ``net.*`` metrics it derives
      from its logs into the run's registry.
    * ``profile`` — attach the engine self-profiler to every simulator
      the experiment builds; hands it back on ``result.profile``.
    * ``congestion`` — attach the flight recorder but publish no
      metrics from it: ``result.flight`` is set and
      ``result.congestion`` derives the per-link-direction queue
      timelines from it.  ``flight=True``
      gives the same view.  The flight recorder is the one transport
      probe, so both flags on still attach one recorder.
    * ``registry`` — accumulate metrics into a caller-owned
      :class:`~repro.trace.metrics.MetricsRegistry` instead of a fresh
      run-owned one (the monitor's Prometheus path).

    Frozen so a single instance can parameterize a whole sweep.  No
    capture changes what the model does: elapsed time, description and
    measurements are identical with every combination on or off.
    ``profile`` and ``congestion`` also leave the serialized result core
    byte-identical.  ``flight`` publishes into the run-owned registry,
    so its ``metrics`` snapshot gains the ``net.*`` families and
    nothing else.
    """

    flight: bool = False
    profile: bool = False
    congestion: bool = False
    registry: Optional[MetricsRegistry] = None

    def __bool__(self) -> bool:
        return (
            self.flight or self.profile or self.congestion
            or self.registry is not None
        )


def run_experiment(
    spec: ExperimentSpec, captures: Optional[Captures] = None
) -> RunResult:
    """Execute one spec through the registry and wrap the outcome.

    The run is hermetic and deterministic: the ambient RNG is seeded
    from the spec's content (so stochastic components, if any, repeat
    bit-for-bit in any process), and a fresh metrics registry is
    installed unless the caller supplies one to accumulate into.
    ``captures`` selects the live observers to attach (flight
    recorder, engine self-profiler, caller-owned metrics registry) —
    see :class:`Captures`.

    Every run also gets wall-clock execution facts on ``result.meta``
    (run-loop events/sec, peak RSS, wall and run-loop seconds) —
    observed from outside the simulation, never serialized with it.
    """
    from repro.engine.simulator import add_new_sim_hook, remove_new_sim_hook

    caps = captures if captures is not None else Captures()
    profile = caps.profile
    registry = caps.registry

    defn = get_experiment(spec)
    own_registry = registry is None
    if own_registry:
        registry = MetricsRegistry()
    random.seed(spec.derived_seed())
    recorder = None
    profiler = None
    sims: list = []
    hook = add_new_sim_hook(sims.append)
    try:
        with ExitStack() as stack:
            stack.enter_context(use_registry(registry))
            if caps.flight or caps.congestion:
                from repro.trace.flight import FlightRecorder, use_flight

                recorder = stack.enter_context(use_flight(FlightRecorder()))
            if profile:
                from repro.profile.profiler import use_profiling

                profiler = stack.enter_context(use_profiling())
            wall_t0 = perf_counter_ns()
            outcome = defn.func(spec)
            wall_ns = perf_counter_ns() - wall_t0
    finally:
        remove_new_sim_hook(hook)
    if caps.flight:
        # net.* metrics come only with a flight capture: the run-owned
        # registry serializes into the cacheable snapshot, which must
        # stay byte-identical with the congestion X-ray on or off.
        recorder.publish_metrics(registry)
    if not isinstance(outcome, Outcome):
        raise TypeError(
            f"experiment {spec.experiment!r} returned {type(outcome)}, "
            "expected Outcome"
        )
    from repro.profile.telemetry import peak_rss_bytes

    events_executed = sum(sim.events_executed for sim in sims)
    # Events per second of the run loops alone: machine build, MD
    # numerics between steps and analysis are not event execution.
    loop_s = sum(sim.loop_wall_ns for sim in sims) / 1e9
    meta = {
        "wall_time_s": wall_ns / 1e9,
        "loop_wall_s": loop_s,
        "events_executed": events_executed,
        "events_per_second": events_executed / loop_s if loop_s > 0 else 0.0,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    return RunResult(
        spec=spec,
        elapsed_ns=float(outcome.elapsed_ns),
        description=outcome.description,
        measurements=tuple(outcome.measurements),
        metrics=registry.snapshot() if own_registry else {},
        registry=registry,
        flight=recorder,
        meta=meta,
        profile=profiler,
    )


def results_to_set(results: Iterable[RunResult]):
    """Collect many runs' measurements into one
    :class:`~repro.bench.results.ResultSet`."""
    from repro.bench.results import ResultSet

    out = ResultSet()
    for result in results:
        for row in result.to_bench_results():
            out.add(row)
    return out
