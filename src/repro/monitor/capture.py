"""Run a named experiment with continuous monitoring attached.

This is the machinery behind ``python -m repro monitor <experiment>``
and ``python -m repro report``: it opens a
:func:`~repro.monitor.health.use_monitoring` session (every machine the
experiment builds gets a :class:`~repro.monitor.health.HealthMonitor`),
installs a bounded :class:`~repro.trace.metrics.MetricsRegistry`
(histograms capped, falling back to streaming sketches), dispatches the
:class:`~repro.runner.spec.ExperimentSpec` through the experiment
registry, and finalizes every monitor into health verdicts.

Kept out of ``repro.monitor.__init__`` on purpose: it imports the
analysis/MD stack, which itself imports the monitored subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monitor.health import (
    DEFAULT_STALL_NS,
    HealthMonitor,
    use_monitoring,
)
from repro.monitor.report import render_html_report, render_prometheus
from repro.monitor.sampler import DEFAULT_INTERVAL_NS
from repro.monitor.watchdog import HealthVerdict
from repro.runner.result import Captures, RunResult, run_experiment
from repro.runner.spec import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
)
from repro.trace.metrics import MetricsRegistry

#: Experiments the monitor CLI can drive: every registered experiment
#: marked monitorable (``mdstep`` — the paper's Fig. 13 workload — is
#: the default; the rest are the trace harnesses).
MONITOR_EXPERIMENTS = experiment_names(monitorable=True)

#: Histogram cap for always-on runs: beyond this many observations a
#: histogram falls back to its streaming sketch (1% relative error).
DEFAULT_HISTOGRAM_CAP = 4096


@dataclass
class MonitorCapture:
    """One monitored run: its result, verdicts, series, and renderers.
    ``result.registry`` is the run's bounded metrics registry."""

    result: RunResult
    monitors: list[HealthMonitor]
    verdicts: list[HealthVerdict]

    @property
    def monitor(self) -> HealthMonitor:
        """The run's primary monitor: the one that watched the most
        activity (sweep experiments build several machines)."""
        return max(self.monitors, key=lambda m: (m.sim.now, m.sampler.ticks))

    @property
    def verdict(self) -> HealthVerdict:
        return self.verdicts[self.monitors.index(self.monitor)]

    @property
    def healthy(self) -> bool:
        """True when every machine's verdict is free of errors."""
        return all(v.healthy for v in self.verdicts)

    def congestion_tree(self):
        """The run's backpressure congestion tree, when the flight
        recorder rode along (``None`` for untraced runs like mdstep)."""
        if self.result.flight is None:
            return None
        from repro.congestion.tree import build_congestion_tree
        from repro.topology.torus import Torus3D

        return build_congestion_tree(
            self.result.flight, Torus3D(*self.result.shape)
        )

    def html(self, title: str = "Continuous health report") -> str:
        result = self.result
        return render_html_report(
            self.verdict,
            self.monitor.sampler,
            result.shape,
            registry=result.registry,
            title=title,
            experiment=f"{result.experiment} — {result.description}",
            congestion=self.congestion_tree(),
        )

    def prometheus(self) -> str:
        return render_prometheus(
            self.verdict, self.monitor.sampler, registry=self.result.registry
        )

    def write_jsonl(self, path: str) -> None:
        """Diagnostics of the primary monitor as JSONL."""
        self.monitor.log.write_jsonl(path)


def run_monitored(
    spec: ExperimentSpec,
    *,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    series_capacity: int = 512,
    stall_ns: float = DEFAULT_STALL_NS,
) -> MonitorCapture:
    """Drive ``spec`` with continuous monitoring attached.

    Experiments the registry marks traceable also get a
    :class:`~repro.trace.flight.FlightRecorder` — the per-packet
    latency histograms the sketch-vs-exact report compares are derived
    from its logs after the run, and with it the HTML report carries
    the congestion tree.  ``mdstep`` does not, as its per-packet record
    would dwarf the run.  Histograms are capped at
    :data:`DEFAULT_HISTOGRAM_CAP` samples.  Monitoring itself is
    passive: simulated results are bit-identical with the monitor on or
    off.
    """
    defn = get_experiment(spec)
    if not defn.monitorable:
        raise ValueError(
            f"experiment {spec.experiment!r} is not monitorable; "
            f"choose from {MONITOR_EXPERIMENTS}"
        )
    metrics = MetricsRegistry(histogram_max_samples=DEFAULT_HISTOGRAM_CAP)
    with use_monitoring(
        interval_ns=interval_ns,
        series_capacity=series_capacity,
        stall_ns=stall_ns,
    ) as session:
        result = run_experiment(
            spec, Captures(flight=defn.traceable, registry=metrics)
        )
    if not session.monitors:
        raise RuntimeError(
            f"experiment {spec.experiment!r} built no machines to monitor"
        )
    return MonitorCapture(
        result=result,
        monitors=session.monitors,
        verdicts=session.finalize(),
    )
