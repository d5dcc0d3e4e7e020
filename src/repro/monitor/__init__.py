"""Continuous health monitoring: the always-on half of observability.

The flight recorder and critical-path analyzer (PRs 1–2) are post-hoc
instruments — they explain a run after it ends.  This package is the
other half a production-scale system needs: bounded-overhead,
always-on monitoring *during* the run, the layer a training/inference
stack calls "metrics + alerting" and QCDOC-class machines built into
hardware as a diagnostic network (Boyle et al., hep-lat/0110124):

* :class:`~repro.monitor.series.RingSeries` — fixed-capacity ring
  buffers with an explicit dropped-sample counter;
* :class:`~repro.monitor.sampler.TimeSeriesSampler` — snapshots
  per-link busy time and queue depth, FIFO depths, in-flight packet
  count and event-loop stats at a configurable sim-ns interval;
* :mod:`~repro.monitor.watchdog` — invariant watchdogs (packet
  conservation, sync-counter consistency, FIFO depth bounds, a
  stall/starvation detector) emitting structured leveled JSONL
  diagnostics;
* :class:`~repro.monitor.health.HealthMonitor` — wires sampler and
  watchdogs to a machine through the simulator's monitor hook and
  produces a :class:`~repro.monitor.watchdog.HealthVerdict`;
* :mod:`~repro.monitor.report` — a self-contained HTML report
  (utilization heatmap, time-series charts, sketch-vs-exact table,
  health verdict) and a Prometheus-style text exposition;
* :mod:`~repro.monitor.capture` (imported lazily — it pulls in the
  analysis/MD stack) drives a named experiment with monitoring on; it
  backs ``python -m repro monitor`` and ``python -m repro report``.

Monitoring is attached ambiently (:func:`use_monitoring`): any machine
built while a :class:`MonitorSession` is active gets a monitor, the
same pattern the flight recorder uses.  Every observer is passive —
a monitored run is bit-identical to an unmonitored one (enforced by
``tests/properties/test_monitor_determinism.py``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "series": ("RingSeries",),
    "sampler": ("TimeSeriesSampler",),
    "watchdog": ("CheckResult", "Diagnostic", "DiagnosticLog", "HealthVerdict"),
    "health": ("HealthMonitor", "MonitorSession", "use_monitoring"),
    "report": ("render_html_report", "render_prometheus"),
})

__all__ = [
    "CheckResult",
    "Diagnostic",
    "DiagnosticLog",
    "HealthMonitor",
    "HealthVerdict",
    "MonitorSession",
    "RingSeries",
    "TimeSeriesSampler",
    "render_html_report",
    "render_prometheus",
    "use_monitoring",
]
