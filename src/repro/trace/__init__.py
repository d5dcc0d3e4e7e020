"""Instrumentation: the simulated logic analyzer (§IV.C, Fig. 13).

The real Anton carries an on-chip diagnostic network that records ASIC
activity; the paper's Table 3 and Fig. 13 come from it.  This package
is the model's equivalent — a full telemetry layer:

* :class:`~repro.trace.recorder.ActivityRecorder` collects per-unit
  activity intervals (compute, stall/wait, send, receive) and per-link
  occupancy;
* :class:`~repro.trace.flight.FlightRecorder` is the network-side
  flight recorder: every packet's causal spans (inject → per-hop
  queue-wait → link occupancy → deliver) plus per-link queue-depth
  time series.  Networks pick it up from the ``flight`` slot of
  :mod:`repro.instruments` (:func:`~repro.trace.flight.use_flight`);
  the default is the zero-cost null recorder;
* :class:`~repro.trace.metrics.MetricsRegistry` names counters, gauges
  and ns-scale latency histograms with p50/p90/p99 queries, attachable
  to any :class:`~repro.engine.simulator.Simulator` or installed
  ambiently with :func:`~repro.trace.metrics.use_registry`;
* :mod:`repro.trace.export` turns a recorded run into
  Chrome/Perfetto ``trace_event`` JSON (open it in `ui.perfetto.dev`),
  JSONL, or a text summary — deterministically, so traces diff cleanly
  across runs;
* :mod:`repro.trace.stats` derives the critical-path communication
  accounting of Table 3, and :mod:`repro.trace.timeline` renders the
  Fig. 13 style activity timeline as text/CSV.

A named experiment runs with the flight recorder attached through
``run_experiment(spec, Captures(flight=True))``
(:mod:`repro.runner.result`); that call backs ``python -m repro trace
<experiment>``.
"""

from repro._lazy import lazy_exports

# Each name's module loads on the name's first read: a bare network run
# reads only ``NULL_FLIGHT`` and the metrics registry.
__getattr__, __dir__ = lazy_exports(__name__, {
    "recorder": ("Activity", "ActivityKind", "ActivityRecorder"),
    "stats": (
        "CriticalPathStats", "communication_split",
        "per_node_communication_split",
    ),
    "timeline": ("render_timeline", "timeline_csv"),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "use_registry",
    ),
    "sketch": ("QuantileSketch",),
    "flight": (
        "NULL_FLIGHT", "Delivery", "FlightRecorder", "HopRecord",
        "NullFlightRecorder", "PacketFlight", "PhaseSpan", "PollRecord",
        "use_flight",
    ),
    "export": (
        "chrome_trace", "dumps_chrome_trace", "flight_summary",
        "jsonl_lines", "write_chrome_trace", "write_jsonl",
    ),
})

__all__ = [
    "Activity",
    "ActivityKind",
    "ActivityRecorder",
    "Counter",
    "CriticalPathStats",
    "Delivery",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HopRecord",
    "MetricsRegistry",
    "NULL_FLIGHT",
    "NullFlightRecorder",
    "PacketFlight",
    "PhaseSpan",
    "PollRecord",
    "QuantileSketch",
    "chrome_trace",
    "communication_split",
    "dumps_chrome_trace",
    "flight_summary",
    "jsonl_lines",
    "per_node_communication_split",
    "render_timeline",
    "timeline_csv",
    "use_flight",
    "use_registry",
    "write_chrome_trace",
    "write_jsonl",
]
