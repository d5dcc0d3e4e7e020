"""Engine self-profiling and live sweep telemetry.

Two observability layers in one package, both strictly passive:

* :class:`EngineProfiler` / :func:`use_profiling` — per-event wall-time
  and count accounting for the DES run loop (by event type, component,
  and simulation phase), with speedscope / collapsed-stack / JSON
  export.  The event-*count* profile is deterministic and
  byte-identical across runs; the wall-time profile tiles the measured
  loop wall time exactly.
* :class:`SweepTelemetry` — the parent-side aggregator for the
  structured heartbeat stream sweep workers emit (started / finished /
  retried / timed-out, cache hits, peak RSS, events/sec), feeding live
  ``sweep.*`` gauges, ``status.json``, the terminal progress line, and
  the Prometheus + HTML report pipeline.

A named experiment is profiled with ``run_experiment(spec,
Captures(profile=True))`` (:mod:`repro.runner.result`), which hands the
profiler back on ``result.profile``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "export": (
        "render_table", "to_collapsed", "to_json", "to_speedscope",
        "write_profile",
    ),
    "profiler": ("EngineProfiler", "ProfileCell", "use_profiling"),
    "telemetry": (
        "STATUS_SCHEMA", "SweepTelemetry", "make_event", "peak_rss_bytes",
        "read_status",
    ),
})

__all__ = [
    "EngineProfiler",
    "ProfileCell",
    "STATUS_SCHEMA",
    "SweepTelemetry",
    "make_event",
    "peak_rss_bytes",
    "read_status",
    "render_table",
    "to_collapsed",
    "to_json",
    "to_speedscope",
    "use_profiling",
    "write_profile",
]
