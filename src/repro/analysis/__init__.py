"""Measurement harnesses that regenerate the paper's figures and tables.

Each module drives the simulated machine through the same experiment
the paper ran and returns structured results:

* :mod:`repro.analysis.latency` — ping-pong latency vs hop count and
  the single-hop component breakdown (Figs. 5 & 6, Table 1);
* :mod:`repro.analysis.transfer` — the 2 KB transfer split into 1–64
  messages (Fig. 7) and bandwidth-efficiency vs message size (§III.D);
* :mod:`repro.analysis.attribution` — trace-derived per-packet latency
  attribution to Fig. 6's component taxonomy;
* :mod:`repro.analysis.critical_path` — multicast branch
  reconstruction, per-phase critical packets, and per-link contention
  hotspots from flight-recorder traces;
* :mod:`repro.analysis.report` — plain-text table/series rendering
  shared by the benchmark scripts.
"""

from repro.analysis.attribution import (
    Attribution,
    AttributionMeasurement,
    Component,
    PathSegment,
    attribute_flight,
    attribute_path,
    measure_attribution,
    render_attribution,
)
from repro.analysis.critical_path import (
    LinkHotspot,
    PhaseReport,
    branch_hops,
    branch_paths,
    critical_flight,
    link_hotspots,
    phase_reports,
    render_hotspots,
    render_phase_reports,
)
from repro.analysis.latency import (
    breakdown_162ns,
    latency_vs_hops,
    ping_pong_ns,
)
from repro.analysis.report import render_series, render_table
from repro.analysis.transfer import (
    anton_transfer_ns,
    bandwidth_efficiency,
    transfer_split_series,
)

__all__ = [
    "anton_transfer_ns",
    "Attribution",
    "AttributionMeasurement",
    "bandwidth_efficiency",
    "branch_hops",
    "branch_paths",
    "breakdown_162ns",
    "Component",
    "critical_flight",
    "LinkHotspot",
    "link_hotspots",
    "PathSegment",
    "PhaseReport",
    "phase_reports",
    "attribute_flight",
    "attribute_path",
    "measure_attribution",
    "render_attribution",
    "render_hotspots",
    "render_phase_reports",
    "latency_vs_hops",
    "ping_pong_ns",
    "render_series",
    "render_table",
    "transfer_split_series",
]
