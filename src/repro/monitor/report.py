"""Health-report rendering: self-contained HTML and Prometheus text.

The HTML report is a single file with no external assets — inline CSS
(light and dark from the same palette via ``prefers-color-scheme``)
and inline SVG charts — so it can be archived as a CI artifact and
opened anywhere.  It carries:

* stat tiles for the run's headline numbers;
* the health verdict as a table with icon + label status (never color
  alone);
* a node x direction link-utilization heatmap over the torus
  (sequential single-hue ramp, light→dark = idle→saturated), with a
  table view for accessibility;
* time-series line charts of the machine-wide sampled series, each
  with a table view;
* a sketch-vs-exact percentile table quantifying the streaming
  sketch's accuracy against the exact histograms.

The Prometheus exposition is the standard ``# HELP``/``# TYPE`` text
format: run/verdict gauges, per-check status, the last value of every
sampled series (one labelled sample per link direction), and every
registry metric (histograms and sketches as summaries with quantile
labels).
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, Optional

from repro.monitor.sampler import SLOW_EVERY, TimeSeriesSampler
from repro.monitor.series import RingSeries
from repro.monitor.watchdog import LEVELS, HealthVerdict
from repro.report_common import fmt as _fmt, fmt_ns as _ns, stat_tiles
from repro.trace.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.trace.sketch import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover
    from repro.congestion.tree import CongestionTree

#: Link directions in fixed column order for the heatmap.
DIRECTIONS = ("x+", "x-", "y+", "y-", "z+", "z-")

#: Sequential single-hue ramp (light→dark blue), light mode surface.
HEAT_RAMP = ("#cde2fb", "#a6c8f7", "#7aa7ee", "#4f7fd9", "#2b58a8", "#0d366b")

_STATUS = {
    "ok": ("status-good", "&#10003;", "pass"),
    "warning": ("status-warning", "&#9888;", "warning"),
    "error": ("status-critical", "&#10007;", "fail"),
}


# ---------------------------------------------------------------------------
# HTML building blocks
# ---------------------------------------------------------------------------

def _stat_tiles(verdict: HealthVerdict) -> str:
    return stat_tiles([
        ("simulated time", _ns(verdict.sim_time_ns)),
        ("packets injected", _fmt(verdict.packets_injected)),
        ("packets delivered", _fmt(verdict.packets_delivered)),
        ("in flight at end", _fmt(verdict.packets_in_flight)),
        ("samples retained", _fmt(verdict.samples_recorded)),
        ("samples dropped", _fmt(verdict.dropped_samples)),
        (
            "diagnostics",
            " / ".join(
                f"{verdict.diagnostic_counts.get(k, 0)} {k}" for k in LEVELS
            ),
        ),
    ])


def _verdict_table(verdict: HealthVerdict) -> str:
    cls, icon, label = (
        ("status-good", "&#10003;", "HEALTHY")
        if verdict.healthy
        else ("status-critical", "&#10007;", "UNHEALTHY")
    )
    rows = []
    for check in verdict.checks:
        ccls, cicon, clabel = _STATUS[check.status]
        rows.append(
            "<tr>"
            f"<td>{html.escape(check.name)}</td>"
            f'<td class="{ccls}">{cicon} {clabel}</td>'
            f"<td>{html.escape(check.detail)}</td>"
            "</tr>"
        )
    return (
        f'<p><span class="verdict-banner {cls}">{icon} {label}</span></p>'
        "<table><thead><tr><th>invariant</th><th>status</th>"
        "<th>detail</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _heat_color(frac: float) -> str:
    idx = min(len(HEAT_RAMP) - 1, int(frac * len(HEAT_RAMP)))
    return HEAT_RAMP[idx]


def _link_utilization(
    sampler: TimeSeriesSampler, num_nodes: int, sim_time_ns: float
) -> dict[tuple[int, str], float]:
    """Busy fraction per (node rank, direction) from the sampled
    cumulative busy-ns series (last sample / total sim time)."""
    out: dict[tuple[int, str], float] = {}
    for rank in range(num_nodes):
        for direction in DIRECTIONS:
            series = sampler.series.get(f"link.n{rank:03d}.{direction}.busy_ns")
            if series is None or len(series) == 0:
                continue
            _, busy = series.last
            out[(rank, direction)] = (
                busy / sim_time_ns if sim_time_ns > 0 else 0.0
            )
    return out


def _heatmap(
    sampler: TimeSeriesSampler, shape: tuple[int, int, int], sim_time_ns: float
) -> str:
    num_nodes = shape[0] * shape[1] * shape[2]
    util = _link_utilization(sampler, num_nodes, sim_time_ns)
    if not util:
        return '<p class="note">No per-link series were sampled.</p>'
    peak = max(util.values()) or 1.0

    header = "<tr><th></th>" + "".join(
        f"<th>{d}</th>" for d in DIRECTIONS
    ) + "</tr>"
    # One row per node rank, one column per link direction.  Cells get
    # a title tooltip; the numeric table view below is the accessible
    # encoding (color is never the only channel).
    body_rows = []
    for rank in range(num_nodes):
        cells = []
        for direction in DIRECTIONS:
            frac = util.get((rank, direction))
            if frac is None:
                cells.append('<td class="cell" style="background:var(--panel)"></td>')
                continue
            color = _heat_color(frac / peak if peak else 0.0)
            cells.append(
                f'<td class="cell" style="background:{color}" '
                f'title="n{rank:03d} {direction}: {frac * 100:.1f}% busy"></td>'
            )
        body_rows.append(f"<tr><th>n{rank:03d}</th>{''.join(cells)}</tr>")

    legend = (
        '<div class="legend">0%'
        + "".join(
            f'<span class="swatch" style="background:{c}"></span>'
            for c in HEAT_RAMP
        )
        + f"{peak * 100:.1f}% (peak busy fraction)</div>"
    )

    table_rows = "".join(
        "<tr>"
        f"<td>n{rank:03d}</td><td>{d}</td>"
        f'<td class="num">{util[(rank, d)] * 100:.2f}</td>'
        "</tr>"
        for rank in range(num_nodes)
        for d in DIRECTIONS
        if (rank, d) in util and util[(rank, d)] > 0
    ) or '<tr><td colspan="3">all links idle</td></tr>'
    table_view = (
        "<details><summary>table view (non-idle links)</summary>"
        "<table><thead><tr><th>node</th><th>direction</th>"
        '<th class="num">busy %</th></tr></thead>'
        f"<tbody>{table_rows}</tbody></table></details>"
    )
    return (
        f'<table class="heatmap"><thead>{header}</thead>'
        f"<tbody>{''.join(body_rows)}</tbody></table>{legend}{table_view}"
    )


def _line_chart(series: RingSeries, width: int = 640, height: int = 150) -> str:
    """One single-series SVG line chart (thin 2px line, recessive
    grid, one y-axis; the heading names the series, so no legend)."""
    samples = series.samples()
    if len(samples) < 2:
        return (
            f'<p class="note">{html.escape(series.name)}: '
            f"{len(samples)} sample(s) — not enough to chart.</p>"
        )
    ml, mr, mt, mb = 58, 10, 8, 22
    pw, ph = width - ml - mr, height - mt - mb
    t0, t1 = samples[0][0], samples[-1][0]
    vs = [v for _, v in samples]
    v0, v1 = min(vs), max(vs)
    if v1 == v0:
        v1 = v0 + 1.0
    tspan = (t1 - t0) or 1.0

    def x(t: float) -> float:
        return ml + (t - t0) / tspan * pw

    def y(v: float) -> float:
        return mt + (1.0 - (v - v0) / (v1 - v0)) * ph

    pts = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in samples)
    grid = []
    for frac in (0.0, 0.5, 1.0):
        gv = v0 + frac * (v1 - v0)
        gy = y(gv)
        grid.append(
            f'<line class="gridline" x1="{ml}" y1="{gy:.1f}" '
            f'x2="{ml + pw}" y2="{gy:.1f}"/>'
            f'<text x="{ml - 6}" y="{gy + 4:.1f}" '
            f'text-anchor="end">{_fmt(gv)}</text>'
        )
    vmin, vmax, vlast = min(vs), max(vs), vs[-1]
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="{html.escape(series.name)} over simulated time">'
        + "".join(grid)
        + f'<line class="axis" x1="{ml}" y1="{mt + ph}" '
        f'x2="{ml + pw}" y2="{mt + ph}"/>'
        f'<text x="{ml}" y="{height - 6}">{_ns(t0)}</text>'
        f'<text x="{ml + pw}" y="{height - 6}" text-anchor="end">{_ns(t1)}</text>'
        f'<polyline class="series" points="{pts}">'
        f"<title>{html.escape(series.name)}: min {_fmt(vmin)}, "
        f"max {_fmt(vmax)}, last {_fmt(vlast)}</title></polyline>"
        "</svg>"
    )


def _series_section(sampler: TimeSeriesSampler) -> str:
    """Charts for the machine-wide (fast-cadence) series."""
    parts = []
    for series in sampler:
        if series.name.startswith("link."):
            continue  # per-link series feed the heatmap, not charts
        dropped = (
            f" &middot; {series.dropped} dropped" if series.dropped else ""
        )
        rows = "".join(
            f'<tr><td class="num">{t:.0f}</td><td class="num">{_fmt(v)}</td></tr>'
            for t, v in series.samples()
        )
        parts.append(
            f"<h2>{html.escape(series.name)}</h2>"
            f'<p class="note">{len(series)} samples{dropped}</p>'
            + _line_chart(series)
            + "<details><summary>table view</summary>"
            '<table><thead><tr><th class="num">t (ns)</th>'
            '<th class="num">value</th></tr></thead>'
            f"<tbody>{rows}</tbody></table></details>"
        )
    return "".join(parts)


def _percentile_table(registry: Optional[MetricsRegistry]) -> str:
    """Sketch-vs-exact comparison for every distribution metric."""
    if registry is None:
        return '<p class="note">No metrics registry was attached.</p>'
    rows = []
    for metric in registry:
        if isinstance(metric, Histogram) and metric.count > 0:
            if metric.overflowed:
                assert metric.sketch is not None
                rows.append(
                    [metric.name, metric.count,
                     f"sketch fallback (cap {metric.max_samples}, "
                     f"{metric.sketch.bins_used} bins)",
                     metric.p50, None, metric.p99, None]
                )
                continue
            # Replay the exact values through a sketch to show the
            # accuracy/memory trade side by side.
            sk = QuantileSketch(name=metric.name)
            for v in metric.values():
                sk.observe(v)
            rows.append(
                [metric.name, metric.count,
                 f"exact ({metric.count} values) vs {sk.bins_used} bins",
                 metric.p50, sk.p50, metric.p99, sk.p99]
            )
        elif isinstance(metric, QuantileSketch) and metric.count > 0:
            rows.append(
                [metric.name, metric.count,
                 f"sketch only ({metric.bins_used} bins)",
                 None, metric.p50, None, metric.p99]
            )
    if not rows:
        return '<p class="note">No distribution metrics were recorded.</p>'

    def cell(v) -> str:
        return f'<td class="num">{_fmt(v, 1) if v is not None else "-"}</td>'

    def delta(exact, est) -> str:
        if exact is None or est is None or not exact:
            return '<td class="num">-</td>'
        return f'<td class="num">{(est - exact) / exact * 100:+.2f}%</td>'

    body = "".join(
        "<tr>"
        f"<td>{html.escape(name)}</td>"
        f'<td class="num">{_fmt(n)}</td>'
        f"<td>{html.escape(memo)}</td>"
        + cell(p50e) + cell(p50s) + delta(p50e, p50s)
        + cell(p99e) + cell(p99s) + delta(p99e, p99s)
        + "</tr>"
        for name, n, memo, p50e, p50s, p99e, p99s in rows
    )
    return (
        "<table><thead><tr><th>metric</th>"
        '<th class="num">n</th><th>memory</th>'
        '<th class="num">p50 exact</th><th class="num">p50 sketch</th>'
        '<th class="num">&Delta;</th>'
        '<th class="num">p99 exact</th><th class="num">p99 sketch</th>'
        '<th class="num">&Delta;</th>'
        "</tr></thead>"
        f"<tbody>{body}</tbody></table>"
        '<p class="note">Sketch guarantee: relative error &le; 1% per '
        "quantile at a few KB of bounded memory; exact histograms hold "
        "every observation.</p>"
    )


def render_html_report(
    verdict: HealthVerdict,
    sampler: TimeSeriesSampler,
    shape: tuple[int, int, int],
    registry: Optional[MetricsRegistry] = None,
    title: str = "Continuous health report",
    experiment: str = "",
    congestion: "Optional[CongestionTree]" = None,
) -> str:
    """Render the full self-contained HTML health report.

    When the run carried the flight recorder, pass its
    :class:`~repro.congestion.tree.CongestionTree` to append the
    congestion section: the congestion-tree table and the HOL-blocking
    episode list.
    """
    from repro.report_common import html_page

    nx, ny, nz = shape
    subtitle = (
        f"{nx}×{ny}×{nz} torus"
        + (f" &middot; experiment: {html.escape(experiment)}" if experiment else "")
        + f" &middot; sampling interval {_ns(sampler.interval_ns)}"
        f" (per-link every {SLOW_EVERY} ticks)"
    )
    body = (
        _stat_tiles(verdict)
        + "<h2>Health verdict</h2>\n"
        + _verdict_table(verdict)
        + "<h2>Link utilization (node &times; direction)</h2>\n"
        + _heatmap(sampler, shape, verdict.sim_time_ns)
        + "<h2>Percentiles: streaming sketch vs exact</h2>\n"
        + _percentile_table(registry)
        + _series_section(sampler)
    )
    if congestion is not None:
        from repro.congestion.report import congestion_section

        body += congestion_section(congestion)
    return html_page(title, subtitle, body)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _prom_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _prom_label_value(value: str) -> str:
    """A label value escaped per the exposition format: backslash,
    double-quote, and newline get backslash escapes; everything else —
    unicode included — passes through verbatim."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def prom_labels(**labels: str) -> str:
    """A ``{k="v",...}`` label block (empty string for no labels),
    keys in the given order, values escaped."""
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_prom_label_value(v)}"' for k, v in labels.items()
    )
    return "{" + body + "}"


class PromText:
    """Incremental builder for the Prometheus text exposition format.

    One ``metric`` call emits the ``# HELP`` / ``# TYPE`` header and
    its samples; ``registry`` dumps a whole
    :class:`~repro.trace.metrics.MetricsRegistry` (counters and gauges
    directly, histograms and sketches as summaries with quantile
    labels).  Shared by the monitor report and the sweep telemetry so
    both expositions escape and format identically.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def metric(self, name: str, kind: str, help_text: str, samples) -> None:
        """Emit one metric family: ``samples`` is an iterable of
        ``(label_block, value)`` pairs (build blocks with
        :func:`prom_labels`)."""
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            self.lines.append(f"{name}{labels} {_prom_number(value)}")

    def registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Emit every metric of a registry (no-op for ``None``)."""
        if registry is None:
            return
        for metric in registry:
            name = _prom_name(metric.name)
            help_text = metric.help or metric.name
            if isinstance(metric, Counter):
                self.metric(name, "counter", help_text, [("", metric.value)])
            elif isinstance(metric, Gauge):
                self.metric(name, "gauge", help_text, [("", metric.value)])
            elif isinstance(metric, (Histogram, QuantileSketch)):
                self.lines.append(f"# HELP {name} {help_text}")
                self.lines.append(f"# TYPE {name} summary")
                if metric.count:
                    for q in (0.5, 0.9, 0.99):
                        self.lines.append(
                            f'{name}{{quantile="{q}"}} '
                            f"{_prom_number(metric.percentile(q * 100))}"
                        )
                    self.lines.append(
                        f"{name}_sum {_prom_number(metric.sum)}"
                    )
                self.lines.append(f"{name}_count {metric.count}")

    def text(self) -> str:
        """The exposition so far (newline-terminated when non-empty)."""
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"


def render_registry_prometheus(
    registry: Optional[MetricsRegistry],
) -> str:
    """A metrics registry alone as one Prometheus exposition (the
    sweep telemetry's export path)."""
    out = PromText()
    out.registry(registry)
    return out.text()


def render_prometheus(
    verdict: HealthVerdict,
    sampler: TimeSeriesSampler,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Prometheus-style text exposition of the monitored run."""
    out = PromText()
    emit = out.metric

    emit("repro_sim_time_ns", "gauge", "Simulated time at report.",
         [("", verdict.sim_time_ns)])
    emit("repro_packets_injected", "counter", "Packets injected.",
         [("", verdict.packets_injected)])
    emit("repro_packets_delivered", "counter", "Client deliveries.",
         [("", verdict.packets_delivered)])
    emit("repro_packets_in_flight", "gauge", "Packets still in flight.",
         [("", verdict.packets_in_flight)])
    emit("repro_monitor_samples_retained", "gauge",
         "Ring-buffer samples currently retained.",
         [("", verdict.samples_recorded)])
    emit("repro_monitor_samples_dropped", "counter",
         "Samples evicted by ring-buffer capacity.",
         [("", verdict.dropped_samples)])
    emit("repro_monitor_diagnostics", "counter",
         "Diagnostics emitted by level.",
         [(prom_labels(level=lvl), verdict.diagnostic_counts.get(lvl, 0))
          for lvl in LEVELS])
    emit("repro_health_check_status", "gauge",
         "Invariant status: 0 ok, 1 warning, 2 error.",
         [(prom_labels(check=c.name),
           {"ok": 0, "warning": 1, "error": 2}[c.status])
          for c in verdict.checks])
    emit("repro_healthy", "gauge",
         "1 when no invariant reached error severity.",
         [("", 1 if verdict.healthy else 0)])
    emit("repro_monitor_series_last", "gauge",
         "Last sampled value of every monitor time series.",
         [(prom_labels(series=s.name), s.last[1])
          for s in sampler if len(s)])
    if verdict.peak_queue_by_direction:
        emit("repro_link_peak_queue", "gauge",
             "Deepest head-of-line queue observed per link direction.",
             [(prom_labels(direction=d), depth)
              for d, depth in sorted(verdict.peak_queue_by_direction.items())])

    out.registry(registry)
    return out.text()
