"""Congestion X-ray rendering: text, HTML section, Prometheus, JSON.

Four views of one :class:`~repro.congestion.tree.CongestionTree`:

* :func:`render_congestion_text` — the CLI tables (congestion tree
  ranked by contributed wait, the feeder breakdown of the worst link,
  and the episode list);
* :func:`congestion_section` — the HTML fragment the monitor health
  report embeds (congestion-tree table with optional queue-depth
  sparklines per link direction, episode list), built from the shared
  :mod:`repro.report_common` blocks;
* :func:`render_congestion_html` — a standalone page around that
  section for ``python -m repro congest --html``;
* :func:`render_congestion_prometheus` — ``congestion.*`` metric
  families with one labelled sample per link direction (label values
  like ``z+`` exercise the exposition escaping rules).

The tree and the sparklines' queue-depth timelines
(:class:`~repro.congestion.view.CongestionView`) are both derived from
the flight recorder, the one transport probe.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, Optional

from repro.congestion.tree import CongestionTree
from repro.report_common import (
    details_table,
    fmt,
    fmt_ns,
    html_page,
    html_table,
    sparkline,
    stat_tiles,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.congestion.view import CongestionView
    from repro.monitor.series import RingSeries


# ---------------------------------------------------------------------------
# Text (CLI)
# ---------------------------------------------------------------------------

def render_congestion_text(tree: CongestionTree, top: int = 10) -> str:
    """The congestion tree, worst feeders, and episodes as tables."""
    from repro.analysis.report import render_table

    if not tree.links:
        return (
            f"Congestion tree: no head-of-line waits recorded "
            f"({tree.packets} packets, 0 contended hops).\n"
        )
    rows = []
    for lc in tree.links[:top]:
        feeders = lc.ranked_feeders()
        worst_feeder = (
            f"{feeders[0][0]} ({feeders[0][1]:.0f} ns)" if feeders else "-"
        )
        rows.append(
            [lc.link, lc.direction, lc.wait_ns, lc.waits, lc.peak_depth,
             lc.occupancy_ns, worst_feeder]
        )
    parts = [
        render_table(
            f"Congestion tree — {len(tree.links)} contended link(s), "
            f"{tree.total_wait_ns:.0f} ns total HOL wait "
            f"({tree.contended_hops} contended hops, {tree.packets} packets)",
            ["link", "dir", "wait ns", "waits", "peak q", "busy ns",
             "worst feeder"],
            rows,
            float_format="{:.1f}",
        )
    ]
    worst = tree.worst
    if worst is not None and worst.fed_by:
        parts.append(
            render_table(
                f"Backpressure into {worst.link} (ranked by contributed ns)",
                ["fed by", "wait ns", "share"],
                [
                    [feeder, ns, f"{ns / worst.wait_ns:.1%}"]
                    for feeder, ns in worst.ranked_feeders()
                ],
                float_format="{:.1f}",
            )
        )
    episodes = tree.episodes()[:top]
    if episodes:
        parts.append(
            render_table(
                "Sustained HOL-blocking episodes (worst first)",
                ["link", "start ns", "end ns", "duration ns", "packets",
                 "wait ns"],
                [
                    [e.link, e.start_ns, e.end_ns, e.duration_ns, e.packets,
                     e.wait_ns]
                    for e in episodes
                ],
                float_format="{:.1f}",
            )
        )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------

def _depth_sparkline(
    series: "Optional[dict[str, RingSeries]]", link: str
) -> str:
    if not series:
        return '<span class="note">-</span>'
    s = series.get(link)
    if s is None or len(s) == 0:
        return '<span class="note">-</span>'
    return sparkline(s.name, s.values())


def congestion_section(
    tree: CongestionTree,
    series: "Optional[dict[str, RingSeries]]" = None,
    top: int = 12,
) -> str:
    """The congestion X-ray as an HTML fragment (embeddable).

    ``series`` maps link name → queue-depth
    :class:`~repro.monitor.series.RingSeries` (a
    :class:`~repro.congestion.view.CongestionView`'s ``depth_series``);
    omitted, the tree table renders without sparklines.
    """
    worst = tree.worst
    tiles = stat_tiles([
        ("total HOL wait", fmt_ns(tree.total_wait_ns)),
        ("contended links", fmt(len(tree.links))),
        ("contended hops", fmt(tree.contended_hops)),
        ("packets", fmt(tree.packets)),
        ("worst link", worst.link if worst is not None else "-"),
        (
            "worst direction",
            worst.direction if worst is not None else "-",
        ),
    ])
    if not tree.links:
        return (
            "<h2>Congestion X-ray</h2>\n" + tiles
            + '<p class="note">No head-of-line waits were recorded.</p>'
        )
    rows = []
    for lc in tree.links[:top]:
        feeders = lc.ranked_feeders()
        worst_feeder = (
            f"{feeders[0][0]} ({fmt(feeders[0][1])} ns)" if feeders else "-"
        )
        rows.append(
            "<tr>"
            f"<td>{html.escape(lc.link)}</td>"
            f"<td>{html.escape(lc.direction)}</td>"
            f"<td>{_depth_sparkline(series, lc.link)}</td>"
            f'<td class="num">{fmt(lc.wait_ns)}</td>'
            f'<td class="num">{fmt(lc.waits)}</td>'
            f'<td class="num">{fmt(lc.peak_depth)}</td>'
            f'<td class="num">{fmt(lc.occupancy_ns)}</td>'
            f"<td>{html.escape(worst_feeder)}</td>"
            "</tr>"
        )
    hidden = len(tree.links) - min(top, len(tree.links))
    note = (
        f'<p class="note">{hidden} further contended link(s) omitted.</p>'
        if hidden > 0 else ""
    )
    tree_table = (
        "<table><thead><tr><th>link</th><th>dir</th><th>queue depth</th>"
        '<th class="num">wait ns</th><th class="num">waits</th>'
        '<th class="num">peak q</th><th class="num">busy ns</th>'
        "<th>worst feeder</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>{note}"
    )
    feeder_detail = ""
    if worst is not None and worst.fed_by:
        feeder_detail = details_table(
            f"backpressure into {worst.link} (all feeders)",
            ["fed by", "wait ns", "share"],
            [
                [feeder, fmt(ns), f"{ns / worst.wait_ns:.1%}"]
                for feeder, ns in worst.ranked_feeders()
            ],
            num=(1, 2),
        )
    episodes = tree.episodes()[:top]
    episode_table = (
        html_table(
            ["link", "dir", "start ns", "end ns", "duration ns",
             "packets", "wait ns"],
            [
                [e.link, e.direction, fmt(e.start_ns), fmt(e.end_ns),
                 fmt(e.duration_ns), fmt(e.packets), fmt(e.wait_ns)]
                for e in episodes
            ],
            num=(2, 3, 4, 5, 6),
        )
        if episodes
        else '<p class="note">No blocking episodes.</p>'
    )
    return (
        "<h2>Congestion X-ray</h2>\n" + tiles
        + "<h2>Congestion tree (ranked by contributed HOL wait)</h2>\n"
        + tree_table + feeder_detail
        + "<h2>HOL-blocking episodes</h2>\n" + episode_table
    )


def render_congestion_html(
    tree: CongestionTree,
    series: "Optional[dict[str, RingSeries]]" = None,
    title: str = "Congestion X-ray",
    experiment: str = "",
    shape: Optional[tuple[int, int, int]] = None,
) -> str:
    """A standalone page for ``python -m repro congest --html``."""
    subtitle_parts = []
    if shape is not None:
        subtitle_parts.append(f"{shape[0]}×{shape[1]}×{shape[2]} torus")
    if experiment:
        subtitle_parts.append(f"experiment: {html.escape(experiment)}")
    subtitle_parts.append(f"{tree.packets} packets recorded")
    return html_page(
        title,
        " &middot; ".join(subtitle_parts),
        congestion_section(tree, series),
    )


# ---------------------------------------------------------------------------
# Prometheus
# ---------------------------------------------------------------------------

def render_congestion_prometheus(
    tree: CongestionTree,
    view: "Optional[CongestionView]" = None,
) -> str:
    """``congestion.*`` metric families, one sample per link direction.

    Label values carry the raw link name and the ``z+``-style direction
    tag (exercising the exposition's escaping rules); the view, when
    given, contributes the telemetry-loss counter so dropped ring
    samples are never silent.
    """
    from repro.monitor.report import PromText, prom_labels

    out = PromText()

    def by_link(value):
        return [
            (prom_labels(link=lc.link, direction=lc.direction), value(lc))
            for lc in tree.links
        ]

    out.metric(
        "repro_congestion_hol_wait_ns", "counter",
        "Total head-of-line wait contributed by each link direction.",
        by_link(lambda lc: lc.wait_ns),
    )
    out.metric(
        "repro_congestion_waits", "counter",
        "Contended hops (packets that queued) per link direction.",
        by_link(lambda lc: lc.waits),
    )
    out.metric(
        "repro_congestion_peak_queue", "gauge",
        "Deepest head-of-line queue per link direction.",
        by_link(lambda lc: lc.peak_depth),
    )
    out.metric(
        "repro_congestion_episodes", "gauge",
        "Merged HOL-blocking episodes per link direction.",
        by_link(lambda lc: len(lc.episodes)),
    )
    out.metric(
        "repro_congestion_total_hol_wait_ns", "counter",
        "Total head-of-line wait across the machine.",
        [("", tree.total_wait_ns)],
    )
    out.metric(
        "repro_congestion_contended_links", "gauge",
        "Link directions that caused at least one HOL wait.",
        [("", len(tree.links))],
    )
    if view is not None:
        out.metric(
            "repro_congestion_samples_dropped", "counter",
            "Timeline samples overwritten by ring-buffer capacity.",
            [("", view.total_dropped())],
        )
    return out.text()


# ---------------------------------------------------------------------------
# JSON (machine-readable, one canonical document)
# ---------------------------------------------------------------------------

def congestion_doc(
    tree: CongestionTree,
    experiment: str = "",
    shape: Optional[tuple[int, int, int]] = None,
    top: Optional[int] = None,
) -> dict:
    """The ``repro-congest/1`` document the CLI's ``--json`` emits."""
    doc = tree.to_doc(top=top)
    if experiment:
        doc["experiment"] = experiment
    if shape is not None:
        doc["shape"] = list(shape)
    return doc
