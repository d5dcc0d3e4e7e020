"""Critical-path extraction from flight-recorder traces.

Three views of "where did the time go" for a recorded window of
simulation:

* **Per-packet** — :func:`branch_hops` rebuilds the causal hop chain
  behind any single delivery, including one branch of a multicast
  fan-out tree (the flat hop list interleaves all branches; the
  per-hop ``from_node`` plus the torus geometry disambiguates them).
  Feed the branch to :func:`repro.analysis.attribution.attribute_path`
  for a Fig. 6-style component split of exactly that chain.
* **Per-phase** — :func:`phase_reports` finds, for every marked phase
  (a collective round, a migration, an MD-step phase), the *critical
  packet*: the one whose delivery closes the phase's longest
  dependency chain, together with the phase's aggregate queueing and
  traffic.  This is the trace-derived analogue of Table 3's
  critical-path accounting.
* **Per-link** — :func:`link_hotspots` ranks link directions by the
  head-of-line blocking they caused, with busy time and queue-depth
  percentiles.

Everything here is a pure function of recorded state — analyzers never
touch the simulator, so they can run on a live recorder mid-simulation
or on one captured long ago.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.attribution import Attribution, attribute_path
from repro.trace.flight import (
    Delivery,
    FlightRecorder,
    HopRecord,
    PacketFlight,
    PhaseSpan,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.torus import Torus3D


# ---------------------------------------------------------------------------
# Per-packet: multicast branch reconstruction
# ---------------------------------------------------------------------------

def branch_chain(
    packet_id: int,
    arrivals: Sequence[tuple],
    departures: Sequence[tuple],
    src: tuple,
    node: tuple,
) -> list[int]:
    """Positions, in path order, of the hops that carried a packet
    from ``src`` to ``node``; hop ``k`` leaves ``departures[k]`` and
    enters ``arrivals[k]``.

    Multicast replication forms a tree, so every node is entered by at
    most one link; a duplicate arrival means the recorded hops are not
    a tree and reconstruction would be ambiguous.
    """
    by_dst: dict[tuple, int] = {}
    for k, dst in enumerate(arrivals):
        if dst in by_dst:
            raise ValueError(
                f"packet {packet_id} entered node {tuple(dst)} twice; "
                "hop records do not form a tree"
            )
        by_dst[dst] = k
    chain: list[int] = []
    while node != src:
        k = by_dst.get(node)
        if k is None:
            raise ValueError(
                f"no recorded hop delivers packet {packet_id} "
                f"into node {tuple(node)}"
            )
        chain.append(k)
        node = departures[k]
    chain.reverse()
    return chain


def branch_hops(
    flight: PacketFlight, torus: "Torus3D", delivery: Delivery
) -> list[HopRecord]:
    """The causal hop chain from injection to one ``delivery``.

    For unicast this equals ``flight.hops``; for multicast it selects
    the single root-to-destination branch of the fan-out tree that
    produced this delivery (empty for the local delivery at the
    source node).
    """
    hops = flight.hops
    chain = branch_chain(
        flight.packet_id,
        [torus.neighbor(h.from_node, h.dim, h.sign) for h in hops],
        [torus.coord(h.from_node) for h in hops],
        torus.coord(flight.src_node),
        torus.coord(delivery.node),
    )
    return [hops[k] for k in chain]


def branch_paths(
    flight: PacketFlight, torus: "Torus3D"
) -> list[tuple[Delivery, list[HopRecord]]]:
    """Every delivery of ``flight`` with its causal hop chain, in
    delivery order."""
    return [(d, branch_hops(flight, torus, d)) for d in flight.deliveries]


# ---------------------------------------------------------------------------
# Per-phase: critical packet and aggregate accounting
# ---------------------------------------------------------------------------

@dataclass
class PhaseReport:
    """Trace-derived critical-path accounting for one marked phase."""

    phase: PhaseSpan
    #: Flights whose life overlaps the phase window.
    packets: int
    #: Deliveries landing inside the window.
    deliveries: int
    #: Total head-of-line blocking accumulated inside the window.
    queue_wait_ns: float
    #: Dense id of the critical packet (None for a phase with no
    #: deliveries, e.g. pure-compute phases).
    critical_local_id: Optional[int]
    #: The critical packet's last in-window delivery.
    critical_delivery: Optional[Delivery]
    #: Component attribution of the critical packet's causal chain.
    critical_attribution: Optional[Attribution]

    @property
    def name(self) -> str:
        return self.phase.name

    @property
    def duration_ns(self) -> float:
        assert self.phase.end_ns is not None
        return self.phase.end_ns - self.phase.begin_ns


def critical_flight(
    recorder: FlightRecorder, begin_ns: float, end_ns: float
) -> Optional[tuple[PacketFlight, Delivery]]:
    """The flight whose delivery lands last inside ``[begin, end]``.

    The phase cannot close before its last delivery is consumed, so
    that delivery terminates the longest dependency chain through the
    window.  Ties break toward the earliest-injected packet so the
    answer is deterministic.
    """
    local = recorder.local_ids()
    best: Optional[tuple[PacketFlight, Delivery]] = None
    best_key: Optional[tuple[float, int]] = None
    for f in recorder.flights_in(begin_ns, end_ns):
        for d in f.deliveries:
            if not begin_ns <= d.time_ns <= end_ns:
                continue
            key = (d.time_ns, -local[f.packet_id])
            if best_key is None or key > best_key:
                best_key = key
                best = (f, d)
    return best


def phase_reports(
    recorder: FlightRecorder,
    torus: "Torus3D",
) -> list[PhaseReport]:
    """One :class:`PhaseReport` per closed phase, in begin order."""
    local = recorder.local_ids()
    out = []
    for span in recorder.closed_phases():
        begin, end = span.begin_ns, span.end_ns
        assert end is not None
        in_window = recorder.flights_in(begin, end)
        deliveries = sum(
            1
            for f in in_window
            for d in f.deliveries
            if begin <= d.time_ns <= end
        )
        # Exactly rounded: the same-instant injection order, which
        # engine event layout sets, cannot move the total.
        wait = math.fsum(
            h.wait_ns
            for f in in_window
            for h in f.hops
            if begin <= h.enqueue_ns <= end
        )
        crit = critical_flight(recorder, begin, end)
        attribution = None
        crit_id = None
        crit_delivery = None
        if crit is not None:
            flight, delivery = crit
            crit_id = local[flight.packet_id]
            crit_delivery = delivery
            hops = branch_hops(flight, torus, delivery)
            attribution = attribute_path(
                flight, hops, delivery, recorder.poll_for(flight, delivery)
            )
        out.append(
            PhaseReport(
                phase=span,
                packets=len(in_window),
                deliveries=deliveries,
                queue_wait_ns=wait,
                critical_local_id=crit_id,
                critical_delivery=crit_delivery,
                critical_attribution=attribution,
            )
        )
    return out


def render_phase_reports(reports: list[PhaseReport]) -> str:
    """Phase table: duration, traffic, queueing, critical packet."""
    from repro.analysis.report import render_table

    rows = []
    for r in reports:
        rows.append(
            [
                r.name,
                r.duration_ns,
                r.packets,
                r.deliveries,
                r.queue_wait_ns,
                "-" if r.critical_local_id is None else f"#{r.critical_local_id}",
            ]
        )
    return render_table(
        "Phase critical paths",
        ["phase", "ns", "packets", "deliveries", "queue wait ns", "critical"],
        rows,
        float_format="{:.1f}",
    )


# ---------------------------------------------------------------------------
# Per-link: contention hotspots
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class LinkHotspot:
    """Contention summary for one link direction."""

    link: str
    traversals: int
    busy_ns: float
    wait_ns: float
    max_queue_depth: int
    p50_queue_depth: int
    p90_queue_depth: int
    p99_queue_depth: int


def link_hotspots(
    recorder: FlightRecorder, top: Optional[int] = None
) -> list[LinkHotspot]:
    """Link directions ranked worst-offender first.

    Ordered by total head-of-line wait caused, then busy time, then
    name (so the ranking is deterministic even among idle links).
    ``top`` truncates to the N worst.
    """
    spots = []
    for link in recorder.links():
        spots.append(
            LinkHotspot(
                link=link,
                traversals=len(recorder.link_occupancy.get(link, [])),
                busy_ns=recorder.link_busy_ns(link),
                wait_ns=recorder.link_wait_ns(link),
                max_queue_depth=recorder.max_queue_depth(link),
                p50_queue_depth=recorder.queue_depth_percentile(link, 50),
                p90_queue_depth=recorder.queue_depth_percentile(link, 90),
                p99_queue_depth=recorder.queue_depth_percentile(link, 99),
            )
        )
    spots.sort(key=lambda s: (-s.wait_ns, -s.busy_ns, s.link))
    return spots if top is None else spots[:top]


def render_hotspots(
    spots: list[LinkHotspot], title: str = "Link contention hotspots"
) -> str:
    from repro.analysis.report import render_table

    rows = [
        [
            s.link,
            s.traversals,
            s.busy_ns,
            s.wait_ns,
            s.max_queue_depth,
            s.p50_queue_depth,
            s.p90_queue_depth,
            s.p99_queue_depth,
        ]
        for s in spots
    ]
    return render_table(
        title,
        ["link", "uses", "busy ns", "wait ns", "max q", "p50", "p90", "p99"],
        rows,
        float_format="{:.1f}",
    )
