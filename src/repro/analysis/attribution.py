"""Trace-derived latency attribution (the measured Fig. 6).

:func:`breakdown_162ns` reproduces Fig. 6 from calibration constants;
this module derives the same component taxonomy from a *recorded* run
instead.  Given one packet's flight-recorder spans (and, when present,
the sending slice's software-send span and the receiving slice's
successful-poll record), :func:`attribute_flight` attributes every
nanosecond between send start and poll completion to one of Fig. 6's
component categories:

* software send (packet assembly on the Tensilica core),
* on-chip router hops at the source, at transit nodes, and at the
  destination,
* link-adapter crossings and the per-dimension extra wire delay,
* payload serialization beyond the header (virtual cut-through charges
  it once, at the first link),
* head-of-line queue waits, multicast table lookups, and the final
  successful counter poll.

The attribution is *conservative by construction*: the category totals
sum exactly to the measured end-to-end time, with any residue the
structural model cannot explain (e.g. adaptive-routing jitter or
in-order delivery gating) reported as ``UNATTRIBUTED`` rather than
silently folded into a real component.  The regression tests assert
that for uncontended sends every category lands within 1 ns of the
calibration constants in :mod:`repro.constants`.

The calibrated per-hop split exists once, as a column pass:
:func:`hop_split_columns` splits many hops at once (the congestion
X-ray's decomposition of a whole run), and :func:`hop_split` is its
one-hop form.  Its float rule is the flight record's (see
:mod:`repro.trace.flight`): a hop's explained time adds its parts one
at a time in path order, an absent part adding 0.0, so a column
computes bit for bit what a per-hop loop would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro import instruments
from repro.constants import (
    DST_RING_NS,
    HEADER_BYTES,
    LINK_ADAPTER_NS,
    MULTICAST_LOOKUP_NS,
    THROUGH_RING_NS,
    TORUS_LINK_EFFECTIVE_GBPS,
    WIRE_NS,
)
from repro.trace.flight import Delivery, HopRecord, PacketFlight, PollRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.flight import FlightRecorder

_HEADER_SER_NS = HEADER_BYTES * 8.0 / TORUS_LINK_EFFECTIVE_GBPS


class Component(Enum):
    """Fig. 6's component taxonomy, extended with the categories a
    contended or multicast path can additionally occupy."""

    SOFTWARE_SEND = "software send (packet assembly in slice)"
    SRC_RING = "on-chip router hops (source)"
    QUEUE_WAIT = "head-of-line queue wait"
    RETRY = "link-level retransmission (CRC retry)"
    LINK_ADAPTER = "link adapters (incl. X wire)"
    WIRE = "extra wire delay (Y/Z dims)"
    SERIALIZATION = "payload serialization beyond header"
    MCAST_LOOKUP = "multicast table lookup"
    TRANSIT_RING = "on-chip router hops (transit)"
    DST_RING = "on-chip router hops (destination)"
    RECEIVE = "successful poll of synchronization counter"
    UNATTRIBUTED = "unattributed (jitter / ordering)"


#: Rendering and summation order of the taxonomy (path order).
COMPONENT_ORDER = tuple(Component)


@dataclass(slots=True)
class PathSegment:
    """One attributed stretch of a packet's causal chain."""

    component: Component
    start_ns: float
    end_ns: float
    detail: str = ""

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class Attribution:
    """Component breakdown of one end-to-end packet journey.

    ``totals`` always contains every category (zero when unused), so
    reports across packets align; ``segments`` give the path order.
    """

    packet_id: int
    start_ns: float
    end_ns: float
    segments: list[PathSegment] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def totals(self) -> dict[Component, float]:
        out = {c: 0.0 for c in COMPONENT_ORDER}
        for seg in self.segments:
            out[seg.component] += seg.duration_ns
        return out

    def ns(self, component: Component) -> float:
        return self.totals[component]

    def check(self, tol_ns: float = 1e-6) -> None:
        """Assert the segments tile [start, end] exactly."""
        covered = sum(seg.duration_ns for seg in self.segments)
        if abs(covered - self.total_ns) > tol_ns:
            raise AssertionError(
                f"attribution of packet {self.packet_id} covers "
                f"{covered} ns of a {self.total_ns} ns journey"
            )


def payload_extra_ns(wire_bytes: int) -> float:
    """Serialization latency beyond the header for a packet of
    ``wire_bytes`` (virtual cut-through charges it once, at the first
    link; the header's own wire time overlaps the adapter latency)."""
    return max(
        0.0, wire_bytes * 8.0 / TORUS_LINK_EFFECTIVE_GBPS - _HEADER_SER_NS
    )


#: Link dimensions in the order of their codes in :func:`hop_split_columns`.
DIMS = ("x", "y", "z")


def hop_split_columns(
    dim: np.ndarray,
    grant_ns: np.ndarray,
    retry_ns: np.ndarray,
    first_link: np.ndarray,
    terminal: np.ndarray,
    multicast: np.ndarray,
    payload_extra_ns: np.ndarray,
    segment_end_ns: np.ndarray,
) -> list[tuple[Component, np.ndarray]]:
    """Split many hops' measured ``[grant, segment_end]`` stretches into
    components at once: one column per component, in path order.

    Every argument is one column with an entry per hop (``dim`` holds
    codes into :data:`DIMS`; ``first_link``, ``terminal`` and
    ``multicast`` are booleans).  The structural parts come from the
    calibrated latency model (the same arithmetic the transport
    charges); whatever measured time they do not explain is the
    ``UNATTRIBUTED`` column, so the split still tiles each hop's
    interval exactly.  A hop has a part exactly where its column is
    nonzero: every calibrated part is positive, and the residue is
    dropped (0) when it is within 1e-9 ns of nothing.

    This is the one calibrated hop split: :func:`hop_split` is its
    one-hop form, which :func:`attribute_path` labels
    (:func:`hop_components`), and the congestion X-ray's per-packet
    delay decomposition (:mod:`repro.congestion.decompose`) buckets
    it for every hop of a run, so the views can never disagree on the
    arithmetic.  The explained total adds the parts hop by hop in path
    order, with an absent part adding 0.0 (which changes no float).
    """
    zero = np.zeros(len(grant_ns))
    columns = [
        # Fault injection: the link-level protocol spent this long on
        # failed attempts (serialization + CRC detect + NAK + backoff)
        # before the transmission that went through.
        (Component.RETRY, np.where(retry_ns > 0.0, retry_ns, zero)),
        (Component.LINK_ADAPTER, zero + 2 * LINK_ADAPTER_NS),
        (Component.WIRE, _WIRE_NS[dim]),
        (Component.MCAST_LOOKUP,
         np.where(multicast, MULTICAST_LOOKUP_NS, zero)),
        # Virtual cut-through charges the payload once, at the first
        # link; a later link crosses a transit node's ring instead.
        (Component.SERIALIZATION, np.where(
            first_link & (payload_extra_ns > 0), payload_extra_ns, zero)),
        (Component.TRANSIT_RING, np.where(first_link, zero, _TRANSIT_NS[dim])),
        (Component.DST_RING, np.where(terminal, DST_RING_NS, zero)),
    ]
    explained = zero
    for _, ns in columns:
        explained = explained + ns
    residue = (segment_end_ns - grant_ns) - explained
    columns.append((
        Component.UNATTRIBUTED,
        np.where(np.abs(residue) > 1e-9, residue, zero),
    ))
    return columns


def hop_split(
    dim: str,
    grant_ns: float,
    retry_ns: float,
    *,
    first_link: bool,
    terminal: bool,
    multicast: bool,
    payload_extra_ns: float,
    segment_end_ns: float,
) -> list[tuple[Component, float]]:
    """:func:`hop_split_columns` of one hop: its parts, in path order."""
    columns = hop_split_columns(
        np.array([DIMS.index(dim)]), np.array([grant_ns]),
        np.array([retry_ns]), np.array([first_link]),
        np.array([terminal]), np.array([multicast]),
        np.array([payload_extra_ns]), np.array([segment_end_ns]),
    )
    return [
        (comp, ns)
        for comp, (ns,) in ((comp, col.tolist()) for comp, col in columns)
        if ns != 0.0
    ]


#: The parts of a hop split that only the link's dimension decides, by
#: dimension code (no extra wire on X: its wire is in the adapters).
_WIRE_NS = np.array([max(WIRE_NS[d] - WIRE_NS["x"], 0.0) for d in DIMS])
_TRANSIT_NS = np.array([THROUGH_RING_NS[d] for d in DIMS])


def hop_components(
    hop: HopRecord,
    *,
    first_link: bool,
    terminal: bool,
    multicast: bool,
    payload_extra_ns: float,
    segment_end_ns: float,
) -> list[tuple[Component, float, str]]:
    """:func:`hop_split` of one recorded hop, each part labelled."""
    labels = {
        Component.RETRY: f"{hop.retries} retransmission(s) on {hop.link}",
        Component.LINK_ADAPTER: f"{hop.link} pair",
        Component.WIRE: f"{hop.dim} wire",
        Component.MCAST_LOOKUP: hop.link,
        Component.SERIALIZATION: "first link",
        Component.TRANSIT_RING: f"via {hop.from_node}",
        Component.DST_RING: "",
        Component.UNATTRIBUTED: f"residue at {hop.link}",
    }
    return [
        (comp, ns, labels[comp])
        for comp, ns in hop_split(
            hop.dim, hop.grant_ns, hop.retry_ns,
            first_link=first_link,
            terminal=terminal,
            multicast=multicast,
            payload_extra_ns=payload_extra_ns,
            segment_end_ns=segment_end_ns,
        )
    ]


def attribute_path(
    flight: PacketFlight,
    hops: Sequence[HopRecord],
    delivery: Delivery,
    poll: Optional[PollRecord] = None,
) -> Attribution:
    """Attribute one causal chain (injection → ``delivery``) built from
    ``hops`` — for unicast the flight's hop list, for multicast one
    branch of the fan-out tree (see
    :func:`repro.analysis.critical_path.branch_hops`).
    """
    start = (
        flight.send_begin_ns if flight.send_begin_ns is not None else flight.inject_ns
    )
    end = poll.done_ns if poll is not None else delivery.time_ns
    attr = Attribution(packet_id=flight.packet_id, start_ns=start, end_ns=end)
    segs = attr.segments
    cursor = start
    if flight.send_begin_ns is not None:
        segs.append(
            PathSegment(Component.SOFTWARE_SEND, cursor, flight.inject_ns,
                        flight.src_client)
        )
        cursor = flight.inject_ns
    payload_extra = payload_extra_ns(flight.wire_bytes)
    if not hops:
        # Intra-node delivery: source ring only (the message is
        # delivered on the way around the on-chip ring).
        segs.append(
            PathSegment(Component.SRC_RING, cursor, delivery.time_ns, "local")
        )
        cursor = delivery.time_ns
    else:
        segs.append(
            PathSegment(Component.SRC_RING, cursor, hops[0].enqueue_ns, "")
        )
        cursor = hops[0].enqueue_ns
        for i, hop in enumerate(hops):
            if hop.grant_ns > hop.enqueue_ns:
                segs.append(
                    PathSegment(
                        Component.QUEUE_WAIT, hop.enqueue_ns, hop.grant_ns,
                        f"{hop.link} behind {hop.queue_depth}",
                    )
                )
            cursor = hop.grant_ns
            seg_end = (
                hops[i + 1].enqueue_ns if i + 1 < len(hops) else delivery.time_ns
            )
            for comp, dur, detail in hop_components(
                hop,
                first_link=(i == 0),
                terminal=(i + 1 == len(hops)),
                multicast=flight.multicast,
                payload_extra_ns=payload_extra,
                segment_end_ns=seg_end,
            ):
                segs.append(PathSegment(comp, cursor, cursor + dur, detail))
                cursor += dur
            cursor = seg_end
    if poll is not None:
        segs.append(
            PathSegment(Component.RECEIVE, delivery.time_ns, poll.done_ns,
                        poll.counter_id)
        )
        cursor = poll.done_ns
    attr.check()
    return attr


def attribute_flight(
    flight: PacketFlight,
    recorder: "Optional[FlightRecorder]" = None,
    delivery: Optional[Delivery] = None,
) -> Attribution:
    """Attribute a unicast flight end to end.

    When ``recorder`` is given, the receiver's successful poll is
    joined on so the attribution covers the full Fig. 6 span (send
    begin → poll done); otherwise it ends at delivery.
    """
    if not flight.deliveries:
        raise ValueError(f"packet {flight.packet_id} was never delivered")
    if delivery is None:
        delivery = flight.deliveries[-1]
    poll = recorder.poll_for(flight, delivery) if recorder is not None else None
    return attribute_path(flight, flight.hops, delivery, poll)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_attribution(
    attr: Attribution,
    title: str = "Trace-derived latency attribution",
    local_id: Optional[int] = None,
) -> str:
    """Fig. 6-style component table for one attributed journey.

    ``local_id`` substitutes a dense per-run packet id for the raw
    process-global one, keeping reports byte-identical across runs.
    """
    from repro.analysis.report import render_table

    rows = []
    for comp, ns in attr.totals.items():
        if ns != 0.0:
            rows.append([comp.value, ns])
    rows.append(["TOTAL (trace-derived)", attr.total_ns])
    shown = attr.packet_id if local_id is None else local_id
    return render_table(
        f"{title} (packet #{shown})", ["component", "ns"], rows,
        float_format="{:.1f}",
    )


# ---------------------------------------------------------------------------
# Measurement harness behind ``python -m repro attribute latency``
# ---------------------------------------------------------------------------

@dataclass
class AttributionMeasurement:
    """One attributed single-write experiment."""

    hops: int
    shape: tuple[int, int, int]
    destination: tuple[int, int, int]
    payload_bytes: int
    attribution: Attribution
    elapsed_ns: float  # simulated end-to-end (send start -> poll done)


def measure_attribution(
    hops: int = 1,
    shape: tuple[int, int, int] = (8, 8, 8),
    payload_bytes: int = 0,
) -> AttributionMeasurement:
    """Run one traced counted remote write over ``hops`` network hops
    and attribute its recorded spans.

    The experiment is the Fig. 6 setup: a single uncontended write from
    slice 0 of node (0,0,0) followed by the receiver's successful poll;
    the attribution's total equals the simulated end-to-end latency
    exactly, and each category lands on its calibration constant.
    """
    from repro.analysis.latency import _destination_for_hops
    from repro.asic.node import build_machine
    from repro.asic.slice_ import poll_step, run_programs, write_step
    from repro.engine.simulator import Simulator
    from repro.trace.flight import FlightRecorder, use_flight

    dst_coord = _destination_for_hops(shape, hops)
    sim = Simulator()
    fl = FlightRecorder()
    with use_flight(fl):
        machine = build_machine(sim, *shape)
    src = machine.node((0, 0, 0)).slice(0)
    # The 0-hop case sends between slices of one node, as in Fig. 5.
    dst = machine.node(dst_coord).slice(1 if hops == 0 else 0)
    dst.memory.allocate("attr", 1)
    start = sim.now
    elapsed = run_programs(sim, [
        (src, [write_step(dst.node, dst.name, counter_id="attr",
                          address=("attr", 0), payload_bytes=payload_bytes)]),
        (dst, [poll_step("attr", 1)]),
    ]) - start
    [flight] = fl.packets()
    attr = attribute_flight(flight, fl)
    # The write's own recorder keeps the analysis to this one packet; a
    # capture around the call (``Captures(flight=True)``) still sees it.
    outer = instruments.current().flight
    if outer is not None and outer.enabled:
        outer.absorb(fl)
    return AttributionMeasurement(
        hops=hops,
        shape=shape,
        destination=dst_coord,
        payload_bytes=payload_bytes,
        attribution=attr,
        elapsed_ns=elapsed,
    )
