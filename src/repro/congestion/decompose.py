"""Per-packet queueing-delay decomposition (the X-ray's time axis).

:mod:`repro.analysis.attribution` splits one packet's journey into
Fig. 6's component taxonomy; this module answers the congestion
question instead: *for every packet in a run, where between injection
and delivery did the time go* — split per hop into serialization,
wire, head-of-line wait, retry backoff, and through-node cost, plus
the endpoint ring traversals outside the hops.

The discipline is identical to the attribution module (whose
:func:`~repro.analysis.attribution.hop_components` does the calibrated
arithmetic for both): every decomposition tiles the flight recorder's
end-to-end latency (``inject → last delivery``) **exactly**, with
whatever the structural model cannot explain reported as an explicit
``UNATTRIBUTED`` residual, never silently folded into a real bucket.
:meth:`PacketDecomposition.check` asserts the tiling and the
hypothesis property tests exercise it across random contended runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.attribution import Component, hop_components, payload_extra_ns
from repro.congestion.view import direction_label
from repro.trace.flight import Delivery, HopRecord, PacketFlight

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.torus import Torus3D
    from repro.trace.flight import FlightRecorder


class DelayBucket(Enum):
    """Where one nanosecond of a packet's life was spent."""

    ENDPOINT = "endpoint rings (source/destination on-chip)"
    HOL_WAIT = "head-of-line wait"
    SERIALIZATION = "payload serialization"
    WIRE = "wire + link adapters"
    RETRY = "retry backoff"
    THROUGH_NODE = "through-node cost"
    UNATTRIBUTED = "UNATTRIBUTED residual"


#: Rendering and summation order.
BUCKET_ORDER = tuple(DelayBucket)

#: How the attribution taxonomy folds into the congestion buckets.
_COMPONENT_BUCKET = {
    Component.RETRY: DelayBucket.RETRY,
    Component.LINK_ADAPTER: DelayBucket.WIRE,
    Component.WIRE: DelayBucket.WIRE,
    Component.SERIALIZATION: DelayBucket.SERIALIZATION,
    Component.MCAST_LOOKUP: DelayBucket.THROUGH_NODE,
    Component.TRANSIT_RING: DelayBucket.THROUGH_NODE,
    Component.DST_RING: DelayBucket.ENDPOINT,
    Component.UNATTRIBUTED: DelayBucket.UNATTRIBUTED,
}


@dataclass(slots=True)
class HopDelay:
    """One hop's ``[enqueue, next-enqueue-or-delivery]`` stretch,
    split into the congestion buckets."""

    link: str
    direction: str
    start_ns: float
    end_ns: float
    hol_wait_ns: float = 0.0
    serialization_ns: float = 0.0
    wire_ns: float = 0.0
    retry_ns: float = 0.0
    through_node_ns: float = 0.0
    #: Destination-ring share of the terminal hop's segment (folded
    #: into the packet's ENDPOINT total, not a per-hop network cost).
    endpoint_ns: float = 0.0
    unattributed_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class PacketDecomposition:
    """One packet's end-to-end latency, exactly tiled.

    ``endpoint_ns`` carries the source-ring lead-in (injection to first
    enqueue; the whole journey for an intra-node delivery); each
    :class:`HopDelay` covers one contiguous hop stretch.  The bucket
    totals sum to ``end_ns - start_ns`` to within float tolerance.
    """

    packet_id: int
    start_ns: float
    end_ns: float
    endpoint_ns: float = 0.0
    hops: list[HopDelay] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def totals(self) -> dict[DelayBucket, float]:
        out = {b: 0.0 for b in BUCKET_ORDER}
        out[DelayBucket.ENDPOINT] = self.endpoint_ns
        for h in self.hops:
            out[DelayBucket.HOL_WAIT] += h.hol_wait_ns
            out[DelayBucket.SERIALIZATION] += h.serialization_ns
            out[DelayBucket.WIRE] += h.wire_ns
            out[DelayBucket.RETRY] += h.retry_ns
            out[DelayBucket.THROUGH_NODE] += h.through_node_ns
            out[DelayBucket.ENDPOINT] += h.endpoint_ns
            out[DelayBucket.UNATTRIBUTED] += h.unattributed_ns
        return out

    def ns(self, bucket: DelayBucket) -> float:
        return self.totals[bucket]

    def check(self, tol_ns: float = 1e-6) -> None:
        """Assert the buckets tile [start, end] exactly."""
        covered = sum(self.totals.values())
        if abs(covered - self.total_ns) > tol_ns:
            raise AssertionError(
                f"decomposition of packet {self.packet_id} covers "
                f"{covered} ns of a {self.total_ns} ns journey"
            )


def decompose_path(
    flight: PacketFlight,
    hops: Sequence[HopRecord],
    delivery: Delivery,
) -> PacketDecomposition:
    """Decompose one causal chain (injection → ``delivery``).

    For unicast pass ``flight.hops``; for multicast pass one branch of
    the fan-out tree (:func:`repro.analysis.critical_path.branch_hops`).
    """
    start = flight.inject_ns
    end = delivery.time_ns
    out = PacketDecomposition(
        packet_id=flight.packet_id, start_ns=start, end_ns=end
    )
    if not hops:
        # Intra-node delivery: the whole journey is ring traversal.
        out.endpoint_ns = end - start
        out.check()
        return out
    payload_extra = payload_extra_ns(flight.wire_bytes)
    out.endpoint_ns = hops[0].enqueue_ns - start
    for i, hop in enumerate(hops):
        seg_end = hops[i + 1].enqueue_ns if i + 1 < len(hops) else end
        hd = HopDelay(
            link=hop.link,
            direction=direction_label(hop.dim, hop.sign),
            start_ns=hop.enqueue_ns,
            end_ns=seg_end,
            hol_wait_ns=hop.wait_ns,
        )
        for comp, dur, _detail in hop_components(
            hop,
            first_link=(i == 0),
            terminal=(i + 1 == len(hops)),
            multicast=flight.multicast,
            payload_extra_ns=payload_extra,
            segment_end_ns=seg_end,
        ):
            bucket = _COMPONENT_BUCKET[comp]
            if bucket is DelayBucket.RETRY:
                hd.retry_ns += dur
            elif bucket is DelayBucket.WIRE:
                hd.wire_ns += dur
            elif bucket is DelayBucket.SERIALIZATION:
                hd.serialization_ns += dur
            elif bucket is DelayBucket.THROUGH_NODE:
                hd.through_node_ns += dur
            elif bucket is DelayBucket.ENDPOINT:
                hd.endpoint_ns += dur
            else:
                hd.unattributed_ns += dur
        out.hops.append(hd)
    out.check()
    return out


def decompose_flight(
    flight: PacketFlight,
    torus: "Optional[Torus3D]" = None,
    delivery: Optional[Delivery] = None,
) -> PacketDecomposition:
    """Decompose one flight against its last (or given) delivery.

    Multicast flights interleave every branch's hops in one list, so
    reconstructing the causal chain behind the delivery needs the
    ``torus`` geometry; unicast flights work without it.
    """
    if not flight.deliveries:
        raise ValueError(f"packet {flight.packet_id} was never delivered")
    if delivery is None:
        delivery = flight.deliveries[-1]
    if flight.multicast:
        if torus is None:
            raise ValueError(
                "decomposing a multicast flight needs the torus geometry"
            )
        from repro.analysis.critical_path import branch_hops

        hops: Sequence[HopRecord] = branch_hops(flight, torus, delivery)
    else:
        hops = flight.hops
    return decompose_path(flight, hops, delivery)


def decompose_run(
    recorder: "FlightRecorder", torus: "Optional[Torus3D]" = None
) -> list[PacketDecomposition]:
    """Every delivered flight's decomposition, in injection order."""
    return [
        decompose_flight(f, torus)
        for f in recorder.delivered_flights()
    ]


def aggregate_totals(
    decomps: Sequence[PacketDecomposition],
) -> dict[DelayBucket, float]:
    """Bucket totals summed across packets (the run-level X-ray)."""
    out = {b: 0.0 for b in BUCKET_ORDER}
    for d in decomps:
        for bucket, ns in d.totals.items():
            out[bucket] += ns
    return out


def render_decomposition(
    decomps: Sequence[PacketDecomposition],
    title: str = "Per-packet delay decomposition",
) -> str:
    """Run-level bucket table: total ns, share, per-packet mean."""
    from repro.analysis.report import render_table

    totals = aggregate_totals(decomps)
    grand = sum(totals.values())
    n = max(1, len(decomps))
    rows = []
    for bucket in BUCKET_ORDER:
        ns = totals[bucket]
        if ns == 0.0 and bucket is not DelayBucket.UNATTRIBUTED:
            continue
        share = ns / grand if grand > 0 else 0.0
        rows.append([bucket.value, ns, f"{share:.1%}", ns / n])
    rows.append(["TOTAL (inject → deliver)", grand, "100.0%", grand / n])
    return render_table(
        f"{title} ({len(decomps)} packets)",
        ["bucket", "ns", "share", "ns/packet"],
        rows,
        float_format="{:.1f}",
    )
