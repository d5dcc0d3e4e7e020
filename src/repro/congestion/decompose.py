"""Per-packet queueing-delay decomposition (the X-ray's time axis).

:mod:`repro.analysis.attribution` splits one packet's journey into
Fig. 6's component taxonomy; this module answers the congestion
question instead: *for every packet in a run, where between injection
and delivery did the time go* — split per hop into serialization,
wire, head-of-line wait, retry backoff, and through-node cost, plus
the endpoint ring traversals outside the hops.

The discipline is identical to the attribution module (whose
:func:`~repro.analysis.attribution.hop_split` does the calibrated
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

from repro.analysis.attribution import Component, hop_split, payload_extra_ns
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

# How the attribution taxonomy folds into the congestion buckets (see
# ``_tile``): module constants, because an Enum hashes in Python.
_RETRY = Component.RETRY
_LINK_ADAPTER = Component.LINK_ADAPTER
_WIRE = Component.WIRE
_SERIALIZATION = Component.SERIALIZATION
_MCAST_LOOKUP = Component.MCAST_LOOKUP
_TRANSIT_RING = Component.TRANSIT_RING
_DST_RING = Component.DST_RING


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

    def _sums(self) -> list[float]:
        """Bucket totals in :data:`BUCKET_ORDER`."""
        endpoint = self.endpoint_ns
        hol = ser = wire = retry = through = unattributed = 0.0
        for h in self.hops:
            hol += h.hol_wait_ns
            ser += h.serialization_ns
            wire += h.wire_ns
            retry += h.retry_ns
            through += h.through_node_ns
            endpoint += h.endpoint_ns
            unattributed += h.unattributed_ns
        return [endpoint, hol, ser, wire, retry, through, unattributed]

    @property
    def totals(self) -> dict[DelayBucket, float]:
        return dict(zip(BUCKET_ORDER, self._sums()))

    def ns(self, bucket: DelayBucket) -> float:
        return self.totals[bucket]

    def check(self, tol_ns: float = 1e-6) -> None:
        """Assert the buckets tile [start, end] exactly."""
        covered = sum(self._sums())
        if abs(covered - self.total_ns) > tol_ns:
            raise AssertionError(
                f"decomposition of packet {self.packet_id} covers "
                f"{covered} ns of a {self.total_ns} ns journey"
            )


#: One hop as the decomposition reads it: (link, direction, dim,
#: enqueue_ns, grant_ns, retry_ns).
_Hop = tuple[str, str, str, float, float, float]


def _tile(
    out: PacketDecomposition,
    hops: Sequence[_Hop],
    multicast: bool,
    wire_bytes: int,
) -> PacketDecomposition:
    """Fill ``out`` with the buckets of the causal chain ``hops``."""
    start, end = out.start_ns, out.end_ns
    if not hops:
        # Intra-node delivery: the whole journey is ring traversal.
        out.endpoint_ns = end - start
        out.check()
        return out
    payload_extra = payload_extra_ns(wire_bytes)
    out.endpoint_ns = hops[0][3] - start
    last = len(hops) - 1
    for i, (link, direction, dim, enqueue, grant, retry) in enumerate(hops):
        seg_end = hops[i + 1][3] if i < last else end
        retry_ns = wire = ser = through = endpoint = unattributed = 0.0
        for comp, ns in hop_split(
            dim, grant, retry,
            first_link=(i == 0),
            terminal=(i == last),
            multicast=multicast,
            payload_extra_ns=payload_extra,
            segment_end_ns=seg_end,
        ):
            if comp is _LINK_ADAPTER or comp is _WIRE:
                wire += ns
            elif comp is _MCAST_LOOKUP or comp is _TRANSIT_RING:
                through += ns
            elif comp is _SERIALIZATION:
                ser += ns
            elif comp is _DST_RING:
                endpoint += ns
            elif comp is _RETRY:
                retry_ns += ns
            else:
                unattributed += ns
        out.hops.append(HopDelay(
            link=link,
            direction=direction,
            start_ns=enqueue,
            end_ns=seg_end,
            hol_wait_ns=grant - enqueue,
            serialization_ns=ser,
            wire_ns=wire,
            retry_ns=retry_ns,
            through_node_ns=through,
            endpoint_ns=endpoint,
            unattributed_ns=unattributed,
        ))
    out.check()
    return out


def decompose_path(
    flight: PacketFlight,
    hops: Sequence[HopRecord],
    delivery: Delivery,
) -> PacketDecomposition:
    """Decompose one causal chain (injection → ``delivery``).

    For unicast pass ``flight.hops``; for multicast pass one branch of
    the fan-out tree (:func:`repro.analysis.critical_path.branch_hops`).
    """
    out = PacketDecomposition(
        packet_id=flight.packet_id,
        start_ns=flight.inject_ns,
        end_ns=delivery.time_ns,
    )
    chain = [
        (h.link, direction_label(h.dim, h.sign), h.dim, h.enqueue_ns,
         h.grant_ns, h.retry_ns)
        for h in hops
    ]
    return _tile(out, chain, flight.multicast, flight.wire_bytes)


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
    """Every delivered flight's decomposition against its last
    delivery, in injection order, read straight from the logs."""
    from repro.analysis.critical_path import branch_chain

    links = recorder.link_table
    hop_link = recorder.hop_link
    enqueue_ns = recorder.hop_enqueue_ns
    grant_ns = recorder.hop_grant_ns
    faults = recorder.hop_faults
    flight_rows, starts = recorder.hop_rows()
    multicast = recorder.flight_multicast
    out = []
    for fi, last in enumerate(recorder.last_delivery_rows()):
        if last < 0:
            continue
        rows = flight_rows[starts[fi]:starts[fi + 1]]
        if multicast[fi]:
            if torus is None:
                raise ValueError(
                    "decomposing a multicast flight needs the torus geometry"
                )
            chain = branch_chain(
                recorder.flight_packet_id[fi],
                [links[hop_link[row]].neighbor for row in rows],
                [links[hop_link[row]].node for row in rows],
                torus.coord(recorder.flight_src_node[fi]),
                torus.coord(recorder.delivery_node[last]),
            )
            rows = [rows[k] for k in chain]
        hops = []
        for row in rows:
            link = links[hop_link[row]]
            fault = faults.get(row)
            hops.append((
                link.name, link.direction, link.dim, enqueue_ns[row],
                grant_ns[row], 0.0 if fault is None else fault[1],
            ))
        out.append(_tile(
            PacketDecomposition(
                packet_id=recorder.flight_packet_id[fi],
                start_ns=recorder.flight_inject_ns[fi],
                end_ns=recorder.delivery_ns[last],
            ),
            hops, bool(multicast[fi]), recorder.flight_wire_bytes[fi],
        ))
    return out


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
