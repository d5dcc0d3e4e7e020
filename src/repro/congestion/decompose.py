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

:func:`decompose_run` is one column pass over the flight record (see
:mod:`repro.trace.flight`): every packet's causal chain is gathered as
columns, the column form of the calibrated split
(:func:`~repro.analysis.attribution.hop_split_columns`) buckets every
hop at once, and every packet's tiling is checked at once, before the
:class:`PacketDecomposition` objects are built from the columns.
:func:`decompose_path` runs the same pass on one packet.  Floats follow
the rule of the flight record's passes: each bucket adds its parts in
path order and each packet total its hops in path order, one value at
a time, as a per-hop loop would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.analysis.attribution import (
    DIMS,
    Component,
    hop_split_columns,
    payload_extra_ns,
)
from repro.congestion.view import direction_label
from repro.trace.flight import Delivery, HopRecord, PacketFlight, column

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


#: The congestion bucket each component of a hop split folds into.
_BUCKET_OF = {
    Component.RETRY: DelayBucket.RETRY,
    Component.LINK_ADAPTER: DelayBucket.WIRE,
    Component.WIRE: DelayBucket.WIRE,
    Component.MCAST_LOOKUP: DelayBucket.THROUGH_NODE,
    Component.TRANSIT_RING: DelayBucket.THROUGH_NODE,
    Component.SERIALIZATION: DelayBucket.SERIALIZATION,
    Component.DST_RING: DelayBucket.ENDPOINT,
}


#: Packets per block of the decomposition pass: a block's columns and
#: lists are what the pass holds beside its output.
_BLOCK = 512


def _decompose(
    packet_id: Sequence[int],
    start_ns: np.ndarray,
    end_ns: np.ndarray,
    multicast: np.ndarray,
    payload_extra: np.ndarray,
    hop_packet: np.ndarray,
    link: Sequence[str],
    direction: Sequence[str],
    dim: np.ndarray,
    enqueue_ns: np.ndarray,
    grant_ns: np.ndarray,
    retry_ns: np.ndarray,
) -> list[PacketDecomposition]:
    """Decompose many packets' causal chains, a block of packets at a
    time (:func:`_decompose_block`).

    The first five columns have an entry per packet, the rest one per
    chain hop: ``hop_packet`` is the hop's packet (nondecreasing), and
    each packet's hops are in path order.
    """
    out: list[PacketDecomposition] = []
    for p0 in range(0, len(start_ns), _BLOCK):
        p1 = p0 + _BLOCK
        h0, h1 = np.searchsorted(hop_packet, (p0, p1)).tolist()
        out += _decompose_block(
            packet_id[p0:p1], start_ns[p0:p1], end_ns[p0:p1],
            multicast[p0:p1], payload_extra[p0:p1], hop_packet[h0:h1] - p0,
            link[h0:h1], direction[h0:h1], dim[h0:h1], enqueue_ns[h0:h1],
            grant_ns[h0:h1], retry_ns[h0:h1],
        )
    return out


def _decompose_block(
    packet_id: Sequence[int],
    start_ns: np.ndarray,
    end_ns: np.ndarray,
    multicast: np.ndarray,
    payload_extra: np.ndarray,
    hop_packet: np.ndarray,
    link: Sequence[str],
    direction: Sequence[str],
    dim: np.ndarray,
    enqueue_ns: np.ndarray,
    grant_ns: np.ndarray,
    retry_ns: np.ndarray,
) -> list[PacketDecomposition]:
    """Decompose a block of packets' causal chains in one column pass,
    with :func:`_decompose`'s columns.  A hop's segment ends at the
    next hop's enqueue, the last at the packet's ``end_ns``; the split
    is :func:`~repro.analysis.attribution.hop_split_columns`, and each
    bucket adds its components in path order, starting from 0.0, as a
    per-hop loop would.  Every packet's tiling is checked before any
    object is built.
    """
    packets = len(start_ns)
    hops = len(hop_packet)
    first = np.ones(hops, bool)
    first[1:] = hop_packet[1:] != hop_packet[:-1]
    terminal = np.ones(hops, bool)
    terminal[:-1] = first[1:]
    seg_end = np.empty(hops)
    seg_end[:-1] = enqueue_ns[1:]
    seg_end[terminal] = end_ns[hop_packet[terminal]]
    buckets = {b: np.zeros(hops) for b in BUCKET_ORDER}
    buckets[DelayBucket.HOL_WAIT] = grant_ns - enqueue_ns
    for comp, ns in hop_split_columns(
        dim, grant_ns, retry_ns, first, terminal, multicast[hop_packet],
        payload_extra[hop_packet], seg_end,
    ):
        bucket = _BUCKET_OF.get(comp, DelayBucket.UNATTRIBUTED)
        buckets[bucket] = buckets[bucket] + ns
    # The source-ring lead-in: to the first enqueue, or the whole
    # journey for an intra-node delivery.
    heads = np.zeros(packets + 1, np.int64)
    np.cumsum(np.bincount(hop_packet, minlength=packets), out=heads[1:])
    has_hops = heads[1:] > heads[:-1]
    journey = end_ns - start_ns
    lead = journey.copy()
    lead[has_hops] = enqueue_ns[heads[:-1][has_hops]] - start_ns[has_hops]
    # The tiling check, for every packet at once: each bucket summed
    # over the packet's hops in path order (ENDPOINT from the lead-in),
    # then the buckets in BUCKET_ORDER, as PacketDecomposition.check.
    covered = np.zeros(packets)
    for bucket in BUCKET_ORDER:
        if bucket is DelayBucket.ENDPOINT:
            total = np.bincount(
                np.concatenate((np.arange(packets), hop_packet)),
                weights=np.concatenate((lead, buckets[bucket])),
                minlength=packets,
            )
        else:
            total = np.bincount(
                hop_packet, weights=buckets[bucket], minlength=packets
            )
        covered = covered + total
    bad = np.flatnonzero(np.abs(covered - journey) > 1e-6)
    if len(bad):
        p = bad[0]
        raise AssertionError(
            f"decomposition of packet {packet_id[p]} covers "
            f"{covered[p].item()} ns of a {journey[p].item()} ns journey"
        )
    # The objects share floats where a per-hop loop's would: a segment
    # ends on the next hop's start or on the packet's end, and every
    # zero bucket is one 0.0.
    starts = enqueue_ns.astype(object)
    ends = end_ns.astype(object)
    ends_at = np.empty(hops, object)
    ends_at[:-1] = starts[1:]
    ends_at[terminal] = ends[hop_packet[terminal]]
    delays = list(map(
        HopDelay, link, direction, starts.tolist(), ends_at.tolist(),
        *(_floats(buckets[b]) for b in _HOP_FIELDS),
    ))
    heads = heads.tolist()
    return [
        PacketDecomposition(pid, start, end, endpoint, delays[a:b])
        for pid, start, end, endpoint, a, b in zip(
            packet_id, start_ns.tolist(), ends.tolist(), lead.tolist(),
            heads, heads[1:],
        )
    ]


def _floats(values: np.ndarray) -> list[float]:
    """``values`` as Python floats, every +0.0 the one shared zero."""
    out = values.astype(object)
    out[(values == 0.0) & ~np.signbit(values)] = 0.0
    return out.tolist()


#: The buckets of :class:`HopDelay`'s fields after ``end_ns``, in order.
_HOP_FIELDS = (
    DelayBucket.HOL_WAIT, DelayBucket.SERIALIZATION, DelayBucket.WIRE,
    DelayBucket.RETRY, DelayBucket.THROUGH_NODE, DelayBucket.ENDPOINT,
    DelayBucket.UNATTRIBUTED,
)


def _payload_extra(wire_bytes: Sequence[int]) -> np.ndarray:
    """:func:`~repro.analysis.attribution.payload_extra_ns` per packet."""
    extra = {b: payload_extra_ns(b) for b in set(wire_bytes)}
    return np.array([extra[b] for b in wire_bytes], np.float64)


def decompose_path(
    flight: PacketFlight,
    hops: Sequence[HopRecord],
    delivery: Delivery,
) -> PacketDecomposition:
    """Decompose one causal chain (injection → ``delivery``).

    For unicast pass ``flight.hops``; for multicast pass one branch of
    the fan-out tree (:func:`repro.analysis.critical_path.branch_hops`).
    """
    [out] = _decompose(
        [flight.packet_id],
        np.array([flight.inject_ns]),
        np.array([delivery.time_ns]),
        np.array([flight.multicast]),
        _payload_extra([flight.wire_bytes]),
        np.zeros(len(hops), np.int64),
        [h.link for h in hops],
        [direction_label(h.dim, h.sign) for h in hops],
        np.array([DIMS.index(h.dim) for h in hops], np.int64),
        np.array([h.enqueue_ns for h in hops], np.float64),
        np.array([h.grant_ns for h in hops], np.float64),
        np.array([h.retry_ns for h in hops], np.float64),
    )
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
    """Every delivered flight's decomposition against its last
    delivery, in injection order: one column pass over the logs."""
    from repro.analysis.critical_path import branch_chain

    last = column(recorder.last_delivery_rows())
    flights = np.flatnonzero(last >= 0)
    last = last[flights]
    multicast = column(recorder.flight_multicast).astype(bool)
    rows, starts = recorder.hop_rows()
    rows = column(rows)
    hop_flight = column(recorder.hop_flight)
    hop_link = column(recorder.hop_link)
    table = recorder.link_table
    # A unicast packet's chain is its hops in order.
    delivered = np.zeros(len(multicast), bool)
    delivered[flights] = True
    unicast = rows[(delivered & ~multicast)[hop_flight[rows]]]
    chain_rows = [unicast]
    chain_flight = [hop_flight[unicast]]
    # A multicast packet's is the branch to its last delivery.
    branched = multicast[flights]
    if branched.any():
        if torus is None:
            raise ValueError(
                "decomposing a multicast flight needs the torus geometry"
            )
        for fi, row in zip(
            flights[branched].tolist(), last[branched].tolist()
        ):
            hops = rows[starts[fi]:starts[fi + 1]].tolist()
            links = [table[li] for li in hop_link[hops].tolist()]
            chain = branch_chain(
                recorder.flight_packet_id[fi],
                [lk.neighbor for lk in links],
                [lk.node for lk in links],
                torus.coord(recorder.flight_src_node[fi]),
                torus.coord(recorder.delivery_node[row]),
            )
            chain_rows.append(np.array([hops[k] for k in chain], np.int64))
            chain_flight.append(np.full(len(chain), fi, np.int64))
    chain_flight = np.concatenate(chain_flight)
    order = np.argsort(chain_flight, kind="stable")
    chain = np.concatenate(chain_rows)[order]
    retry = np.zeros(len(hop_flight))
    for row, (_, retry_ns, _) in recorder.hop_faults.items():
        retry[row] = retry_ns
    link = hop_link[chain]
    links = [table[li] for li in link.tolist()]
    dims = np.array([DIMS.index(lk.dim) for lk in table], np.int64)
    return _decompose(
        column(recorder.flight_packet_id)[flights].tolist(),
        column(recorder.flight_inject_ns)[flights],
        column(recorder.delivery_ns)[last],
        multicast[flights],
        _payload_extra(column(recorder.flight_wire_bytes)[flights].tolist()),
        np.searchsorted(flights, chain_flight[order]),
        [lk.name for lk in links],
        [lk.direction for lk in links],
        dims[link],
        column(recorder.hop_enqueue_ns)[chain],
        column(recorder.hop_grant_ns)[chain],
        retry[chain],
    )


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
