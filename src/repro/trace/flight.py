"""The packet flight recorder: per-packet causal spans through the torus.

Anton's on-chip logic analyzer is what made the paper's Fig. 13
timeline and Table 3 critical-path split measurable; this module is
the network-side half of that instrument.  When a
:class:`FlightRecorder` is attached to a
:class:`~repro.network.network.Network`, every packet's life is
recorded as a causal chain of spans:

    inject → (per hop: queue-wait → link occupancy) → deliver(s)

and every link direction accumulates a queue-depth time series, so
congestion is visible per link, per nanosecond.  The recorder is a
passive observer: it reads timestamps the transport already has, and
the one event a capture adds is a queued hop's grant record, which the
recorder schedules at the booked grant time and which changes no
model state, so an instrumented run is simulation-identical to an
uninstrumented one (verified by the test suite and by
``benchmarks/bench_trace_overhead.py``).

Storage: one columnar log.  The recorder keeps four append-only logs of
parallel columns (``array`` for numbers, lists of references for
nodes, clients and kinds), and a row index is the only handle between
them:

* the packet log, one row per injected packet (the row is the packet's
  *flight index*): ``flight_packet_id``, ``flight_inject_ns``,
  ``flight_serialization_ns``, ``flight_kind``, ``flight_src_node``, …;
* the hop log, one row per granted hop, in grant order: ``hop_flight``,
  ``hop_link`` (an index into ``link_table``, where each link direction
  is interned once, name included), ``hop_grant_ns`` and
  ``hop_enqueue_row``;
* the delivery log, one row per arrival: ``delivery_flight``,
  ``delivery_node``, ``delivery_client``, ``delivery_ns``;
* the sample log, one queue-depth sample per enqueue and per grant
  of a queued hop: ``sample_link``, ``sample_ns``, ``sample_depth``.

A hop's enqueue time and queue depth are its enqueue's sample
(``hop_enqueue_row``); its release is grant plus the packet's
serialization, unless the fault session stretched it (``hop_faults``,
a sparse dict keyed by hop row).  ``hop_enqueue_ns``, ``hop_depth`` and
``hop_release_ns`` are those columns, derived.

The read side is column passes.  Every derived column and index
(``hop_enqueue_ns``, ``hop_depth``, ``hop_release_ns``, ``hop_rows``,
``delivery_rows``, ``last_delivery_rows``, ``link_busy``) and every
per-link view (``link_occupancy``, ``queue_depth_series``, the per-link
wait and sorted queue depths behind :meth:`FlightRecorder.link_wait_ns`,
:meth:`~FlightRecorder.max_queue_depth` and
:meth:`~FlightRecorder.queue_depth_percentile`) is one numpy pass over
whole columns, built on first read and kept until the logs grow; the
per-link views are read-only, so one build serves every link and
every reader.  The congestion tree and the delay decomposition are
column passes over the same logs.  A pass hands out ``array``s and
plain Python numbers, never numpy scalars.  The float rule: a pass
computes each float with the operations, and in the order, that a
Python loop over the log would: sums accumulate one value at a time
in log order (``np.bincount`` with weights, :func:`sums`), never
pairwise (``np.sum``, ``np.add.reduceat``), so the analyses' bytes are
those of a per-hop loop.  The per-packet object views —
:class:`PacketFlight` with its ``hops``/``deliveries`` — are built
afresh on each read, for exports, the critical path and tests, through
derived indexes that each read pass (:meth:`FlightRecorder.packets`,
say) fetches once for all its flights; the recorder keeps none of them,
so it holds no object per packet or hop even after an analysis.

Cheap when on: a hook appends to columns and creates no object beyond
a queued hop's grant event, so a capture allocates little more than a
bare run does.  What a capture costs is the hooks' own work: thirteen
appends per packet; per hop, two dict lookups and four appends, plus
three appends per sample and four per delivery; and per queued hop,
one event, whose args carry what its booking looked up.  No
hook touches a metric: :meth:`FlightRecorder.publish_metrics` derives
the ``net.*`` metrics from the logs once, after the run.
``benchmarks/bench_trace_overhead.py`` gates that cost on the ``mdstep``
yardstick.

Zero cost when disabled: the network's default recorder is the
module-level :data:`NULL_FLIGHT` singleton whose ``enabled`` flag is
``False``; the transport hot path guards every hook behind that flag,
so a run without telemetry pays one attribute load and boolean test
per hook site and allocates nothing.

Exporters for the recorded data (Chrome/Perfetto ``trace_event`` JSON,
JSONL, text summary) live in :mod:`repro.trace.export`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Optional,
)

from repro import instruments

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.faults.session import TransmitOutcome
    from repro.network.link import LinkId, TorusLink
    from repro.network.packet import Packet, PacketKind
    from repro.trace.metrics import MetricsRegistry


@dataclass(slots=True)
class HopRecord:
    """One link traversal of one packet.

    ``enqueue_ns`` is when the packet first asked for the link
    direction; ``grant_ns`` when the channel was granted (equal when
    the link was free); ``release_ns`` when the packet's last bit left
    the injecting node (grant + serialization time).  ``from_node`` is
    the node injecting into the link (the link direction's home node),
    which is what lets the analyzer rebuild per-branch causal chains
    for multicast fan-out.
    """

    link: str
    dim: str
    sign: int
    from_node: tuple
    enqueue_ns: float
    grant_ns: float
    release_ns: float
    queue_depth: int  # waiters ahead of this packet at enqueue time
    #: Link-level retransmission accounting (fault injection only;
    #: both stay 0 on a fault-free run and the exporters omit them).
    retry_ns: float = 0.0
    retries: int = 0

    @property
    def wait_ns(self) -> float:
        """Head-of-line blocking time spent queued for the channel."""
        return self.grant_ns - self.enqueue_ns

    @property
    def occupancy_ns(self) -> float:
        return self.release_ns - self.grant_ns

    @property
    def direction(self) -> str:
        """The ``z+``-style direction tag of the traversed link."""
        return f"{self.dim}{'+' if self.sign > 0 else '-'}"


@dataclass(slots=True)
class Delivery:
    """One arrival at one destination client."""

    node: tuple
    client: str
    time_ns: float


@dataclass(slots=True)
class PollRecord:
    """One successful synchronization-counter poll on a slice.

    ``trigger_ns`` is when the counter reached the polled target (the
    moment the polling process unblocked); ``done_ns`` is when the
    slice finished paying the successful-poll cost and the data became
    usable.  The critical-path analyzer joins these to deliveries by
    ``(node, client, counter_id)`` to extend a packet's causal chain
    through the receiver — the last 42 ns of Fig. 6.
    """

    node: tuple
    client: str
    counter_id: str
    target: int
    trigger_ns: float
    done_ns: float

    @property
    def poll_ns(self) -> float:
        return self.done_ns - self.trigger_ns


@dataclass(slots=True)
class PhaseSpan:
    """One marked phase of a larger computation (a collective round, a
    migration phase, an MD-step phase).  ``end_ns`` is ``None`` while
    the phase is still open."""

    name: str
    begin_ns: float
    end_ns: Optional[float] = None

    @property
    def duration_ns(self) -> Optional[float]:
        return None if self.end_ns is None else self.end_ns - self.begin_ns

    def contains(self, t: float) -> bool:
        end = self.end_ns if self.end_ns is not None else float("inf")
        return self.begin_ns <= t <= end


class PacketFlight:
    """The full recorded life of one packet.

    A flight read from a :class:`FlightRecorder` is a view of one row of
    its packet log: each read of its ``hops`` or ``deliveries`` builds
    them from the recorder's hop and delivery logs, through the indexes
    its read pass bound (:class:`_Views`).  A flight constructed
    directly (``PacketFlight(..., hops=[...])``) holds plain lists
    instead.
    """

    __slots__ = (
        "packet_id", "kind", "src_node", "src_client", "dst_node",
        "dst_client", "payload_bytes", "wire_bytes", "multicast",
        "in_order", "inject_ns", "counter_id", "send_begin_ns",
        "_views", "_index", "_hops", "_deliveries",
    )

    def __init__(
        self,
        packet_id: int,
        kind: str,
        src_node: tuple,
        src_client: str,
        dst_node: tuple,
        dst_client: str,
        payload_bytes: int,
        wire_bytes: int,
        multicast: bool,
        in_order: bool,
        inject_ns: float,
        counter_id: Optional[str] = None,
        send_begin_ns: Optional[float] = None,
        hops: Optional[list[HopRecord]] = None,
        deliveries: Optional[list[Delivery]] = None,
    ) -> None:
        self.packet_id = packet_id
        self.kind = kind
        self.src_node = src_node
        self.src_client = src_client
        self.dst_node = dst_node
        self.dst_client = dst_client
        self.payload_bytes = payload_bytes
        self.wire_bytes = wire_bytes
        self.multicast = multicast
        self.in_order = in_order
        self.inject_ns = inject_ns
        self.counter_id = counter_id
        #: When the sending client began packet assembly (software send);
        #: ``None`` for packets injected without the slice-side hook.
        self.send_begin_ns = send_begin_ns
        #: The read pass whose recorder's packet-log row ``_index`` this
        #: flight is (``None`` for a standalone flight).
        self._views: Optional[_Views] = None
        self._index = -1
        #: A standalone flight's own lists (made on first read when not
        #: given).
        self._hops = hops
        self._deliveries = deliveries

    def __repr__(self) -> str:
        return (
            f"PacketFlight(packet_id={self.packet_id}, kind={self.kind!r}, "
            f"src_node={self.src_node}, dst_node={self.dst_node}, "
            f"inject_ns={self.inject_ns})"
        )

    def _key(self) -> tuple:
        return (
            self.packet_id, self.kind, self.src_node, self.src_client,
            self.dst_node, self.dst_client, self.payload_bytes,
            self.wire_bytes, self.multicast, self.in_order, self.inject_ns,
            self.counter_id, self.send_begin_ns, self.hops, self.deliveries,
        )

    def __eq__(self, other: object) -> bool:
        """Equal flights record the same packet life, whether read from
        a recorder or constructed directly."""
        if not isinstance(other, PacketFlight):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]

    @property
    def hops(self) -> list[HopRecord]:
        views = self._views
        if views is not None:
            return views.hops(self._index)
        if self._hops is None:
            self._hops = []
        return self._hops

    @property
    def deliveries(self) -> list[Delivery]:
        views = self._views
        if views is not None:
            return views.deliveries(self._index)
        if self._deliveries is None:
            self._deliveries = []
        return self._deliveries

    @property
    def delivered_ns(self) -> Optional[float]:
        """Time of the last delivery (``None`` while in flight)."""
        views = self._views
        if views is None:
            return self.deliveries[-1].time_ns if self.deliveries else None
        return views.delivered_ns(self._index)

    @property
    def latency_ns(self) -> Optional[float]:
        done = self.delivered_ns
        return None if done is None else done - self.inject_ns

    @property
    def queue_wait_ns(self) -> float:
        """Total time this packet spent blocked on busy links."""
        return sum(h.wait_ns for h in self.hops)


class _Views:
    """One read pass's handle on a recorder, shared by every flight
    view the pass makes.  Each derived index a view reads is fetched
    from the recorder on the pass's first read of it and bound here, so
    a pass fetches each once however many flights it reads.  It binds
    ``array``s, never numpy, so the logs stay growable, and its flights
    read the logs as they stood at those fetches: read the flights
    again after more recording."""

    __slots__ = ("log", "_hops", "_deliveries", "_last")

    def __init__(self, log: "FlightRecorder") -> None:
        self.log = log
        self._hops: Optional[tuple] = None
        self._deliveries: Optional[tuple[array, array]] = None
        self._last: Optional[array] = None

    def hops(self, fi: int) -> list[HopRecord]:
        bound = self._hops
        if bound is None:
            log = self.log
            bound = self._hops = (
                *log.hop_rows(), log.hop_enqueue_ns, log.hop_release_ns,
                log.hop_depth,
            )
        rows, starts, enqueue, release, depth = bound
        return self.log._hop_records(
            rows[starts[fi]:starts[fi + 1]], enqueue, release, depth)

    def deliveries(self, fi: int) -> list[Delivery]:
        bound = self._deliveries
        if bound is None:
            bound = self._deliveries = self.log.delivery_rows()
        rows, starts = bound
        delivery = self.log.delivery
        return [delivery(row) for row in rows[starts[fi]:starts[fi + 1]]]

    def delivered_ns(self, fi: int) -> Optional[float]:
        last = self._last
        if last is None:
            last = self._last = self.log.last_delivery_rows()
        row = last[fi]
        return None if row < 0 else self.log.delivery_ns[row]


@dataclass(slots=True)
class RecordedLink:
    """One link direction in a recorder's link table, interned on its
    first hop or queue sample: the hop log stores its index."""

    name: str
    dim: str
    sign: int
    #: The node injecting into the link (a plain tuple, as in
    #: :attr:`HopRecord.from_node`).
    node: tuple
    #: The node the link leads to.
    neighbor: tuple
    #: The ``z+``-style direction tag.
    direction: str


class NullFlightRecorder:
    """The do-nothing recorder guarding the disabled fast path.

    The transport checks ``recorder.enabled`` before calling any hook,
    so these methods exist only as a safety net for direct callers.
    """

    enabled = False

    def packet_injected(self, packet: "Packet", now: float) -> None:
        pass

    def hop_booked(
        self,
        packet: "Packet",
        link: "TorusLink",
        grant: float,
        out: "Optional[TransmitOutcome]",
    ) -> None:
        pass

    def packet_delivered(
        self, packet: "Packet", node: tuple, client: str, now: float
    ) -> None:
        pass

    def software_send(
        self, packet: "Packet", begin_ns: float, end_ns: float
    ) -> None:
        pass

    def poll_completed(
        self,
        node: tuple,
        client: str,
        counter_id: str,
        target: int,
        trigger_ns: float,
        done_ns: float,
    ) -> None:
        pass

    def phase_begin(self, name: str, now: float) -> None:
        pass

    def phase_end(self, name: str, now: float) -> None:
        pass


#: Shared default recorder for every uninstrumented network.
NULL_FLIGHT = NullFlightRecorder()


class FlightRecorder:
    """Records per-packet causal spans and per-link congestion series.

    The recorder only records; :meth:`publish_metrics` turns its logs
    into aggregate ``net.*`` telemetry after the run.
    """

    # Slots: the hooks read several of these on every hop.
    __slots__ = (
        "enabled",
        "flight_packet_id", "flight_inject_ns", "flight_serialization_ns",
        "flight_payload_bytes", "flight_wire_bytes", "flight_multicast",
        "flight_in_order", "flight_kind", "flight_src_node",
        "flight_src_client", "flight_dst_node", "flight_dst_client",
        "flight_counter_id", "flight_send_begin_ns", "_index_of",
        "link_table", "_link_by_name", "_link_of", "_link_ids",
        "hop_flight", "hop_link", "hop_grant_ns", "hop_enqueue_row",
        "hop_faults",
        "delivery_flight", "delivery_node", "delivery_client", "delivery_ns",
        "sample_link", "sample_ns", "sample_depth", "_enqueue_rows",
        "polls", "phases", "_cache", "_cache_at",
    )

    #: The logs ``absorb`` appends verbatim; the others hold flight,
    #: link or row indices, which it remaps.
    _COPIED = (
        "flight_packet_id", "flight_inject_ns", "flight_serialization_ns",
        "flight_payload_bytes", "flight_wire_bytes", "flight_multicast",
        "flight_in_order", "flight_kind", "flight_src_node",
        "flight_src_client", "flight_dst_node", "flight_dst_client",
        "flight_counter_id", "hop_grant_ns", "delivery_node",
        "delivery_client", "delivery_ns", "sample_ns", "sample_depth",
        "polls", "phases",
    )

    def __init__(self) -> None:
        self.enabled = True
        self.clear()

    def clear(self) -> None:
        """Forget everything recorded."""
        # The packet log, one row per injected packet, in injection
        # order: the row is the packet's flight index.
        self.flight_packet_id = array("q")
        self.flight_inject_ns = array("d")
        #: A hop's release is its grant plus this, unless a fault
        #: stretched it.
        self.flight_serialization_ns = array("d")
        self.flight_payload_bytes = array("q")
        self.flight_wire_bytes = array("q")
        self.flight_multicast = array("b")
        self.flight_in_order = array("b")
        self.flight_kind: list[PacketKind] = []
        self.flight_src_node: list[tuple] = []
        self.flight_src_client: list[str] = []
        self.flight_dst_node: list[tuple] = []
        self.flight_dst_client: list[str] = []
        self.flight_counter_id: list[Optional[str]] = []
        #: flight index → when the sending client began assembling it.
        self.flight_send_begin_ns: dict[int, float] = {}
        self._index_of: dict[int, int] = {}  # packet_id → flight index
        #: Link index → link direction, in order of first sight.
        self.link_table: list[RecordedLink] = []
        self._link_by_name: dict[str, int] = {}
        #: ``id(link.link_id)`` → link index.  Keyed by identity (a
        #: ``LinkId`` hashes in Python); ``_link_ids`` keeps every keyed
        #: ``LinkId`` alive so an id is never reused under the recorder.
        self._link_of: dict[int, int] = {}
        self._link_ids: list[LinkId] = []
        # The hop log, one row per granted hop, in grant order.
        self.hop_flight = array("q")
        self.hop_link = array("q")
        self.hop_grant_ns = array("d")
        #: Sample row of the hop's enqueue, or -1 for a hop granted on
        #: arrival (``hop_enqueue_ns`` and ``hop_depth`` derive from it).
        self.hop_enqueue_row = array("q")
        #: hop row → (release_ns, retry_ns, retries), for hops the fault
        #: session stretched.
        self.hop_faults: dict[int, tuple[float, float, int]] = {}
        # The delivery log, one row per arrival at a client.
        self.delivery_flight = array("q")
        self.delivery_node: list[tuple] = []
        self.delivery_client: list[str] = []
        self.delivery_ns = array("d")
        # The queue-depth samples (waiters, the new one included), one
        # row at each enqueue and after each grant of a queued hop.
        self.sample_link = array("q")
        self.sample_ns = array("d")
        self.sample_depth = array("q")
        #: Sample rows of the enqueues, in order: the ``net.queue_depth``
        #: gauge's observations.
        self._enqueue_rows = array("q")
        #: Successful counter polls, in completion order.
        self.polls: list[PollRecord] = []
        #: Marked phases, in begin order.
        self.phases: list[PhaseSpan] = []
        self._cache: dict[str, Any] = {}
        self._cache_at: tuple = ()

    # ------------------------------------------------------------------
    # hooks (called by the network transport; timestamps passed in so
    # the recorder works for any simulator)
    # ------------------------------------------------------------------
    def packet_injected(self, packet: "Packet", now: float) -> None:
        pid = packet.packet_id
        self._index_of[pid] = len(self.flight_packet_id)
        self.flight_packet_id.append(pid)
        self.flight_inject_ns.append(now)
        self.flight_serialization_ns.append(packet.serialization_ns)
        self.flight_payload_bytes.append(packet.payload_bytes)
        self.flight_wire_bytes.append(packet.wire_bytes)
        self.flight_multicast.append(packet.is_multicast)
        self.flight_in_order.append(packet.in_order)
        self.flight_kind.append(packet.kind)
        self.flight_src_node.append(packet.src_node)
        self.flight_src_client.append(packet.src_client)
        self.flight_dst_node.append(packet.dst_node)
        self.flight_dst_client.append(packet.dst_client)
        self.flight_counter_id.append(getattr(packet, "counter_id", None))

    def _intern(self, link: "TorusLink") -> int:
        """Intern ``link`` on its first sight by this recorder.  Links
        of different networks with one name share an index."""
        lid = link.link_id
        name = repr(lid)
        li = self._link_by_name.get(name)
        if li is None:
            li = self._link_by_name[name] = len(self.link_table)
            self.link_table.append(RecordedLink(
                name=name,
                dim=lid.dim,
                sign=lid.sign,
                node=tuple(lid.node),
                neighbor=link.neighbor,
                direction=lid.direction,
            ))
        self._link_of[id(lid)] = li
        self._link_ids.append(lid)
        return li

    def hop_booked(
        self,
        packet: "Packet",
        link: "TorusLink",
        grant: float,
        out: "Optional[TransmitOutcome]",
    ) -> None:
        """The packet booked ``link`` for a grant at ``grant``; ``out``
        is the fault session's outcome for the hop, if one is installed.

        A hop granted on arrival is recorded at once.  A queued one
        samples the queue it joins, and its grant is recorded by this
        recorder's own event at ``grant`` (:meth:`_granted`), so the
        hop log stays in grant order and only a capture pays for it.
        The event carries the link index, flight index and sample row
        found here, so the grant looks nothing up."""
        li = self._link_of.get(id(link.link_id))
        if li is None:
            li = self._intern(link)
        fi = self._index_of.get(packet.packet_id)
        if out is not None and out.hold_ns == packet.serialization_ns:
            # Neither retries nor a degraded link stretched the hold.
            out = None
        sim = link.sim
        if grant == sim.now:
            self._granted(link, li, fi, -1, out)
            return
        samples = self.sample_ns
        row = len(samples)
        self._enqueue_rows.append(row)
        self.sample_link.append(li)
        samples.append(sim.now)
        # Waiters as the booking saw them, this packet included.
        self.sample_depth.append(link.waiting())
        # A plain function with its owner first, as the transit
        # schedules its own steps: no bound method per event.
        sim.schedule_at(grant, FlightRecorder._granted,
                        (self, link, li, fi, row, out))

    def _granted(
        self,
        link: "TorusLink",
        li: int,
        fi: Optional[int],
        row: int,
        out: "Optional[TransmitOutcome]",
    ) -> None:
        """The hop of flight ``fi`` over link ``li`` acquired the
        channel now.  ``row`` is its enqueue sample, or -1 for a hop
        granted on arrival; ``out`` the fault outcome that stretched its
        hold (retransmissions and/or degraded bandwidth), whose release
        time and retry span the critical-path analyzer tiles."""
        now = link.sim.now
        if fi is not None:
            grants = self.hop_grant_ns
            if out is not None:
                self.hop_faults[len(grants)] = (
                    now + out.hold_ns, out.retry_ns, out.retries)
            self.hop_flight.append(fi)
            self.hop_link.append(li)
            grants.append(now)
            self.hop_enqueue_row.append(row)
        if row >= 0:
            # The grant drains one waiter; sample the shrinking queue:
            # the packets booked for this instant or later, less this
            # one.  A queued hop is granted after it arrived, never at
            # once.
            self.sample_link.append(li)
            self.sample_ns.append(now)
            self.sample_depth.append(link.waiting() - 1)

    def packet_delivered(
        self, packet: "Packet", node: tuple, client: str, now: float
    ) -> None:
        fi = self._index_of.get(packet.packet_id)
        if fi is not None:
            self.delivery_flight.append(fi)
            self.delivery_node.append(node)
            self.delivery_client.append(client)
            self.delivery_ns.append(now)

    def software_send(
        self, packet: "Packet", begin_ns: float, end_ns: float
    ) -> None:
        """The sending client assembled this packet over
        ``[begin_ns, end_ns]`` (Fig. 6's "write packet send initiated
        in processing slice", including any Tensilica queueing)."""
        fi = self._index_of.get(packet.packet_id)
        if fi is not None:
            self.flight_send_begin_ns[fi] = begin_ns

    def poll_completed(
        self,
        node: tuple,
        client: str,
        counter_id: str,
        target: int,
        trigger_ns: float,
        done_ns: float,
    ) -> None:
        """A slice's local counter poll succeeded (Fig. 6's final
        42 ns).  Joined to deliveries by (node, client, counter_id)."""
        self.polls.append(
            PollRecord(
                node=tuple(node),
                client=client,
                counter_id=counter_id,
                target=target,
                trigger_ns=trigger_ns,
                done_ns=done_ns,
            )
        )

    def phase_begin(self, name: str, now: float) -> None:
        """Open a named phase (collective round, migration, MD phase)."""
        self.phases.append(PhaseSpan(name=name, begin_ns=now))

    def phase_end(self, name: str, now: float) -> None:
        """Close the most recent open phase with this name."""
        for span in reversed(self.phases):
            if span.name == name and span.end_ns is None:
                span.end_ns = now
                return
        raise RuntimeError(f"phase_end({name!r}) without an open phase_begin")

    # ------------------------------------------------------------------
    # derived columns and indexes: column passes built on first read,
    # kept until the logs grow
    # ------------------------------------------------------------------
    def _derived(self, key: str, build: Callable[[], Any]) -> Any:
        at = (len(self.flight_packet_id), len(self.hop_grant_ns),
              len(self.hop_faults), len(self.delivery_ns),
              len(self.sample_ns))
        if at != self._cache_at:
            self._cache.clear()
            self._cache_at = at
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    @property
    def hop_enqueue_ns(self) -> array:
        """Enqueue time per hop row (the grant time for a hop granted
        on arrival)."""
        def build() -> array:
            enqueue = column(self.hop_grant_ns).copy()
            rows = column(self.hop_enqueue_row)
            queued = rows >= 0
            enqueue[queued] = column(self.sample_ns)[rows[queued]]
            return _array(enqueue)
        return self._derived("enqueue", build)

    @property
    def hop_depth(self) -> array:
        """Waiters ahead of the packet at enqueue time, per hop row."""
        def build() -> array:
            import numpy as np

            rows = column(self.hop_enqueue_row)
            depth = np.zeros(len(rows), np.int64)
            queued = rows >= 0
            depth[queued] = column(self.sample_depth)[rows[queued]] - 1
            return _array(depth)
        return self._derived("depth", build)

    @property
    def hop_release_ns(self) -> array:
        """When each hop's last bit left the injecting node: grant plus
        serialization, or the fault-amended release."""
        def build() -> array:
            release = (
                column(self.hop_grant_ns)
                + column(self.flight_serialization_ns)[column(self.hop_flight)]
            )
            for row, (release_ns, _, _) in self.hop_faults.items():
                release[row] = release_ns
            return _array(release)
        return self._derived("release", build)

    def _by_flight(self, log: array) -> tuple[np.ndarray, np.ndarray]:
        """The rows of a log whose flight-index column is ``log``,
        grouped by flight: flight ``fi``'s rows, in log order, are
        ``rows[starts[fi]:starts[fi + 1]]``."""
        import numpy as np

        flights = column(log)
        starts = np.zeros(len(self.flight_packet_id) + 1, np.int64)
        np.cumsum(
            np.bincount(flights, minlength=len(self.flight_packet_id)),
            out=starts[1:],
        )
        return np.argsort(flights, kind="stable"), starts

    def hop_rows(self) -> tuple[array, array]:
        """Hop-log rows grouped by flight, as ``(rows, starts)``: flight
        ``fi``'s hops, in its hop order, are the rows
        ``rows[starts[fi]:starts[fi + 1]]``."""
        def build() -> tuple[array, array]:
            rows, starts = self._by_flight(self.hop_flight)
            return _array(rows), _array(starts)
        return self._derived("hop_rows", build)

    def delivery_rows(self) -> tuple[array, array]:
        """Delivery-log rows grouped by flight, like :meth:`hop_rows`,
        each flight's in canonical order: by time, then node rank
        (``x`` fastest, as :meth:`~repro.topology.torus.Torus3D.rank`),
        then client name.  The log holds same-time deliveries in engine
        event order, which is no property of the model."""
        def build() -> tuple[array, array]:
            import numpy as np

            rows, starts = self._by_flight(self.delivery_flight)
            flights = column(self.delivery_flight)[rows]
            shared = np.bincount(flights)[flights] > 1
            if shared.any():
                # Only flights with several deliveries need the key:
                # one stable sort of their rows, flight first.
                sub = rows[shared]
                picked = sub.tolist()
                nodes = np.array(
                    [self.delivery_node[row] for row in picked], np.int64
                ).reshape(len(picked), 3)
                names = [self.delivery_client[row] for row in picked]
                rank = {name: i for i, name in enumerate(sorted(set(names)))}
                rows[shared] = sub[np.lexsort((
                    np.array([rank[name] for name in names], np.int64),
                    nodes[:, 0], nodes[:, 1], nodes[:, 2],
                    column(self.delivery_ns)[sub], flights[shared],
                ))]
            return _array(rows), _array(starts)
        return self._derived("delivery_rows", build)

    def last_delivery_rows(self) -> array:
        """Delivery-log row of each flight's last delivery in the order
        of :meth:`delivery_rows` (-1 while in flight), by flight
        index."""
        def build() -> array:
            import numpy as np

            rows, starts = self.delivery_rows()
            rows, starts = column(rows), column(starts)
            last = np.full(len(starts) - 1, -1, np.int64)
            delivered = starts[1:] > starts[:-1]
            last[delivered] = rows[starts[1:][delivered] - 1]
            return _array(last)
        return self._derived("last_delivery", build)

    def link_busy(self) -> tuple[float, ...]:
        """Serialization time streamed per link index, summed in grant
        order (the integer 0 for a link with no hop)."""
        def build() -> tuple[float, ...]:
            links = column(self.hop_link)
            busy = sums(
                links,
                column(self.hop_release_ns) - column(self.hop_grant_ns),
                len(self.link_table),
            )
            return _or_int_zero(busy, links, len(self.link_table))
        return self._derived("busy", build)

    def _link_wait(self) -> tuple[float, ...]:
        """Head-of-line wait per link index, summed in flight order
        (the integer 0 for a link with no hop)."""
        def build() -> tuple[float, ...]:
            rows = column(self.hop_rows()[0])
            links = column(self.hop_link)[rows]
            wait = (column(self.hop_grant_ns)[rows]
                    - column(self.hop_enqueue_ns)[rows])
            return _or_int_zero(
                sums(links, wait, len(self.link_table)), links,
                len(self.link_table),
            )
        return self._derived("link_wait", build)

    def _link_depths(self) -> dict[int, list[int]]:
        """Link index → its sampled queue depths, sorted (links that
        were never sampled are absent)."""
        def build() -> dict[int, list[int]]:
            import numpy as np

            links = column(self.sample_link)
            depths = column(self.sample_depth)
            order = np.lexsort((depths, links))
            return _group(links[order], depths[order].tolist())
        return self._derived("link_depths", build)

    # ------------------------------------------------------------------
    # object views, built afresh on every read through one pass's
    # bound indexes (the logs stay the one record)
    # ------------------------------------------------------------------
    def packet_flight(
        self, fi: int, views: Optional[_Views] = None
    ) -> PacketFlight:
        """The packet log's row ``fi`` as a :class:`PacketFlight`, read
        through ``views`` (a pass of its own by default)."""
        flight = PacketFlight(
            self.flight_packet_id[fi],
            self.flight_kind[fi].value,
            self.flight_src_node[fi],
            self.flight_src_client[fi],
            self.flight_dst_node[fi],
            self.flight_dst_client[fi],
            self.flight_payload_bytes[fi],
            self.flight_wire_bytes[fi],
            bool(self.flight_multicast[fi]),
            bool(self.flight_in_order[fi]),
            self.flight_inject_ns[fi],
            self.flight_counter_id[fi],
            self.flight_send_begin_ns.get(fi),
        )
        flight._views = _Views(self) if views is None else views
        flight._index = fi
        return flight

    @property
    def flights(self) -> dict[int, PacketFlight]:
        """packet_id → flight, in injection order (a fresh dict of
        fresh views: bind it once rather than index it in a loop)."""
        return {f.packet_id: f for f in self.packets()}

    def hop_record(self, row: int) -> HopRecord:
        """The hop log's row ``row`` as a :class:`HopRecord`."""
        return self._hop_records(
            (row,), self.hop_enqueue_ns, self.hop_release_ns, self.hop_depth
        )[0]

    def _hop_records(self, rows: Iterable[int], enqueue: array,
                     release: array, depth: array) -> list[HopRecord]:
        """A :class:`HopRecord` per hop-log row of ``rows``, given the
        derived columns."""
        table, links, grant = self.link_table, self.hop_link, self.hop_grant_ns
        faults = self.hop_faults
        records = []
        for row in rows:
            link = table[links[row]]
            _, retry_ns, retries = faults.get(row, (0.0, 0.0, 0))
            records.append(HopRecord(
                link.name, link.dim, link.sign, link.node, enqueue[row],
                grant[row], release[row], depth[row], retry_ns, retries,
            ))
        return records

    def delivery(self, row: int) -> Delivery:
        """The delivery log's row ``row`` as a :class:`Delivery`."""
        return Delivery(
            node=self.delivery_node[row],
            client=self.delivery_client[row],
            time_ns=self.delivery_ns[row],
        )

    def _by_link(
        self, links: np.ndarray, values: list
    ) -> "MappingProxyType[str, tuple]":
        """``values`` (one per row of a log whose link column is
        ``links``) grouped by link name, each group in log order, the
        links in order of their first row; read-only and immutable, so
        one build serves every reader."""
        import numpy as np

        order = np.argsort(links, kind="stable")
        keys = links[order]
        heads = runs(keys)
        ordered = [values[row] for row in order.tolist()]
        bounds = [*heads.tolist(), len(ordered)]
        names = self.link_table
        return MappingProxyType({
            names[li].name: tuple(ordered[a:b])
            for _, li, a, b in sorted(zip(
                order[heads].tolist(), keys[heads].tolist(), bounds,
                bounds[1:],
            ))
        })

    @property
    def link_occupancy(self) -> "MappingProxyType[str, tuple]":
        """link name → ((grant_ns, release_ns, packet_id), …), in grant
        order (the hop log's order).  Built once per log state and
        read-only."""
        def build() -> MappingProxyType:
            pids = column(self.flight_packet_id)[column(self.hop_flight)]
            return self._by_link(column(self.hop_link), list(zip(
                self.hop_grant_ns, self.hop_release_ns, pids.tolist()
            )))
        return self._derived("occupancy", build)

    @property
    def queue_depth_series(self) -> "MappingProxyType[str, tuple]":
        """link name → ((time_ns, waiting), …), in sample order.  Built
        once per log state and read-only."""
        def build() -> MappingProxyType:
            return self._by_link(column(self.sample_link), list(zip(
                self.sample_ns, self.sample_depth
            )))
        return self._derived("series", build)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def packets(self) -> list[PacketFlight]:
        """All recorded flights, in injection order: one read pass."""
        views = _Views(self)
        return [self.packet_flight(fi, views) for fi in range(len(self))]

    def flight(self, packet_id: int) -> PacketFlight:
        return self.packet_flight(self._index_of[packet_id])

    def links(self) -> list[str]:
        """All link directions that saw traffic or queueing, sorted."""
        import numpy as np

        seen = np.bincount(
            np.concatenate((column(self.hop_link), column(self.sample_link))),
            minlength=len(self.link_table),
        )
        return sorted(
            self.link_table[li].name for li in np.flatnonzero(seen).tolist()
        )

    def max_queue_depth(self, link: Optional[str] = None) -> int:
        """Deepest observed wait queue (one link, or anywhere)."""
        if link is None:
            depths = column(self.sample_depth)
            return int(depths.max()) if len(depths) else 0
        li = self._link_by_name.get(link)
        depths = self._link_depths().get(li)
        return depths[-1] if depths else 0

    def link_busy_ns(self, link: str) -> float:
        """Total serialization time streamed on a link direction."""
        li = self._link_by_name.get(link)
        return 0 if li is None else self.link_busy()[li]

    def contended_hops(self) -> int:
        """Number of recorded hops that had to queue."""
        import numpy as np

        return int(np.count_nonzero(
            column(self.hop_grant_ns) - column(self.hop_enqueue_ns) > 0
        ))

    # -- span query API (used by repro.analysis.critical_path) ----------
    def local_ids(self) -> dict[int, int]:
        """Dense packet ids in injection order.

        Raw ids count for the whole process, so two identical runs get
        different ids; every deterministic report must renumber through
        this map (the exporters in :mod:`repro.trace.export` do).
        """
        return {pid: i for i, pid in enumerate(self.flight_packet_id)}

    def delivered_flights(self) -> list[PacketFlight]:
        """Flights that reached at least one destination, in injection
        order."""
        views = _Views(self)
        return [
            self.packet_flight(fi, views)
            for fi, row in enumerate(self.last_delivery_rows())
            if row >= 0
        ]

    def flights_in(self, start_ns: float, end_ns: float) -> list[PacketFlight]:
        """Flights whose life overlaps ``[start_ns, end_ns]``.

        A flight overlaps the window if its injection precedes the
        window's end and its last recorded activity follows the
        window's start (in-flight packets count as extending forever).
        """
        delivered = self.delivery_ns
        views = _Views(self)
        return [
            self.packet_flight(fi, views)
            for fi, (inject_ns, last) in enumerate(
                zip(self.flight_inject_ns, self.last_delivery_rows())
            )
            if inject_ns <= end_ns
            and (last < 0 or delivered[last] >= start_ns)
        ]

    def poll_for(
        self, flight: PacketFlight, delivery: Optional[Delivery] = None
    ) -> Optional[PollRecord]:
        """The successful poll that consumed ``delivery`` (default: the
        flight's last delivery), or ``None`` if nothing polled for it.

        Matches on (node, client, counter_id) and takes the earliest
        poll whose trigger is at or after the delivery time — a poll
        cannot unblock before the counted write that fulfilled it.
        """
        if flight.counter_id is None or not flight.deliveries:
            return None
        if delivery is None:
            delivery = flight.deliveries[-1]
        best: Optional[PollRecord] = None
        for p in self.polls:
            if (
                p.node == tuple(delivery.node)
                and p.client == delivery.client
                and p.counter_id == flight.counter_id
                and p.trigger_ns >= delivery.time_ns
                and (best is None or p.trigger_ns < best.trigger_ns)
            ):
                best = p
        return best

    def phase(self, name: str) -> PhaseSpan:
        """The most recent phase with this name."""
        for span in reversed(self.phases):
            if span.name == name:
                return span
        raise KeyError(f"no recorded phase {name!r}")

    def closed_phases(self) -> list[PhaseSpan]:
        """All completed phases, in begin order."""
        return [p for p in self.phases if p.end_ns is not None]

    def link_wait_ns(self, link: str) -> float:
        """Total head-of-line queue wait recorded against a link,
        summed in flight order."""
        li = self._link_by_name.get(link)
        return 0 if li is None else self._link_wait()[li]

    def queue_depth_percentile(self, link: str, p: float) -> int:
        """Nearest-rank percentile of the sampled queue depth on a
        link direction (0 for links that never queued)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        samples = self._link_depths().get(self._link_by_name.get(link))
        if not samples:
            return 0
        rank = math.ceil(p / 100.0 * len(samples))
        return samples[max(0, rank - 1)]

    def publish_metrics(self, registry: "MetricsRegistry") -> None:
        """Derive the ``net.*`` metrics from the logs into ``registry``.

        Call once per recorder, after the run.  The counters
        ``net.packets_injected``, ``net.link_traversals``,
        ``net.packets_delivered`` and ``net.polls_succeeded`` are the
        row counts of the packet, hop, delivery and poll logs.  The
        histograms observe, in log order: ``net.hop_wait_ns`` each
        queued hop's wait (grant order),
        ``net.packet_latency_ns`` each delivery's inject-to-arrival
        time, ``net.software_send_ns`` each send's assembly time (it
        ends at injection).  The ``net.queue_depth`` gauge reads as if
        set to each enqueue's depth in sample order, so its high
        watermark is the worst head-of-line queue seen anywhere.  A
        metric is created only when it has an observation.
        """
        for name, rows in (
            ("net.packets_injected", len(self.flight_packet_id)),
            ("net.link_traversals", len(self.hop_grant_ns)),
            ("net.packets_delivered", len(self.delivery_ns)),
            ("net.polls_succeeded", len(self.polls)),
        ):
            if rows:
                registry.counter(name).inc(rows)
        samples = self.sample_ns
        inject = self.flight_inject_ns
        for name, values in (
            ("net.hop_wait_ns", (
                grant - samples[row]
                for grant, row in zip(self.hop_grant_ns, self.hop_enqueue_row)
                if row >= 0
            )),
            ("net.packet_latency_ns", (
                t - inject[fi]
                for fi, t in zip(self.delivery_flight, self.delivery_ns)
            )),
            ("net.software_send_ns", (
                inject[fi] - begin_ns
                for fi, begin_ns in self.flight_send_begin_ns.items()
            )),
        ):
            histogram = None
            for value in values:
                if histogram is None:
                    histogram = registry.histogram(name)
                histogram.observe(value)
        rows = self._enqueue_rows
        if rows:
            depth = self.sample_depth.__getitem__
            # What setting each depth in turn leaves: the extremes as
            # watermarks, the last as the value.
            gauge = registry.gauge("net.queue_depth")
            gauge.set(min(map(depth, rows)))
            gauge.set(max(map(depth, rows)))
            gauge.set(depth(rows[-1]))

    def absorb(self, other: "FlightRecorder") -> None:
        """Append ``other``'s record to this one, as if this recorder
        had been attached in its place: a nested private capture stays
        visible to the capture around it."""
        links = []
        for link in other.link_table:
            li = self._link_by_name.get(link.name)
            if li is None:
                li = self._link_by_name[link.name] = len(self.link_table)
                self.link_table.append(link)
            links.append(li)
        flights = len(self.flight_packet_id)
        samples = len(self.sample_ns)
        rows = len(self.hop_grant_ns)
        for fi, pid in enumerate(other.flight_packet_id):
            self._index_of[pid] = flights + fi
        for name in self._COPIED:
            getattr(self, name).extend(getattr(other, name))
        for fi, begin_ns in other.flight_send_begin_ns.items():
            self.flight_send_begin_ns[flights + fi] = begin_ns
        self.hop_flight.extend(flights + fi for fi in other.hop_flight)
        self.hop_link.extend(links[li] for li in other.hop_link)
        self.hop_enqueue_row.extend(
            row if row < 0 else samples + row for row in other.hop_enqueue_row
        )
        for row, fault in other.hop_faults.items():
            self.hop_faults[rows + row] = fault
        self.delivery_flight.extend(flights + fi for fi in other.delivery_flight)
        self.sample_link.extend(links[li] for li in other.sample_link)
        self._enqueue_rows.extend(samples + row for row in other._enqueue_rows)
        self._cache.clear()

    def __len__(self) -> int:
        return len(self.flight_packet_id)


# ---------------------------------------------------------------------------
# Column-pass helpers
# ---------------------------------------------------------------------------

# The helpers import numpy where they run: only a read loads it, never
# a capture or a bare run.  Dtypes are named, so these tables need none.
_DTYPES = {"q": "int64", "d": "float64", "b": "int8"}
_TYPECODES = {"int64": "q", "float64": "d"}


def column(log: array) -> np.ndarray:
    """A numpy copy of one log column.  A copy, not a view: an
    ``array`` cannot grow while a view of its buffer is alive, and a
    pass's frame can outlive the pass in a traceback."""
    import numpy as np

    return np.array(log, dtype=_DTYPES[log.typecode])


def _array(values: np.ndarray) -> array:
    """A numpy result as the ``array`` the recorder hands out."""
    return array(_TYPECODES[values.dtype.name], values.tobytes())


def sums(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``weights`` summed per ``index`` (``n`` slots).  ``bincount``
    adds the weights one at a time in array order, so each slot holds
    the float a Python loop over the log would; ``np.sum`` and
    ``np.add.reduceat`` sum pairwise and would not."""
    import numpy as np

    return np.bincount(index, weights=weights, minlength=n).astype(
        np.float64, copy=False
    )


def _or_int_zero(
    totals: np.ndarray, index: np.ndarray, n: int
) -> tuple[float, ...]:
    """``totals`` as Python floats, with the integer 0 a ``sum()`` over
    no rows gives in each slot that ``index`` never names."""
    import numpy as np

    counts = np.bincount(index, minlength=n).tolist()
    return tuple(
        total if count else 0
        for total, count in zip(totals.tolist(), counts)
    )


def runs(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``keys`` starts.  (``np.unique``
    would do, but its first call imports ``numpy.ma``, 1.5 MB.)"""
    import numpy as np

    starts = np.ones(len(keys), bool)
    starts[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(starts)


def _group(keys: np.ndarray, values: list) -> dict[int, list]:
    """``values`` split into runs of equal ``keys`` (sorted), keyed by
    the run's key."""
    heads = runs(keys)
    bounds = [*heads.tolist(), len(values)]
    return {
        key: values[a:b]
        for key, a, b in zip(keys[heads].tolist(), bounds, bounds[1:])
    }


# ---------------------------------------------------------------------------
# Ambient recorder
# ---------------------------------------------------------------------------


def use_flight(recorder: FlightRecorder) -> ContextManager[FlightRecorder]:
    """Install ``recorder`` in the ``flight`` slot of
    :mod:`repro.instruments` for the block: every Network constructed
    inside it records into ``recorder``.  The measurement harnesses in
    repro.analysis build their machines internally; the slot
    instruments them without threading a parameter through every call
    signature."""
    return instruments.use(flight=recorder)
