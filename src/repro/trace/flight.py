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
passive observer: it reads timestamps the transport already has and
never schedules events, so an instrumented run is simulation-identical
to an uninstrumented one (verified by the test suite and by
``benchmarks/bench_trace_overhead.py``).

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.link import TorusLink
    from repro.network.packet import Packet
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


@dataclass
class PacketFlight:
    """The full recorded life of one packet."""

    packet_id: int
    kind: str
    src_node: tuple
    src_client: str
    dst_node: tuple
    dst_client: str
    payload_bytes: int
    wire_bytes: int
    multicast: bool
    in_order: bool
    inject_ns: float
    counter_id: Optional[str] = None
    #: When the sending client began packet assembly (software send);
    #: ``None`` for packets injected without the slice-side hook.
    send_begin_ns: Optional[float] = None
    hops: list[HopRecord] = field(default_factory=list)
    deliveries: list[Delivery] = field(default_factory=list)

    @property
    def delivered_ns(self) -> Optional[float]:
        """Time of the last delivery (``None`` while in flight)."""
        if not self.deliveries:
            return None
        return self.deliveries[-1].time_ns

    @property
    def latency_ns(self) -> Optional[float]:
        done = self.delivered_ns
        return None if done is None else done - self.inject_ns

    @property
    def queue_wait_ns(self) -> float:
        """Total time this packet spent blocked on busy links."""
        return sum(h.wait_ns for h in self.hops)


class NullFlightRecorder:
    """The do-nothing recorder guarding the disabled fast path.

    The transport checks ``recorder.enabled`` before calling any hook,
    so these methods exist only as a safety net for direct callers.
    """

    enabled = False
    metrics: "Optional[MetricsRegistry]" = None

    def packet_injected(self, packet: "Packet", now: float) -> None:
        pass

    def hop_enqueued(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        pass

    def hop_granted(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        pass

    def hop_fault(
        self,
        packet: "Packet",
        link: "TorusLink",
        hold_ns: float,
        retry_ns: float,
        retries: int,
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

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.trace.metrics.MetricsRegistry`; when
        given, the recorder feeds it aggregate telemetry as packets
        fly: ``net.packets_injected`` / ``net.packets_delivered`` /
        ``net.link_traversals`` counters, a ``net.packet_latency_ns``
        histogram (inject → delivery, per delivery), a
        ``net.hop_wait_ns`` histogram (queue wait per contended hop),
        and a ``net.queue_depth`` gauge whose high watermark is the
        worst head-of-line queue seen anywhere.
    """

    def __init__(self, metrics: "Optional[MetricsRegistry]" = None) -> None:
        self.enabled = True
        self.metrics = metrics
        #: packet_id → flight, in injection order.
        self.flights: dict[int, PacketFlight] = {}
        #: link name → [(grant_ns, release_ns, packet_id)], in grant order.
        self.link_occupancy: dict[str, list[tuple[float, float, int]]] = {}
        #: link name → [(time_ns, waiting)], sampled at enqueue/grant.
        self.queue_depth_series: dict[str, list[tuple[float, int]]] = {}
        #: (packet_id, link name) → (enqueue_ns, observed queue depth).
        self._pending: dict[tuple[int, str], tuple[float, int]] = {}
        #: [(link name, len(queue_depth_series[link]), grant_ns, waiting)]
        #: for each packet queued and granted at one instant: a
        #: zero-length wait whose grant ``queue_depth_series`` skips.
        self.instant_waits: list[tuple[str, int, float, int]] = []
        #: Successful counter polls, in completion order.
        self.polls: list[PollRecord] = []
        #: Marked phases, in begin order.
        self.phases: list[PhaseSpan] = []

    # ------------------------------------------------------------------
    # hooks (called by the network transport; timestamps passed in so
    # the recorder works for any simulator)
    # ------------------------------------------------------------------
    def packet_injected(self, packet: "Packet", now: float) -> None:
        self.flights[packet.packet_id] = PacketFlight(
            packet_id=packet.packet_id,
            kind=packet.kind.value,
            src_node=packet.src_node,
            src_client=packet.src_client,
            dst_node=packet.dst_node,
            dst_client=packet.dst_client,
            payload_bytes=packet.payload_bytes,
            wire_bytes=packet.wire_bytes,
            multicast=packet.is_multicast,
            in_order=packet.in_order,
            inject_ns=now,
            counter_id=getattr(packet, "counter_id", None),
        )
        m = self.metrics
        if m is not None:
            m.counter("net.packets_injected").inc()

    def hop_enqueued(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        """The packet found the link busy and joined its queue."""
        name = repr(link.link_id)
        # Depth observed just before this packet joins the waiters.
        depth = link.queue_length
        self._pending[(packet.packet_id, name)] = (now, depth)
        self.queue_depth_series.setdefault(name, []).append((now, depth + 1))
        m = self.metrics
        if m is not None:
            g = m.gauge("net.queue_depth")
            g.set(depth + 1)

    def hop_granted(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        """The packet acquired the channel and starts streaming."""
        name = repr(link.link_id)
        lid = link.link_id
        pending = self._pending.pop((packet.packet_id, name), None)
        if pending is None:
            enqueue_ns, depth = now, 0
        else:
            enqueue_ns, depth = pending
        release = now + packet.serialization_ns
        hop = HopRecord(
            link=name,
            dim=lid.dim,
            sign=lid.sign,
            from_node=tuple(lid.node),
            enqueue_ns=enqueue_ns,
            grant_ns=now,
            release_ns=release,
            queue_depth=depth,
        )
        flight = self.flights.get(packet.packet_id)
        if flight is not None:
            flight.hops.append(hop)
        self.link_occupancy.setdefault(name, []).append(
            (now, release, packet.packet_id)
        )
        if enqueue_ns != now:
            # The grant drains one waiter; sample the shrinking queue.
            self.queue_depth_series.setdefault(name, []).append(
                (now, link.queue_length)
            )
        elif pending is not None:
            self.instant_waits.append((
                name, len(self.queue_depth_series[name]), now,
                link.queue_length,
            ))
        m = self.metrics
        if m is not None:
            m.counter("net.link_traversals").inc()
            if enqueue_ns != now:
                m.histogram("net.hop_wait_ns").observe(now - enqueue_ns)

    def hop_fault(
        self,
        packet: "Packet",
        link: "TorusLink",
        hold_ns: float,
        retry_ns: float,
        retries: int,
    ) -> None:
        """The fault session stretched the hop recorded by the
        immediately preceding ``hop_granted`` (retransmissions and/or
        degraded bandwidth): amend its release time and retry span so
        the critical-path analyzer can tile retry time exactly."""
        name = repr(link.link_id)
        flight = self.flights.get(packet.packet_id)
        if flight is not None and flight.hops:
            hop = flight.hops[-1]
            if hop.link == name:
                hop.release_ns = hop.grant_ns + hold_ns
                hop.retry_ns = retry_ns
                hop.retries = retries
        occ = self.link_occupancy.get(name)
        if occ and occ[-1][2] == packet.packet_id:
            grant, _release, pid = occ[-1]
            occ[-1] = (grant, grant + hold_ns, pid)

    def packet_delivered(
        self, packet: "Packet", node: tuple, client: str, now: float
    ) -> None:
        flight = self.flights.get(packet.packet_id)
        if flight is not None:
            flight.deliveries.append(Delivery(node=node, client=client, time_ns=now))
            m = self.metrics
            if m is not None:
                m.counter("net.packets_delivered").inc()
                m.histogram("net.packet_latency_ns").observe(now - flight.inject_ns)

    def software_send(
        self, packet: "Packet", begin_ns: float, end_ns: float
    ) -> None:
        """The sending client assembled this packet over
        ``[begin_ns, end_ns]`` (Fig. 6's "write packet send initiated
        in processing slice", including any Tensilica queueing)."""
        flight = self.flights.get(packet.packet_id)
        if flight is not None:
            flight.send_begin_ns = begin_ns
        m = self.metrics
        if m is not None:
            m.histogram("net.software_send_ns").observe(end_ns - begin_ns)

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
        m = self.metrics
        if m is not None:
            m.counter("net.polls_succeeded").inc()

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
    # queries
    # ------------------------------------------------------------------
    def packets(self) -> list[PacketFlight]:
        """All recorded flights, in injection order."""
        return list(self.flights.values())

    def flight(self, packet_id: int) -> PacketFlight:
        return self.flights[packet_id]

    def links(self) -> list[str]:
        """All link directions that saw traffic or queueing, sorted."""
        return sorted(set(self.link_occupancy) | set(self.queue_depth_series))

    def max_queue_depth(self, link: Optional[str] = None) -> int:
        """Deepest observed wait queue (one link, or anywhere)."""
        series: Iterator[tuple[float, int]]
        if link is not None:
            series = iter(self.queue_depth_series.get(link, []))
        else:
            series = (
                sample for s in self.queue_depth_series.values() for sample in s
            )
        return max((depth for _, depth in series), default=0)

    def link_busy_ns(self, link: str) -> float:
        """Total serialization time streamed on a link direction."""
        return sum(release - grant for grant, release, _ in
                   self.link_occupancy.get(link, []))

    def contended_hops(self) -> int:
        """Number of recorded hops that had to queue."""
        return sum(
            1 for f in self.flights.values() for h in f.hops if h.wait_ns > 0
        )

    # -- span query API (used by repro.analysis.critical_path) ----------
    def local_ids(self) -> dict[int, int]:
        """Dense packet ids in injection order.

        Raw ids count for the whole process, so two identical runs get
        different ids; every deterministic report must renumber through
        this map (the exporters in :mod:`repro.trace.export` do).
        """
        return {pid: i for i, pid in enumerate(self.flights)}

    def delivered_flights(self) -> list[PacketFlight]:
        """Flights that reached at least one destination, in injection
        order."""
        return [f for f in self.flights.values() if f.deliveries]

    def flights_in(self, start_ns: float, end_ns: float) -> list[PacketFlight]:
        """Flights whose life overlaps ``[start_ns, end_ns]``.

        A flight overlaps the window if its injection precedes the
        window's end and its last recorded activity follows the
        window's start (in-flight packets count as extending forever).
        """
        out = []
        for f in self.flights.values():
            done = f.delivered_ns
            if done is None:
                done = float("inf")
            if f.inject_ns <= end_ns and done >= start_ns:
                out.append(f)
        return out

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
        """Total head-of-line queue wait recorded against a link."""
        return sum(
            h.wait_ns
            for f in self.flights.values()
            for h in f.hops
            if h.link == link
        )

    def queue_depth_percentile(self, link: str, p: float) -> int:
        """Nearest-rank percentile of the sampled queue depth on a
        link direction (0 for links that never queued)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        samples = sorted(d for _, d in self.queue_depth_series.get(link, []))
        if not samples:
            return 0
        rank = math.ceil(p / 100.0 * len(samples))
        return samples[max(0, rank - 1)]

    def absorb(self, other: "FlightRecorder") -> None:
        """Append ``other``'s record to this one, as if this recorder
        had been attached in its place (its metrics excepted): a nested
        private capture stays visible to the capture around it."""
        for name, at, grant_ns, waiting in other.instant_waits:
            at += len(self.queue_depth_series.get(name, ()))
            self.instant_waits.append((name, at, grant_ns, waiting))
        self.flights.update(other.flights)
        for name, grants in other.link_occupancy.items():
            self.link_occupancy.setdefault(name, []).extend(grants)
        for name, samples in other.queue_depth_series.items():
            self.queue_depth_series.setdefault(name, []).extend(samples)
        self.polls.extend(other.polls)
        self.phases.extend(other.phases)

    def clear(self) -> None:
        self.flights.clear()
        self.link_occupancy.clear()
        self.queue_depth_series.clear()
        self._pending.clear()
        self.instant_waits.clear()
        self.polls.clear()
        self.phases.clear()

    def __len__(self) -> int:
        return len(self.flights)


# ---------------------------------------------------------------------------
# Ambient recorder
# ---------------------------------------------------------------------------
#: Recorder picked up by every Network constructed while it is active.
#: The measurement harnesses in repro.analysis build their machines
#: internally; the ambient recorder instruments them without threading
#: a parameter through every call signature.
_active_flight: "FlightRecorder | NullFlightRecorder" = NULL_FLIGHT


def active_flight() -> "FlightRecorder | NullFlightRecorder":
    """The recorder new networks attach at construction time."""
    return _active_flight


@contextmanager
def use_flight(recorder: FlightRecorder) -> Iterator[FlightRecorder]:
    """Install ``recorder`` as the ambient flight recorder for the block."""
    global _active_flight
    prev = _active_flight
    _active_flight = recorder
    try:
        yield recorder
    finally:
        _active_flight = prev
