"""Torus link model.

Each node connects to its six immediate neighbours via bidirectional
links; each direction of each link is an independent 50.6 Gbit/s
channel with 36.8 Gbit/s effective data bandwidth (§III.A).  A link
direction is a single-slot FCFS channel whose occupancy per packet
equals the serialization time, giving bandwidth contention and
head-of-line queueing; head latency is charged separately from the
calibrated segment constants (virtual cut-through; see DESIGN.md §5).

The channel is a booking slot, ``free_at``: the time the last packet
booked on it leaves.  The service is first come, first served and
each packet's hold is known when it arrives, so a packet arriving at
``t`` is granted at ``g = max(t, free_at)`` and moves ``free_at`` to
``g + hold`` (:meth:`TorusLink.book`).  A grant is known at booking, so
the transport schedules the hop's next step there, once, at the
absolute time its head reaches the next node: no grant event, no
release event, no waiter object.

The telemetry is derived from the booked grant times.  A packet
granted on arrival counts as carried at once.  A packet booked for a
later grant goes into the pending-grant store, a deque allocated on
the direction's first queued packet (a direction that never queues
holds none), and counts as carried once the clock reaches its grant.
Queued packets are granted back to back, so the store keeps the first
one's grant time and each packet's hold and bytes, and drains from its
head.  ``packets_carried``, ``bytes_carried`` and ``queue_length``
drain it up to the clock when they are read, and are exact between
instants, where the monitor samples.  The same-instant depth rule: a
booking, and every read, drains only the grants of earlier instants,
so a packet whose grant falls at the booking instant still counts as
waiting in the depth the booking sees (``peak_queue_length``, the
flight recorder's enqueue sample), whatever the order of that
instant's events; between instants it counts as carried.  The busy
time is the closed busy periods plus the open one up to ``free_at``.

Each link direction also carries the per-hop constants the transport
needs, computed once when the link is created: the neighbour it leads
to and the unicast/multicast head latencies of a first hop and of a
through hop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.constants import LINK_COST_NS, MULTICAST_LOOKUP_NS, THROUGH_RING_NS
from repro.topology.torus import NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


@dataclass(frozen=True)
class LinkId:
    """Identifies one direction of one torus link.

    ``node`` is the node *injecting* into the link; ``dim``/``sign``
    give the direction of travel.  The opposite direction of the same
    physical cable is a distinct :class:`LinkId` (full duplex).
    """

    node: NodeCoord
    dim: str
    sign: int

    @property
    def direction(self) -> str:
        """The ``z+``-style direction tag (dimension and sign)."""
        return f"{self.dim}{'+' if self.sign > 0 else '-'}"

    def __repr__(self) -> str:
        return f"link({self.node}->{self.direction})"


class TorusLink:
    """One direction of one inter-node torus link: a single-slot FCFS
    channel plus the per-hop constants of its direction."""

    # Slots: the transit reads several of these on every hop.
    __slots__ = (
        "sim", "link_id", "neighbor",
        "ucast_first_ns", "ucast_through_ns",
        "mcast_first_ns", "mcast_through_ns",
        "free_at", "peak_queue_length", "total_busy_ns", "_busy_since",
        "_carried", "_bytes", "_pending", "_head", "retransmissions",
    )

    def __init__(
        self, sim: "Simulator", link_id: LinkId, neighbor: NodeCoord
    ) -> None:
        self.sim = sim
        self.link_id = link_id
        dim = link_id.dim
        #: The node this direction leads to.
        self.neighbor = neighbor
        # Head latency of a hop over this direction, before payload
        # serialization (first hop), faults and jitter.  The sums keep
        # the association the pinned result bytes were computed with:
        # float addition is not associative.
        link_ns = LINK_COST_NS[dim]
        self.ucast_first_ns = link_ns
        self.ucast_through_ns = link_ns + THROUGH_RING_NS[dim]
        self.mcast_first_ns = link_ns + MULTICAST_LOOKUP_NS
        self.mcast_through_ns = self.mcast_first_ns + THROUGH_RING_NS[dim]
        #: When the last packet booked on the channel leaves it: the
        #: grant time of the next packet to arrive before then.
        self.free_at = 0.0
        #: Deepest wait queue ever seen by a booking (head-of-line
        #: telemetry), the booked packet included.
        self.peak_queue_length = 0
        #: Busy time of the closed busy periods.
        self.total_busy_ns = 0.0
        #: Start of the last busy period, which ends at ``free_at``.
        self._busy_since = 0.0
        #: Packets, and their wire bytes, granted and drained from the
        #: pending-grant store.
        self._carried = 0
        self._bytes = 0
        #: The pending-grant store: ``[hold, bytes, hold, bytes, ...]``
        #: in booking order, ``None`` until the first packet queues.
        #: The slots reference the packet's own hold and byte count, so
        #: a queued packet allocates no number.
        self._pending: Optional[deque] = None
        #: Grant time of the store's first packet.  Queued packets are
        #: granted back to back, so each next grant is this one plus
        #: its hold: the sum the booking made, bit for bit.
        self._head = 0.0
        #: Link-level retransmissions charged to this direction by the
        #: fault-injection session (always 0 on a fault-free run).
        self.retransmissions = 0

    @property
    def direction(self) -> str:
        """The ``z+``-style direction tag of this link direction."""
        return self.link_id.direction

    # -- the channel ------------------------------------------------------
    def grant_time(self) -> float:
        """When a packet arriving now would be granted."""
        now = self.sim.now
        return self.free_at if self.free_at > now else now

    def book(self, hold: float, nbytes: int) -> float:
        """Book the channel for a packet of ``nbytes`` wire bytes
        arriving now that holds it for ``hold`` ns, and return its
        grant time.  The packet counts as carried from its grant on."""
        now = self.sim.now
        free_at = self.free_at
        if free_at > now:
            self.free_at = free_at + hold
            pending = self._pending
            if pending is None:
                pending = self._pending = deque()
            else:
                self.waiting()
            if not pending:
                self._head = free_at
            pending.append(hold)
            pending.append(nbytes)
            depth = len(pending) >> 1
            if depth > self.peak_queue_length:
                self.peak_queue_length = depth
            return free_at
        if now > free_at:
            # The channel idled since ``free_at``: a busy period ends.
            self.total_busy_ns += free_at - self._busy_since
            self._busy_since = now
        self.free_at = now + hold
        self._carried += 1
        self._bytes += nbytes
        return now

    # -- telemetry --------------------------------------------------------
    def waiting(self) -> int:
        """Packets waiting as a booking now sees them: booked for a
        grant at this instant or later (right after a queued booking,
        its depth, the booked packet included).  Drains the grants of
        earlier instants, as a booking does; no read drains a grant of
        this instant, so reads never move a booking's depth."""
        pending = self._pending
        if not pending:
            return 0
        now = self.sim.now
        head = self._head
        while head < now:
            head += pending.popleft()
            self._bytes += pending.popleft()
            self._carried += 1
            if not pending:
                break
        self._head = head
        return len(pending) >> 1

    # A read counts a grant at this instant as carried.  Every hold is
    # positive, so grants on a direction strictly rise: at most one
    # falls at an instant, at the store's head.

    @property
    def packets_carried(self) -> int:
        """Packets granted the channel by now."""
        if self.waiting() and self._head == self.sim.now:
            return self._carried + 1
        return self._carried

    @property
    def bytes_carried(self) -> int:
        """Wire bytes of the packets granted the channel by now."""
        if self.waiting() and self._head == self.sim.now:
            return self._bytes + self._pending[1]
        return self._bytes

    @property
    def queue_length(self) -> int:
        """Packets booked on this direction but not granted by now
        (instantaneous depth probe for the continuous-monitoring
        sampler)."""
        waiting = self.waiting()
        if waiting and self._head == self.sim.now:
            return waiting - 1
        return waiting

    @property
    def booked(self) -> int:
        """Packets ever booked on this direction."""
        waiting = self.waiting()
        return self._carried + waiting

    @property
    def busy_ns(self) -> float:
        """Cumulative time this direction has been streaming bits,
        including the current busy period up to now.

        Monotonically non-decreasing, so the sampler can snapshot it
        into a ring-buffer series and derive per-window busy fractions
        from consecutive deltas.
        """
        now = self.sim.now
        end = self.free_at if self.free_at < now else now
        return self.total_busy_ns + (end - self._busy_since)

    def utilization(self, elapsed_ns: float | None = None) -> float:
        """Fraction of time the channel was streaming bits.

        Returns 0.0 for a zero-length window (``elapsed_ns <= 0`` or a
        query at simulated time 0) instead of dividing by zero.
        """
        horizon = elapsed_ns if elapsed_ns is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_ns / horizon
