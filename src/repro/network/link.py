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
``g + hold`` (:meth:`TorusLink.book`).  The transport runs a grant at
``t`` inline and schedules one at a later ``g`` as one event at that
absolute time; no release event is ever scheduled and no waiter is
queued.  The slot holds all the telemetry the channel needs: the
packets waiting are those booked but not yet granted, and the busy
time is the closed busy periods plus the open one up to ``free_at``.

Each link direction also carries the per-hop constants the transport
needs, computed once when the link is created: the neighbour it leads
to and the unicast/multicast head latencies of a first hop and of a
through hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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
        "free_at", "booked", "peak_queue_length", "total_busy_ns",
        "_busy_since", "packets_carried", "bytes_carried", "retransmissions",
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
        #: Packets booked; those not yet granted are
        #: ``booked - packets_carried``.
        self.booked = 0
        #: Deepest wait queue ever observed (head-of-line telemetry).
        self.peak_queue_length = 0
        #: Busy time of the closed busy periods.
        self.total_busy_ns = 0.0
        #: Start of the last busy period, which ends at ``free_at``.
        self._busy_since = 0.0
        #: Packets granted (the transit counts them).
        self.packets_carried = 0
        self.bytes_carried = 0
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

    def book(self, hold: float) -> float:
        """Book the channel for a packet arriving now that holds it for
        ``hold`` ns, and return its grant time.  The caller runs the
        grant: inline when it is now, else as an event at that time."""
        now = self.sim.now
        free_at = self.free_at
        self.booked += 1
        if free_at > now:
            self.free_at = free_at + hold
            depth = self.booked - self.packets_carried
            if depth > self.peak_queue_length:
                self.peak_queue_length = depth
            return free_at
        if now > free_at:
            # The channel idled since ``free_at``: a busy period ends.
            self.total_busy_ns += free_at - self._busy_since
            self._busy_since = now
        self.free_at = now + hold
        return now

    # -- telemetry --------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Packets booked on this direction but not yet granted
        (instantaneous depth probe for the continuous-monitoring
        sampler)."""
        return self.booked - self.packets_carried

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
