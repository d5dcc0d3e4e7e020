"""Torus link model.

Each node connects to its six immediate neighbours via bidirectional
links; each direction of each link is an independent 50.6 Gbit/s
channel with 36.8 Gbit/s effective data bandwidth (§III.A).  A link
direction is a single-slot FCFS channel whose occupancy per packet
equals the serialization time, giving bandwidth contention and
head-of-line queueing; head latency is charged separately from the
calibrated segment constants (virtual cut-through; see DESIGN.md §5).

The channel is owned by the link rather than built on the engine's
:class:`~repro.engine.resource.Resource`: a packet that finds the link
busy queues a continuation, a plain function and its args tuple, as two
consecutive slots of a deque, with no event, no closure and no entry
tuple.  This is the flat layout of the simulator's calendar buckets, for
the same reason: the args tuple stays the only object a wait allocates.
On release the head continuation is scheduled at the current instant,
behind every event already queued for it: exactly the one event
``Event.succeed`` pushed for a ``Resource`` grant.  The grant goes through the event queue rather
than running inline so that everything already scheduled for that
instant runs first; same-instant order, grant order and every result
byte stay those of the ``Resource`` model.

Each link direction also carries the per-hop constants the transport
needs, computed once when the link is created: the neighbour it leads
to and the unicast/multicast head latencies of a first hop and of a
through hop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

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
        "_waiters", "peak_queue_length", "total_busy_ns",
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
        #: Waiting continuations, flat: ``fn, args, fn, args, ...``.
        self._waiters: deque = deque()
        #: Deepest wait queue ever observed (head-of-line telemetry).
        self.peak_queue_length = 0
        self.total_busy_ns = 0.0
        #: Start of the open busy interval; ``None`` while the channel
        #: is free.
        self._busy_since: Optional[float] = None
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
    def try_acquire(self) -> bool:
        """Take the channel if it is free; pair with :meth:`release`."""
        if self._busy_since is not None:
            return False
        self._busy_since = self.sim.now
        return True

    def wait(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Queue for the busy channel: ``fn(*args)`` runs once the
        channel is granted to this waiter, in arrival order."""
        waiters = self._waiters
        waiters.append(fn)
        waiters.append(args)
        depth = len(waiters) >> 1
        if depth > self.peak_queue_length:
            self.peak_queue_length = depth

    def release(self) -> None:
        """Hand the channel to the head waiter, or free it."""
        if self._busy_since is None:
            raise RuntimeError(f"release() of idle {self.link_id!r}")
        waiters = self._waiters
        if waiters:
            # One event at the current instant, behind every event
            # already there (see the module docstring).
            self.sim.schedule_now(waiters.popleft(), waiters.popleft())
        else:
            self.total_busy_ns += self.sim.now - self._busy_since
            self._busy_since = None

    # -- telemetry --------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Packets currently waiting for this direction (instantaneous
        depth probe for the continuous-monitoring sampler)."""
        return len(self._waiters) >> 1

    @property
    def busy_ns(self) -> float:
        """Cumulative time this direction has been streaming bits,
        including any currently open busy interval.

        Monotonically non-decreasing, so the sampler can snapshot it
        into a ring-buffer series and derive per-window busy fractions
        from consecutive deltas.
        """
        busy = self.total_busy_ns
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy

    def utilization(self, elapsed_ns: float | None = None) -> float:
        """Fraction of time the channel was streaming bits.

        Returns 0.0 for a zero-length window (``elapsed_ns <= 0`` or a
        query at simulated time 0) instead of dividing by zero.
        """
        horizon = elapsed_ns if elapsed_ns is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_ns / horizon
