"""Torus link model.

Each node connects to its six immediate neighbours via bidirectional
links; each direction of each link is an independent 50.6 Gbit/s
channel with 36.8 Gbit/s effective data bandwidth (§III.A).  A link
direction is a single-slot FCFS channel whose occupancy per packet
equals the serialization time, giving bandwidth contention and
head-of-line queueing; head latency is charged separately from the
calibrated segment constants (virtual cut-through; see DESIGN.md §5).

The channel is the engine's booking slot (:class:`repro.engine.Resource`),
the one FCFS server of the model: a packet arriving at ``t`` is granted
at ``max(t, free_at)``, and the transport schedules the hop's next step
at booking.  Its telemetry (``packets_carried``, ``bytes_carried``,
``queue_length``, ``busy_ns``) is the slot's, derived from the booked
grant times.  A link direction adds only what belongs to a link, computed
once when it is created: its id, the neighbour it leads to, the
unicast/multicast head latencies of a first hop and of a through hop,
and the retransmissions the fault session charges to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.constants import LINK_COST_NS, MULTICAST_LOOKUP_NS, THROUGH_RING_NS
from repro.engine.resource import Resource
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


class TorusLink(Resource):
    """One direction of one inter-node torus link: a single-slot FCFS
    channel plus the per-hop constants of its direction."""

    __slots__ = (
        "link_id", "neighbor",
        "ucast_first_ns", "ucast_through_ns",
        "mcast_first_ns", "mcast_through_ns",
        "retransmissions",
    )

    def __init__(
        self, sim: "Simulator", link_id: LinkId, neighbor: NodeCoord
    ) -> None:
        super().__init__(sim)
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
        #: Link-level retransmissions charged to this direction by the
        #: fault-injection session (always 0 on a fault-free run).
        self.retransmissions = 0

    @property
    def direction(self) -> str:
        """The ``z+``-style direction tag of this link direction."""
        return self.link_id.direction
