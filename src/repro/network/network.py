"""The packet-level torus network simulator.

Latency model (calibrated, see :mod:`repro.constants` and DESIGN.md §5):

* source on-chip ring traversal: ``SRC_RING_NS`` (19 ns);
* each link crossing: ``LINK_COST_NS[dim]`` (adapter pair + wire);
* each transit node: ``THROUGH_RING_NS[outgoing dim]``;
* destination ring traversal: ``DST_RING_NS`` (25 ns);
* non-inline payload serialization latency charged once, at the first
  link (virtual cut-through — downstream links are pipelined);
* every traversed link direction is *occupied* for the full
  serialization time, which is how bandwidth contention and
  head-of-line blocking arise.

With the sender's 36 ns injection overhead and the receiver's 42 ns
successful counter poll (both charged by the clients), a 0-byte write
between X-neighbours costs exactly 162 ns — the paper's headline
number.

Ordering: the network does not, in general, preserve packet ordering
(§III.A).  The model exposes this with an optional per-hop reordering
jitter; packets sent with the ``in_order`` header flag are delivered in
send order between a fixed (source node, source client, destination
node) pair regardless of jitter, which is what Anton's migration
protocol relies on (§IV.B.5).

Implementation note: packet transport is written in continuation-
passing style (callbacks on the event queue) rather than as generator
processes — an MD time step moves hundreds of thousands of packets and
the per-process machinery dominated the run time of the first
implementation.  The model's clients run the same way (see
:mod:`repro.asic.slice_`).  Each scheduled continuation is a plain
function with its transit as the first argument —
``_UcastTransit._next_hop, self`` rather than ``self._next_hop`` — so
a hop allocates no bound method,
and its args tuple is the one object per event that the cyclic garbage
collector tracks (see :mod:`repro.engine.simulator`).  A link direction
(:class:`~repro.network.link.TorusLink`) is a booking slot: a hop
arriving at ``t`` is granted at ``g = max(t, free_at)``, known when it
books.  So the hop schedules its next step at booking, once, at
``g + latency``, the time its head reaches the next node: the next
``_next_hop`` or ``_visit``.  A unicast packet's last hop schedules its
``_arrive`` at ``(g + latency) + DST_RING_NS`` (a node-local packet,
with no hop, at injection), and on a fault-free network a hop into a
multicast leaf (no children, one client, resolved with its parent)
schedules that client's delivery there too.  No grant and no release
is an event; the link derives its telemetry from the booked grant
times.  The transport's budget is one engine event per hop, its next
step, and a leaf's or a last hop's delivery is that event: an
``mdstep`` 4×4×4 step pair runs 1.80 engine events per hop, every
other layer included.  The fault session resolves a hop at
booking, for its grant time; its jitter is drawn there too.  A lost
hop's loss runs at ``g``, and a flight recorder records a queued
hop's grant as its own event at ``g``, so only a capture pays for it.
An in-order multicast packet still visits its leaves, whose delivery
gates are taken in visit order.

Tables hold hardware.  A multicast
:class:`~repro.network.multicast.TableEntry` is resolved on its node's
first visit to the handles it names: the client objects of its
``local_clients`` and the child entries its ``forward`` directions lead
to.  A tree node has one inbound edge, so each child entry holds the
:class:`TorusLink` it is reached by, filled in on that direction's
first use.  A unicast route (one list per ``(src, dst)`` pair) likewise
holds the link of each hop from the hop's first traversal.  A hop then
reads its link, and a multicast delivery its client, from the entry or
route the transit holds, and looks up no coordinate.  Links are still
created at first use, so ``Network.links()`` keeps its order and a
direction that is down when first reached is not created early.  The
neighbour and head latencies come precomputed on the link.  Faults,
jitter and the in-order flag stay inline in the one transit path.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro import instruments
from repro.constants import (
    DST_RING_NS,
    HEADER_BYTES,
    MAX_MULTICAST_PATTERNS,
    SRC_RING_NS,
    TORUS_LINK_EFFECTIVE_GBPS,
)
from repro.engine.simulator import Simulator
from repro.network.link import LinkId, TorusLink
from repro.network.multicast import MulticastPattern, TableEntry
from repro.network.packet import Packet
from repro.topology.torus import NodeCoord, Torus3D
from repro.trace.flight import NULL_FLIGHT

if TYPE_CHECKING:  # pragma: no cover
    from repro.asic.client import NetworkClient

#: Serialization time of a bare header; its wire time is overlapped with
#: the link-adapter latency, so only payload beyond the header adds
#: head latency.
_HEADER_SER_NS = HEADER_BYTES * 8.0 / TORUS_LINK_EFFECTIVE_GBPS


#: The route of every node-local packet: no hop, so nothing to fill in.
_LOCAL_ROUTE: tuple = ()


class Network:
    """A torus network with attached clients.

    Parameters
    ----------
    sim:
        The simulation engine.
    torus:
        Machine topology.
    reorder_jitter_ns:
        When positive, each hop of a packet *without* the in-order flag
        receives a uniform extra delay in ``[0, reorder_jitter_ns)``,
        modelling adaptive-routing reordering.  Zero (the default)
        keeps the network deterministic and calibrated.
    seed:
        Seed for the jitter RNG (jitter is still reproducible).

    The network reads two slots of :mod:`repro.instruments` when it is
    built.  ``flight`` is the
    :class:`~repro.trace.flight.FlightRecorder` observing every
    packet's causal spans (``use_flight``); with the slot empty it is
    the zero-cost null recorder, and the transport guards every hook
    behind ``flight.enabled``.  It is the one transport probe: the
    congestion X-ray's per-link timelines are derived from its record
    after the run (:class:`~repro.congestion.view.CongestionView`).
    ``faults`` is the fault-injection session (``use_faults``, see
    :mod:`repro.faults`); an empty slot or a disabled session is never
    consulted, so fault-free runs take the exact historical code path.
    """

    def __init__(
        self,
        sim: Simulator,
        torus: Torus3D,
        reorder_jitter_ns: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.torus = torus
        slots = instruments.current()
        self.flight = slots.flight if slots.flight is not None else NULL_FLIGHT
        faults = slots.faults
        self.faults = faults if faults is not None and faults.enabled else None
        self.reorder_jitter_ns = reorder_jitter_ns
        self._rng = random.Random(seed)
        self._links: dict[tuple[NodeCoord, str, int], TorusLink] = {}
        #: (src, dst) -> the link of each hop, ``None`` until crossed.
        self._routes: dict[tuple[NodeCoord, NodeCoord], list] = {}
        self._clients: dict[tuple[NodeCoord, str], "NetworkClient"] = {}
        self._patterns: dict[int, MulticastPattern] = {}
        self._next_pattern_id = 0
        self._per_node_patterns: dict[NodeCoord, int] = {}
        self._inorder_tail: dict[tuple[NodeCoord, str, NodeCoord],
                                 _InOrderGate] = {}
        # statistics
        self.packets_injected = 0
        self.packets_delivered = 0
        #: Hops booked on any link, granted or still pending.
        self._hops_booked = 0
        #: Packets whose every delivery has landed (all branches, for
        #: multicast).  ``packets_injected - packets_completed`` is the
        #: in-flight count the health watchdogs conserve against.
        self.packets_completed = 0
        #: Client deliveries owed by every injected packet (1 per
        #: unicast, one per reached client for multicast); at
        #: quiescence this must equal ``packets_delivered`` plus
        #: ``deliveries_lost`` exactly.
        self.deliveries_expected = 0
        #: Packets dropped by the fault session's ``on_exhaust="drop"``
        #: escalation (a dropped packet still counts as *completed* so
        #: the in-flight conservation invariant closes); always 0
        #: without fault injection.
        self.packets_lost = 0
        #: Client deliveries those dropped packets owed (> 1 per packet
        #: for multicast subtrees cut off by the drop).
        self.deliveries_lost = 0

    @property
    def packets_in_flight(self) -> int:
        """Packets injected but not yet fully delivered."""
        return self.packets_injected - self.packets_completed

    @property
    def link_traversals(self) -> int:
        """Hops granted a link by now: every hop booked, less those
        still waiting for their booked grant."""
        return self._hops_booked - sum(
            link.queue_length for link in self._links.values())

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, client: "NetworkClient") -> None:
        """Register a client at (node, name); names are per-node unique."""
        key = (client.node, client.name)
        if key in self._clients:
            raise ValueError(f"client {client.name!r} already attached at {client.node}")
        self._clients[key] = client

    def client(self, node: "NodeCoord | int", name: str) -> "NetworkClient":
        """Look up an attached client."""
        key = (self.torus.coord(node), name)
        try:
            return self._clients[key]
        except KeyError:
            raise KeyError(f"no client {name!r} at node {key[0]}") from None

    def link(self, node: "NodeCoord | int", dim: str, sign: int) -> TorusLink:
        """The link direction leaving ``node`` along ``dim``/``sign``,
        created on first use.  The transits call this once per route
        hop or table direction and keep the handle."""
        coord = self.torus.coord(node)
        key = (coord, dim, sign)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = TorusLink(
                self.sim, LinkId(coord, dim, sign),
                self.torus.neighbor(coord, dim, sign),
            )
        return link

    def links(self):
        """All link directions that have carried traffic."""
        return iter(self._links.values())

    # ------------------------------------------------------------------
    # multicast table programming
    # ------------------------------------------------------------------
    def register_pattern(self, pattern: MulticastPattern) -> int:
        """Program a compiled pattern into the per-node tables.

        Raises
        ------
        RuntimeError
            If any touched node would exceed the hardware limit of 256
            patterns (§III.A).
        ValueError
            If the pattern is already registered: its table entries
            come to hold the handles of the network it is registered
            with, so a pattern serves one network.
        """
        if pattern.pattern_id != -1:
            raise ValueError(
                f"pattern already registered as {pattern.pattern_id}; "
                "compile a new pattern for each registration"
            )
        for node in pattern.entries:
            if self._per_node_patterns.get(node, 0) >= MAX_MULTICAST_PATTERNS:
                raise RuntimeError(
                    f"node {node} exceeds {MAX_MULTICAST_PATTERNS} multicast patterns"
                )
        for node in pattern.entries:
            self._per_node_patterns[node] = self._per_node_patterns.get(node, 0) + 1
        pattern_id = self._next_pattern_id
        self._next_pattern_id += 1
        pattern.pattern_id = pattern_id
        self._patterns[pattern_id] = pattern
        return pattern_id

    def pattern(self, pattern_id: int) -> MulticastPattern:
        return self._patterns[pattern_id]

    # ------------------------------------------------------------------
    # packet injection
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Inject a packet at its source node's ring.

        The caller (a client) is responsible for charging its own send
        overhead (e.g. ``SLICE_SEND_NS``) before calling.  The packet
        counts in ``packets_completed`` once it has been delivered to
        every destination client (all of them, for multicast); a
        receiver learns of its arrival from its counter.
        """
        self.packets_injected += 1
        fl = self.flight
        if fl.enabled:
            fl.packet_injected(packet, self.sim.now)
        if packet.is_multicast:
            _McastTransit(self, packet)
        else:
            _UcastTransit(self, packet)

    # -- shared helpers -----------------------------------------------------
    def _inorder_gate(
        self, packet: Packet, dst: NodeCoord
    ) -> tuple[Optional[_InOrderGate], Optional[_InOrderGate]]:
        """FIFO chaining for the per-pair in-order delivery guarantee.

        Returns ``(prev, mine)``: delivery must wait for ``prev`` (the
        previous in-order packet of this pair) to open and open
        ``mine`` once delivered.  Gate creation order equals
        arrival-processing order, which for in-order packets (never
        jittered, fixed path) equals send order.
        """
        if not packet.in_order:
            return None, None
        key = (packet.src_node, packet.src_client, dst)
        prev = self._inorder_tail.get(key)
        mine = self._inorder_tail[key] = _InOrderGate(self.sim)
        return prev, mine

    def _jitter(self, packet: Packet) -> float:
        """One hop's reordering delay; hops call it only while
        ``reorder_jitter_ns > 0``, so a jitter-free run draws nothing."""
        if packet.in_order:
            return 0.0
        return self._rng.uniform(0.0, self.reorder_jitter_ns)

    def _route(self, src: NodeCoord, dst: NodeCoord) -> Sequence:
        """The route from ``src`` to ``dst``, made on its first packet:
        one slot per hop for the link it crosses.  A node-local route
        has no hop to fill, so all of them share one empty route."""
        if src == dst:
            return _LOCAL_ROUTE
        hops = len(self.torus.route(src, dst))
        route = self._routes[(src, dst)] = [None] * hops
        return route

    def _resolve(
        self, pattern: MulticastPattern, entry: TableEntry, node: NodeCoord
    ) -> tuple:
        """Resolve ``entry``, ``node``'s entry of ``pattern``, on the
        node's first visit: its clients and its child entries, each
        child told the direction it is reached by.  Returns the
        children."""
        clients = self._clients
        entry.clients = tuple([
            clients.get((node, name)) or self.client(node, name)
            for name in entry.local_clients
        ])
        entries = pattern.entries
        neighbor = self.torus.neighbor
        children = []
        for via in entry.forward:
            child_node = neighbor(node, *via)
            child = entries[child_node]
            child.via = via
            if (self.faults is None and not child.forward
                    and len(child.local_clients) == 1):
                # A leaf: the hop into it delivers, and no fault
                # session reads a stall at its visit.  A missing client
                # is left to raise at the visit.
                child.leaf = clients.get((child_node, child.local_clients[0]))
            children.append(child)
        entry.children = tuple(children)
        return entry.children

    def _deliver(self, packet: Packet, client: "NetworkClient") -> None:
        self.packets_delivered += 1
        fl = self.flight
        if fl.enabled:
            fl.packet_delivered(packet, client.node, client.name, self.sim.now)
        client.receive(packet)


class _InOrderGate:
    """The delivery gate of one in-order packet, open once the packet
    is delivered (or lost); the pair's next in-order packet delivers
    only through it.

    It has one continuation slot, as a counter has
    (``SyncCounter.on_target``): opening the gate runs the waiting
    continuation in an event of its own at that instant, and an open
    gate keeps none.
    """

    __slots__ = ("sim", "is_open", "_then", "_then_args")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.is_open = False
        self._then: Optional[Callable[..., None]] = None
        self._then_args: tuple = ()

    def on_open(self, fn: Callable[..., None], args: tuple) -> None:
        """Run ``fn(*args)`` once the gate is open: at once if it is,
        else in an event at the instant it opens."""
        if self.is_open:
            fn(*args)
            return
        if self._then is not None:
            raise RuntimeError("in-order gate already has a waiter")
        self._then, self._then_args = fn, args

    def open(self) -> None:
        """Open the gate, releasing its waiter."""
        self.is_open = True
        fn = self._then
        if fn is not None:
            self.sim.schedule_now(fn, self._then_args)
            self._then, self._then_args = None, ()


class _UcastTransit:
    """Continuation-passing unicast transport of one packet."""

    __slots__ = ("net", "packet", "route", "idx",
                 "payload_extra", "order_prev", "order_mine")

    def __init__(self, net: Network, packet: Packet) -> None:
        self.net = net
        self.packet = packet
        src = packet.src_node
        dst = packet.dst_node
        route = net._routes.get((src, dst))
        self.route = route if route is not None else net._route(src, dst)
        self.idx = 0
        self.payload_extra = max(0.0, packet.serialization_ns - _HEADER_SER_NS)
        self.order_prev, self.order_mine = net._inorder_gate(packet, dst)
        net.deliveries_expected += 1
        if self.route:
            net.sim.schedule(SRC_RING_NS, _UcastTransit._next_hop, self)
        else:
            # A node-local packet: no hop to book.
            net.sim.schedule(SRC_RING_NS, _UcastTransit._arrive, self)

    def _hop(self, idx: int) -> tuple[NodeCoord, str, int]:
        """``(node, dim, sign)`` of hop ``idx``: read from its link once
        crossed, else from the topology's route (every earlier hop has
        been crossed, so the node comes from the previous link)."""
        route = self.route
        link = route[idx]
        if link is not None:
            lid = link.link_id
            return lid.node, lid.dim, lid.sign
        packet = self.packet
        dim, sign = self.net.torus.route(packet.src_node, packet.dst_node)[idx]
        node = route[idx - 1].neighbor if idx else packet.src_node
        return node, dim, sign

    def _next_hop(self) -> None:
        """The packet's head reaches its next link: book it, and
        schedule the next step at the time the head reaches the next
        node (its ``_arrive`` directly, after the last hop)."""
        net = self.net
        sim = net.sim
        route = self.route
        idx = self.idx
        fa = net.faults
        if fa is not None:
            until = fa.transit_blocked_until(*self._hop(idx), sim.now)
            if until > sim.now:
                # Link down or node stalled: re-arm at the window's end
                # (re-checked there — windows may be back to back).
                sim.schedule(until - sim.now, _UcastTransit._next_hop, self)
                return
        link = route[idx]
        if link is None:
            link = route[idx] = net.link(*self._hop(idx))
        packet = self.packet
        if fa is None:
            out = None
            grant = link.book(packet.serialization_ns, packet.wire_bytes)
        else:
            lid = link.link_id
            out = fa.transmit(packet, link, lid.dim, lid.sign,
                              link.grant_time())
            grant = link.book(out.hold_ns, packet.wire_bytes)
        net._hops_booked += 1
        fl = net.flight
        if fl.enabled:
            fl.hop_booked(packet, link, grant, out)
        if out is not None and out.lost:
            if grant == sim.now:
                self._lost()
            else:
                sim.schedule_at(grant, _UcastTransit._lost, (self,))
            return
        if idx == 0:
            latency = link.ucast_first_ns + self.payload_extra
        else:
            latency = link.ucast_through_ns
        if out is not None:
            latency += out.extra_ns
        if net.reorder_jitter_ns > 0.0:
            latency += net._jitter(packet)
        idx += 1
        self.idx = idx
        if idx < len(route):
            sim.schedule_at(grant + latency, _UcastTransit._next_hop, (self,))
        else:
            sim.schedule_at((grant + latency) + DST_RING_NS,
                            _UcastTransit._arrive, (self,))

    def _lost(self) -> None:
        """Drop escalation: account the loss loudly and complete the
        packet so the in-flight conservation invariant still closes."""
        net = self.net
        net.packets_lost += 1
        net.deliveries_lost += 1
        net.packets_completed += 1
        net.faults.record_lost(self.packet, 1)
        # The in-order chain must not observe the drop out of order: our
        # gate opens only once every predecessor's gate has opened.
        mine = self.order_mine
        if mine is not None:
            prev = self.order_prev
            if prev is not None:
                prev.on_open(_InOrderGate.open, (mine,))
            else:
                mine.open()

    def _arrive(self) -> None:
        prev = self.order_prev
        if prev is not None:
            prev.on_open(_UcastTransit._finish, (self,))
        else:
            self._finish()

    def _finish(self) -> None:
        net = self.net
        packet = self.packet
        # The client handle by its key, as ``Network._resolve`` reads
        # it; a missing client raises through ``Network.client``.
        dst, name = packet.dst_node, packet.dst_client
        client = net._clients.get((dst, name)) or net.client(dst, name)
        net._deliver(packet, client)
        if self.order_mine is not None:
            self.order_mine.open()
        net.packets_completed += 1


class _McastTransit:
    """Continuation-passing multicast transport of one packet.

    Walks the compiled tree, delivering to local clients and forwarding
    along outgoing links; the packet completes when the last delivery
    lands.
    Each visit carries the node's :class:`TableEntry` and reads the
    clients and child entries resolved on it; each hop reads its link
    from the child entry it leads to.
    """

    __slots__ = ("net", "packet", "pattern", "payload_extra", "outstanding")

    def __init__(self, net: Network, packet: Packet) -> None:
        self.net = net
        self.packet = packet
        pattern = net._patterns.get(packet.pattern_id)  # type: ignore[arg-type]
        if pattern is None:
            raise KeyError(f"multicast pattern {packet.pattern_id} not registered")
        src = packet.src_node
        if pattern.source != src:
            raise ValueError(
                f"pattern {packet.pattern_id} was compiled for source "
                f"{pattern.source}, injected at {src}"
            )
        self.pattern = pattern
        self.payload_extra = max(0.0, packet.serialization_ns - _HEADER_SER_NS)
        self.outstanding = pattern.deliveries
        if self.outstanding == 0:
            raise ValueError(f"pattern {packet.pattern_id} delivers to no client")
        net.deliveries_expected += self.outstanding
        net.sim.schedule(SRC_RING_NS, _McastTransit._visit, self,
                         pattern.entries[src], src, True)

    def _visit(self, entry: TableEntry, node: NodeCoord, first_link: bool,
               only: Optional[TableEntry] = None) -> None:
        """Deliver to ``node``'s local clients and forward along its
        outgoing links.  ``only`` re-arms the one direction leading to
        that child (a branch that waited out a downed link): no local
        deliveries, no stall check."""
        net = self.net
        sim = net.sim
        fa = net.faults
        packet = self.packet
        children = entry.children
        if children is None:
            children = net._resolve(self.pattern, entry, node)
        if only is None:
            if fa is not None:
                until = fa.stall_until(node, sim.now)
                if until > sim.now:
                    # Stalled node: the whole visit (local deliveries
                    # and forwarding) waits out the window.
                    sim.schedule(until - sim.now, _McastTransit._visit,
                                 self, entry, node, first_link)
                    return
            # Local deliveries go out in client order, each at the same
            # tick (DST_RING_NS past the ring, or immediately at the
            # source, the one first-link visit); for in-order packets
            # the gates are taken in that order too.
            delay = 0.0 if first_link else DST_RING_NS
            if packet.in_order:
                for client in entry.clients:
                    order_prev, order_mine = net._inorder_gate(packet, node)
                    sim.schedule(delay, _McastTransit._deliver_local,
                                 self, client, order_prev, order_mine)
            else:
                for client in entry.clients:
                    sim.schedule(delay, _McastTransit._finish_local,
                                 self, client, None)
        else:
            children = (only,)
        leaf_ok = not packet.in_order
        for child in children:
            if fa is not None:
                until = fa.down_until(*child.via, sim.now)
                if until > sim.now:
                    sim.schedule(until - sim.now, _McastTransit._visit,
                                 self, entry, node, first_link, child)
                    continue
            link = child.link
            if link is None:
                link = child.link = net.link(node, *child.via)
            if fa is None:
                out = None
                grant = link.book(packet.serialization_ns, packet.wire_bytes)
            else:
                lid = link.link_id
                out = fa.transmit(packet, link, lid.dim, lid.sign,
                                  link.grant_time())
                grant = link.book(out.hold_ns, packet.wire_bytes)
            net._hops_booked += 1
            fl = net.flight
            if fl.enabled:
                fl.hop_booked(packet, link, grant, out)
            if out is not None and out.lost:
                if grant == sim.now:
                    self._lost_branch(link.neighbor)
                else:
                    sim.schedule_at(grant, _McastTransit._lost_branch,
                                    (self, link.neighbor))
                continue
            if first_link:
                latency = link.mcast_first_ns + self.payload_extra
            else:
                latency = link.mcast_through_ns
            if out is not None:
                latency += out.extra_ns
            if net.reorder_jitter_ns > 0.0:
                latency += net._jitter(packet)
            leaf = child.leaf
            if leaf is not None and leaf_ok:
                # The visit would only deliver, DST_RING_NS later.
                sim.schedule_at((grant + latency) + DST_RING_NS,
                                _McastTransit._finish_local,
                                (self, leaf, None))
            else:
                sim.schedule_at(grant + latency, _McastTransit._visit,
                                (self, child, link.neighbor, False))

    def _deliver_local(
        self,
        client: "NetworkClient",
        order_prev: Optional[_InOrderGate],
        order_mine: Optional[_InOrderGate],
    ) -> None:
        if order_prev is not None:
            order_prev.on_open(_McastTransit._finish_local,
                               (self, client, order_mine))
        else:
            self._finish_local(client, order_mine)

    def _finish_local(
        self, client: "NetworkClient", order_mine: Optional[_InOrderGate]
    ) -> None:
        net = self.net
        net._deliver(self.packet, client)
        if order_mine is not None:
            order_mine.open()
        self.outstanding -= 1
        if self.outstanding == 0:
            net.packets_completed += 1

    def _lost_branch(self, root: NodeCoord) -> None:
        """Drop escalation on one multicast branch: every delivery in
        the unreached subtree is accounted as lost; the packet still
        completes once every other branch lands."""
        net = self.net
        lost = 0
        frontier = [root]
        while frontier:
            node = frontier.pop()
            entry = self.pattern.entries[node]
            lost += len(entry.local_clients)
            for dim, sign in entry.forward:
                frontier.append(net.torus.neighbor(node, dim, sign))
        net.packets_lost += 1
        net.deliveries_lost += lost
        net.faults.record_lost(self.packet, lost)
        self.outstanding -= lost
        if self.outstanding == 0:
            net.packets_completed += 1
