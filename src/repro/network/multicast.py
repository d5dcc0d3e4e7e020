"""Multicast pattern tables and the pattern compiler (§III.A).

Anton's network can send a single packet to an arbitrary set of local
or remote destination clients.  When a multicast packet is injected or
arrives at a node, a table lookup determines the local clients and the
outgoing links to which the packet is forwarded; up to 256 precomputed
patterns can be programmed per node.

The compiler below builds **dimension-ordered spanning trees**: the
packet travels along the X axis (both directions as needed), drops Y
branches at columns containing destinations, and the Y branches drop Z
branches.  This yields minimal hop counts on a torus and exactly one
inbound edge per tree node, so the per-node table entry is a simple
(local clients, outgoing directions) pair.

As on the hardware, where the one lookup names the local clients and
the outgoing links, an entry comes to hold the handles themselves: the
network that registered the pattern resolves it on its node's first
visit (see :mod:`repro.network.network`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.topology.torus import HOPS, NodeCoord, Torus3D

if TYPE_CHECKING:  # pragma: no cover
    from repro.asic.client import NetworkClient
    from repro.network.link import TorusLink

DIM_ORDER = ("x", "y", "z")


@dataclass(slots=True)
class TableEntry:
    """Per-node multicast table entry: deliveries and forwards.

    ``local_clients`` and ``forward`` are the table as programmed.  The
    other fields are the hardware they name, filled in by the network
    the pattern is registered with when the node is first visited:
    ``clients`` in ``local_clients`` order, ``children`` (the entry at
    the node each ``forward`` direction leads to) in ``forward`` order.
    A tree node has one inbound edge, so each child holds the direction
    it is reached by (``via``) and, from that direction's first use on,
    its ``link``.  A child that forwards nowhere and names one client
    is a leaf: its parent's resolution fills in that client as ``leaf``
    (fault-free networks only), and the hop into it delivers directly.
    They take no part in comparison.
    """

    local_clients: tuple[str, ...] = ()
    #: (dim, sign) pairs: the shared :data:`~repro.topology.torus.HOPS`.
    forward: tuple[tuple[str, int], ...] = ()
    clients: Optional[tuple["NetworkClient", ...]] = field(
        default=None, compare=False, repr=False
    )
    children: Optional[tuple["TableEntry", ...]] = field(
        default=None, compare=False, repr=False
    )
    via: Optional[tuple[str, int]] = field(
        default=None, compare=False, repr=False
    )
    link: Optional["TorusLink"] = field(
        default=None, compare=False, repr=False
    )
    leaf: Optional["NetworkClient"] = field(
        default=None, compare=False, repr=False
    )


@dataclass
class MulticastPattern:
    """A compiled multicast pattern.

    Registering it with a network programs its entries there; from
    then on they fill in with that network's client and link handles
    as packets visit, so a pattern is registered with one network.

    Attributes
    ----------
    source:
        The injection node the tree was compiled for.  Patterns are
        source-specific (each sender programs its own pattern slot).
    entries:
        Mapping from every node the tree touches to its table entry.
    destinations:
        The original destination map, kept for verification.
    deliveries:
        Client deliveries one packet makes: the sum of every entry's
        ``len(local_clients)``, a client named twice counted twice.
        Computed once, at construction.
    """

    source: NodeCoord
    entries: dict[NodeCoord, TableEntry]
    destinations: dict[NodeCoord, tuple[str, ...]]
    pattern_id: int = -1  # assigned at registration time
    deliveries: int = field(init=False)

    def __post_init__(self) -> None:
        self.deliveries = sum(
            len(e.local_clients) for e in self.entries.values()
        )

    @property
    def nodes_touched(self) -> int:
        return len(self.entries)

    @property
    def total_link_traversals(self) -> int:
        """Number of link crossings one multicast packet makes."""
        return sum(len(e.forward) for e in self.entries.values())

    def reached_clients(self) -> set[tuple[NodeCoord, str]]:
        """All (node, client) pairs the pattern delivers to."""
        out: set[tuple[NodeCoord, str]] = set()
        for node, entry in self.entries.items():
            for client in entry.local_clients:
                out.add((node, client))
        return out

    def links_traversed(self) -> list[tuple[NodeCoord, str, int]]:
        """Every ``(node, dim, sign)`` link direction the tree crosses,
        in deterministic (node-sorted) order — the per-link view the
        congestion attribution joins against."""
        return [
            (node, dim, sign)
            for node in sorted(self.entries)
            for (dim, sign) in self.entries[node].forward
        ]

    def direction_fanout(self) -> dict[str, int]:
        """How many tree edges leave along each ``z+``-style direction
        (a quick fingerprint of where a pattern loads the torus)."""
        fanout: dict[str, int] = {}
        for _node, dim, sign in self.links_traversed():
            tag = f"{dim}{'+' if sign > 0 else '-'}"
            fanout[tag] = fanout.get(tag, 0) + 1
        return fanout


def compile_pattern(
    torus: Torus3D,
    source: "NodeCoord | int",
    destinations: Mapping["NodeCoord | int", Sequence[str]],
) -> MulticastPattern:
    """Compile a dimension-ordered multicast tree.

    Parameters
    ----------
    torus:
        The machine topology.
    source:
        Injecting node.
    destinations:
        Mapping from destination node to the client names on that node
        that should receive the packet.  The source node itself may be
        a destination (local multicast delivery).

    Returns
    -------
    MulticastPattern
        With one table entry per touched node.  The tree is minimal in
        hops per branch (shortest wraparound displacement per
        dimension) and contains no cycles.
    """
    src = torus.coord(source)
    dest_map: dict[NodeCoord, tuple[str, ...]] = {}
    for node, clients in destinations.items():
        coord = torus.coord(node)
        if not clients:
            raise ValueError(f"destination {coord} has an empty client list")
        existing = dest_map.get(coord, ())
        dest_map[coord] = existing + tuple(clients)

    locals_: dict[NodeCoord, list[str]] = defaultdict(list)
    forwards: dict[NodeCoord, set[tuple[str, int]]] = defaultdict(set)

    def build(at: NodeCoord, dests: list[NodeCoord], dims: tuple[str, ...]) -> None:
        if not dims:
            # All remaining destinations must be this very node.
            for d in dests:
                if d != at:  # pragma: no cover - compiler invariant
                    raise AssertionError(f"unroutable destination {d} at {at}")
                locals_[at].extend(dest_map[d])
            return
        dim, rest = dims[0], dims[1:]
        axis = {"x": 0, "y": 1, "z": 2}[dim]
        n = torus.shape[axis]
        groups: dict[int, list[NodeCoord]] = defaultdict(list)
        for d in dests:
            delta = torus._delta(at[axis], d[axis], n)
            groups[delta].append(d)
        if 0 in groups:
            build(at, groups.pop(0), rest)
        for sign in (1, -1):
            offsets = sorted(k * sign for k in groups if k * sign > 0)
            if not offsets:
                continue
            cur = at
            hop = HOPS[(dim, sign)]
            for step in range(1, offsets[-1] + 1):
                forwards[cur].add(hop)
                cur = torus.neighbor(cur, dim, sign)
                if step in offsets:
                    build(cur, groups[step * sign], rest)

    build(src, list(dest_map), DIM_ORDER)

    touched = set(locals_) | set(forwards) | {src}
    entries = {
        node: TableEntry(
            local_clients=tuple(locals_.get(node, ())),
            forward=tuple(sorted(forwards.get(node, set()))),
        )
        for node in touched
    }
    return MulticastPattern(source=src, entries=entries, destinations=dest_map)
