"""Three-dimensional torus topology with dimension-ordered routing.

Anton's inter-node network is a 3-D torus: every node is directly
connected to its six immediate neighbours, and each dimension wraps
around (§II, Fig. 1).  Packets are routed along the shortest path in
each torus dimension, dimension by dimension (X, then Y, then Z) —
"shortest-path routing is used along each torus dimension" (Fig. 5
caption).  Dimension-ordered routing on a torus with per-dimension
shortest paths is deadlock-free when combined with the virtual-channel
scheme the real hardware uses; our model simply never creates routing
cycles.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple, Sequence

DIMS = ("x", "y", "z")


class NodeCoord(NamedTuple):
    """Cartesian coordinates of a node within the torus.

    A named tuple: hashing and equality run at C speed, which matters —
    node coordinates key every hot dictionary in the network simulator.
    """

    x: int
    y: int
    z: int

    def __repr__(self) -> str:
        return f"({self.x},{self.y},{self.z})"


class Hop(NamedTuple):
    """One routing step: traverse the link in ``dim`` toward ``sign``."""

    dim: str  # "x" | "y" | "z"
    sign: int  # +1 or -1


#: The six distinct hops, keyed by ``(dim, sign)``.  Every route is
#: built from these shared instances, so a cached route holds one list
#: and no hop objects of its own.
HOPS: dict[tuple[str, int], Hop] = {
    (dim, sign): Hop(dim, sign) for dim in DIMS for sign in (1, -1)
}


class Torus3D:
    """A ``nx × ny × nz`` torus of nodes.

    Nodes are addressed either by :class:`NodeCoord` or by a dense
    integer rank (x-major: ``rank = x + nx*(y + ny*z)``), whichever is
    more convenient at a call site.  All routing helpers accept both.
    """

    def __init__(self, nx: int, ny: int, nz: int) -> None:
        for n, label in ((nx, "nx"), (ny, "ny"), (nz, "nz")):
            if n < 1:
                raise ValueError(f"{label} must be >= 1, got {n}")
        self.shape = (nx, ny, nz)
        self.nx, self.ny, self.nz = nx, ny, nz
        self.num_nodes = nx * ny * nz
        self._neighbor_cache: dict[tuple[NodeCoord, str, int], NodeCoord] = {}
        self._route_cache: dict[tuple[NodeCoord, NodeCoord], list[Hop]] = {}

    # -- addressing -------------------------------------------------------
    def coord(self, node: "NodeCoord | int | tuple[int, int, int]") -> NodeCoord:
        """Normalise ``node`` to a :class:`NodeCoord`.

        Accepts a :class:`NodeCoord`, an ``(x, y, z)`` tuple (wrapped
        into the torus), or a dense integer rank.
        """
        if isinstance(node, NodeCoord):
            return node
        if isinstance(node, tuple):
            if len(node) != 3:
                raise ValueError(f"coordinate tuple must have 3 entries, got {node!r}")
            return self.wrap(NodeCoord(*map(int, node)))
        rank = int(node)
        if not 0 <= rank < self.num_nodes:
            raise ValueError(f"rank {rank} out of range for {self.shape} torus")
        x = rank % self.nx
        y = (rank // self.nx) % self.ny
        z = rank // (self.nx * self.ny)
        return NodeCoord(x, y, z)

    def rank(self, node: "NodeCoord | int") -> int:
        """Dense integer rank of ``node``."""
        if isinstance(node, int):
            if not 0 <= node < self.num_nodes:
                raise ValueError(f"rank {node} out of range for {self.shape} torus")
            return node
        c = self.wrap(node)
        return c.x + self.nx * (c.y + self.ny * c.z)

    def wrap(self, coord: NodeCoord) -> NodeCoord:
        """Wrap arbitrary integer coordinates into the torus."""
        return NodeCoord(coord.x % self.nx, coord.y % self.ny, coord.z % self.nz)

    def nodes(self) -> Iterator[NodeCoord]:
        """Iterate all node coordinates in rank order."""
        for z, y, x in product(range(self.nz), range(self.ny), range(self.nx)):
            yield NodeCoord(x, y, z)

    # -- distances ---------------------------------------------------------
    def _delta(self, a: int, b: int, n: int) -> int:
        """Signed shortest wraparound displacement from a to b modulo n.

        Ties (distance exactly n/2 on an even ring) are broken toward
        the positive direction, deterministically.
        """
        d = (b - a) % n
        if d > n - d:
            d -= n
        # d == n - d (exact half-way on an even ring) routes in the
        # positive direction — a deterministic tie-break.
        return d

    def hop_vector(self, src: "NodeCoord | int", dst: "NodeCoord | int") -> tuple[int, int, int]:
        """Signed per-dimension hop counts along the shortest path."""
        a, b = self.coord(src), self.coord(dst)
        return (
            self._delta(a.x, b.x, self.nx),
            self._delta(a.y, b.y, self.ny),
            self._delta(a.z, b.z, self.nz),
        )

    def hops(self, src: "NodeCoord | int", dst: "NodeCoord | int") -> int:
        """Total network hops between ``src`` and ``dst``."""
        return sum(abs(d) for d in self.hop_vector(src, dst))

    def max_hops(self) -> int:
        """Diameter of the torus (maximum hops between any node pair).

        For an 8×8×8 machine this is 12, matching Fig. 5's caption.
        """
        return self.nx // 2 + self.ny // 2 + self.nz // 2

    # -- routing -----------------------------------------------------------
    def route(self, src: "NodeCoord | int", dst: "NodeCoord | int") -> list[Hop]:
        """Dimension-ordered (X, then Y, then Z) shortest-path route.

        Routes are cached: fixed communication patterns reuse the same
        pairs every step.
        """
        a, b = self.coord(src), self.coord(dst)
        cached = self._route_cache.get((a, b))
        if cached is not None:
            return cached
        dx, dy, dz = self.hop_vector(a, b)
        hops: list[Hop] = []
        for dim, d in zip(DIMS, (dx, dy, dz)):
            sign = 1 if d > 0 else -1
            hops += [HOPS[(dim, sign)]] * abs(d)
        self._route_cache[(a, b)] = hops
        return hops

    def path_nodes(self, src: "NodeCoord | int", dst: "NodeCoord | int") -> list[NodeCoord]:
        """All nodes visited (inclusive of both endpoints), in order."""
        cur = self.coord(src)
        out = [cur]
        for hop in self.route(src, dst):
            step = {d: 0 for d in DIMS}
            step[hop.dim] = hop.sign
            cur = self.wrap(
                NodeCoord(cur.x + step["x"], cur.y + step["y"], cur.z + step["z"])
            )
            out.append(cur)
        return out

    def neighbor(self, node: "NodeCoord | int", dim: str, sign: int) -> NodeCoord:
        """The immediate neighbour of ``node`` along ``dim`` / ``sign``
        (cached — this is the network model's hottest lookup)."""
        c = self.coord(node)
        key = (c, dim, sign)
        cached = self._neighbor_cache.get(key)
        if cached is not None:
            return cached
        if dim not in DIMS:
            raise ValueError(f"unknown dimension {dim!r}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        step = {d: 0 for d in DIMS}
        step[dim] = sign
        n = self.wrap(NodeCoord(c.x + step["x"], c.y + step["y"], c.z + step["z"]))
        self._neighbor_cache[key] = n
        return n

    def face_neighbors(self, node: "NodeCoord | int") -> list[NodeCoord]:
        """The six immediate (face) neighbours, X+,X-,Y+,Y-,Z+,Z-."""
        out = []
        for dim in DIMS:
            for sign in (1, -1):
                out.append(self.neighbor(node, dim, sign))
        return out

    def moore_neighbors(self, node: "NodeCoord | int") -> list[NodeCoord]:
        """All 26 nearest neighbours (used by atom migration, §IV.B.5).

        On small tori some offsets alias to the same node; duplicates
        and the node itself are removed, preserving a deterministic
        order.
        """
        c = self.coord(node)
        seen: dict[NodeCoord, None] = {}
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    n = self.wrap(NodeCoord(c.x + dx, c.y + dy, c.z + dz))
                    if n != c:
                        seen.setdefault(n)
        return list(seen)

    def axis_peers(self, node: "NodeCoord | int", dim: str) -> list[NodeCoord]:
        """All other nodes sharing this node's position in the other two
        dimensions — the participants of a one-dimensional all-reduce
        along ``dim`` (§IV.B.4)."""
        c = self.coord(node)
        n = {"x": self.nx, "y": self.ny, "z": self.nz}[dim]
        out = []
        for i in range(n):
            coord = {
                "x": NodeCoord(i, c.y, c.z),
                "y": NodeCoord(c.x, i, c.z),
                "z": NodeCoord(c.x, c.y, i),
            }[dim]
            if coord != c:
                out.append(coord)
        return out

    def __repr__(self) -> str:
        return f"Torus3D({self.nx}x{self.ny}x{self.nz})"
