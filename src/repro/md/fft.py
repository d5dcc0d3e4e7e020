"""The distributed dimension-ordered 3-D FFT communication plan (§IV.B.3).

Anton implements a dimension-ordered FFT: 1-D FFTs along X, then Y,
then Z (inverse in reverse order), with fine-grained (one grid point
per packet) counted remote writes between the per-dimension phases and
per-dimension synchronization counters.  The specific assignment of
1-D lines to nodes defines both the communication pattern and its
latency [47].

This module computes the *plan*: for each phase, which node owns which
lines, and therefore who sends how many point-packets to whom.  The
line-assignment rule keeps every transfer within the node row of the
active dimension (minimal hops) and spreads lines evenly across the
row (load balance), following the design of [47].
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from repro.topology.torus import NodeCoord, Torus3D

PHASES_FORWARD = ("x", "y", "z")
PHASES_INVERSE = ("z", "y", "x")
_AXIS = {"x": 0, "y": 1, "z": 2}


class DistributedFFTPlan:
    """Ownership and transfer plan for a ``grid³`` FFT on a torus.

    Parameters
    ----------
    torus:
        Machine topology; each torus extent must divide ``grid``.
    grid:
        FFT grid resolution per dimension (Anton's DHFR runs: 32).

    Notes
    -----
    Initially (and between phases) grid data lives block-distributed:
    node ``(i,j,k)`` owns the ``(grid/nx × grid/ny × grid/nz)`` block
    of points.  In phase *d*, complete lines along *d* are gathered
    onto owner nodes within the same row of nodes along *d*; the owner
    of a line is chosen round-robin along the row.  After the 1-D FFTs
    the data is scattered back to blocks, which doubles as the gather
    of the next phase (the model charges each phase one gather; the
    scatter of phase *d* and gather of phase *d+1* coincide, matching
    the paper's "communication occurs between computation for
    different dimensions").
    """

    def __init__(self, torus: Torus3D, grid: int = 32) -> None:
        for extent, label in zip(torus.shape, "xyz"):
            if grid % extent:
                raise ValueError(
                    f"grid {grid} does not tile the {label} extent {extent}"
                )
        self.torus = torus
        self.grid = grid
        self.block = (
            grid // torus.nx,
            grid // torus.ny,
            grid // torus.nz,
        )
        self._transfer_cache: dict[tuple[str, str], dict] = {}
        self._owned_cache: dict[str, dict] = {}

    # -- ownership ---------------------------------------------------------
    def block_owner(self, px: int, py: int, pz: int) -> NodeCoord:
        """Node owning grid point (px, py, pz) in block distribution."""
        return NodeCoord(
            px // self.block[0], py // self.block[1], pz // self.block[2]
        )

    def line_owner(self, dim: str, a: int, b: int) -> NodeCoord:
        """Node owning the 1-D line along ``dim`` indexed by the two
        orthogonal grid coordinates ``(a, b)``.

        For dim="x": (a, b) = (py, pz).  The owner shares the row of
        the block owners (same orthogonal node coordinates); its
        position along the row interleaves the row's lines by
        ``(a + block_a·b) mod n`` — within one row the local offsets
        ``(a mod block_a) + block_a·(b mod block_b)`` enumerate
        ``block_a·block_b`` *distinct* values, so ownership is exactly
        balanced whenever the row has at least ``n`` lines.
        """
        axis = _AXIS[dim]
        n_along = self.torus.shape[axis]
        if dim == "x":
            oy, oz = a // self.block[1], b // self.block[2]
            along = (a + self.block[1] * b) % n_along
            return NodeCoord(along, oy, oz)
        if dim == "y":
            ox, oz = a // self.block[0], b // self.block[2]
            along = (a + self.block[0] * b) % n_along
            return NodeCoord(ox, along, oz)
        ox, oy = a // self.block[0], b // self.block[1]
        along = (a + self.block[0] * b) % n_along
        return NodeCoord(ox, oy, along)

    def lines_owned(self, node: "NodeCoord | int", dim: str) -> int:
        """Number of 1-D lines the node transforms in phase ``dim``."""
        c = self.torus.coord(node)
        count = 0
        for a, b in self._ortho_indices(dim, c):
            if self.line_owner(dim, a, b) == c:
                count += 1
        return count

    def _ortho_indices(self, dim: str, c: NodeCoord) -> Iterator[tuple[int, int]]:
        """Orthogonal (a, b) grid indices within the node's row."""
        rows = [range(c[i] * self.block[i], (c[i] + 1) * self.block[i])
                for i in range(3)]
        del rows["xyz".index(dim)]
        return product(*rows)

    # -- stage ownership -----------------------------------------------------
    #: The convolution pipeline stages, in dataflow order: block
    #: distribution, forward X/Y/Z line ownership, (convolve at the Z
    #: owners), inverse Y/X line ownership, back to blocks.  Six
    #: inter-stage transfers total (§IV.B.3: "communication occurs
    #: between computation for different dimensions").
    STAGES = ("block", "x", "y", "z", "iy", "ix", "iblock")

    def stage_owner(self, stage: str, px: int, py: int, pz: int) -> NodeCoord:
        """Node owning grid point (px, py, pz) at a pipeline stage."""
        if stage in ("block", "iblock"):
            return self.block_owner(px, py, pz)
        if stage in ("x", "ix"):
            return self.line_owner("x", py, pz)
        if stage in ("y", "iy"):
            return self.line_owner("y", px, pz)
        if stage == "z":
            return self.line_owner("z", px, py)
        raise ValueError(f"unknown stage {stage!r}")

    def stage_transfers(self, stage_from: str, stage_to: str) -> dict[tuple[NodeCoord, NodeCoord], int]:
        """Point counts moved between consecutive stages, per node pair.

        Points whose owner does not change stay local and are excluded.
        Results are cached: the pattern is fixed (§IV.A).
        """
        key = (stage_from, stage_to)
        cached = self._transfer_cache.get(key)
        if cached is not None:
            return cached
        counts: dict[tuple[NodeCoord, NodeCoord], int] = {}
        g = self.grid
        for px in range(g):
            for py in range(g):
                for pz in range(g):
                    a = self.stage_owner(stage_from, px, py, pz)
                    b = self.stage_owner(stage_to, px, py, pz)
                    if a != b:
                        counts[(a, b)] = counts.get((a, b), 0) + 1
        self._transfer_cache[key] = counts
        return counts

    def stage_recv_counts(self, stage_from: str, stage_to: str) -> dict[NodeCoord, int]:
        """Expected packet (point) counts per receiving node."""
        out: dict[NodeCoord, int] = {}
        for (a, b), n in self.stage_transfers(stage_from, stage_to).items():
            out[b] = out.get(b, 0) + n
        return out

    def stage_send_lists(self, stage_from: str, stage_to: str) -> dict[NodeCoord, list[tuple[NodeCoord, int]]]:
        """Outgoing (dst, count) lists per sending node."""
        out: dict[NodeCoord, list[tuple[NodeCoord, int]]] = {}
        for (a, b), n in sorted(
            self.stage_transfers(stage_from, stage_to).items(),
            key=lambda kv: (self.torus.rank(kv[0][0]), self.torus.rank(kv[0][1])),
        ):
            out.setdefault(a, []).append((b, n))
        return out

    def stage_points_owned(self, stage: str) -> dict[NodeCoord, int]:
        """Points owned per node at a stage (1-D FFT work driver)."""
        cached = self._owned_cache.get(stage)
        if cached is not None:
            return cached
        out: dict[NodeCoord, int] = {}
        g = self.grid
        for px in range(g):
            for py in range(g):
                for pz in range(g):
                    o = self.stage_owner(stage, px, py, pz)
                    out[o] = out.get(o, 0) + 1
        self._owned_cache[stage] = out
        return out

    def max_hops(self, dim: str) -> int:
        """Worst-case hops of a phase transfer (within the node row)."""
        return self.torus.shape[_AXIS[dim]] // 2

    def total_points(self) -> int:
        return self.grid ** 3

    def points_per_node(self) -> int:
        return self.block[0] * self.block[1] * self.block[2]
