"""Desmond-style MD communication on the commodity cluster (Table 3).

The paper compares Anton against "the hardware/software configuration
that has produced the next fastest reported MD simulations: a high-end
512-node Xeon/InfiniBand cluster running the Desmond MD software".
This module reproduces that column of Table 3 with a schedule-level
model of Desmond's communication [12, 15] on the
:class:`~repro.baselines.cluster.ClusterNetwork`:

* **staged neighbour exchange** for positions and forces: three
  dimension-ordered stages of two messages each, with forwarding, so a
  node reaches all 26 neighbours with 6 messages (Fig. 8a's commodity
  pattern).  Message sizes follow the midpoint-method import geometry
  (slabs of half-cutoff thickness around the home box);
* **distributed FFT** for the long-range electrostatics: transpose
  stages that become all-to-all-like within large node groups at this
  level of strong scaling (2 grid points per node), making the FFT the
  most expensive communication step, as in the paper;
* **thermostat** via two recursive-doubling all-reduces (kinetic
  energy, then the velocity-scale broadcast folded into the second),
  matching the measured 35.5 µs per 512-node IB all-reduce (§IV.B.4);
* **compute phases** from an effective per-pair arithmetic rate
  calibrated to [15] (this is an aggregate rate: it folds pairlist
  maintenance, bonded terms, constraints, and integration into a
  per-pair figure, which is why it is much larger than a raw
  kernel-FLOP estimate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.asic.slice_ import run_programs
from repro.baselines.cluster import ClusterNetwork, recv_step, send_step, work_step
from repro.baselines.mpi import MpiContext
from repro.constants import DDR2_INFINIBAND, DHFR_ATOMS, ClusterParams
from repro.engine.simulator import Simulator

#: Effective aggregate arithmetic cost per range-limited pair on one
#: cluster node (see module docstring; calibrated to [15]).
XEON_EFFECTIVE_NS_PER_PAIR = 12.3

#: Effective per-grid-point cost of the node-local FFT butterflies.
XEON_NS_PER_GRID_POINT = 940.0

#: Charge spreading + force interpolation arithmetic per long-range
#: step (aggregate per node, calibrated to [15]).
SPREAD_INTERP_COMPUTE_NS = 40_000.0

#: Thermostat-side arithmetic + load imbalance per invocation.
THERMOSTAT_COMPUTE_NS = 20_000.0

#: Bytes per atom in a position/force message (3 doubles + index/pad).
ATOM_RECORD_BYTES = 32

#: Sender-side pack / receiver-side unpack cost per atom record — the
#: local data-copy overhead commodity clusters pay to keep the message
#: count low (Fig. 8b); Anton eliminates it with direct remote writes.
PACK_NS_PER_ATOM = 25.0


@dataclass
class DesmondWorkload:
    """Geometry of the benchmark system on the cluster.

    Defaults describe DHFR (Table 3 caption): 23,558 atoms, ~62 Å box,
    512 nodes, 32³ long-range grid, long-range every other step.
    """

    num_nodes: int = 512
    atoms: int = DHFR_ATOMS
    box_edge_a: float = 62.2
    cutoff_a: float = 13.0
    grid_points: int = 32  # per dimension
    fft_group_size: int = 32
    long_range_interval: int = 2

    @property
    def node_grid(self) -> int:
        g = round(self.num_nodes ** (1.0 / 3.0))
        if g ** 3 != self.num_nodes:
            raise ValueError(f"num_nodes must be a cube, got {self.num_nodes}")
        return g

    @property
    def node_box_edge_a(self) -> float:
        return self.box_edge_a / self.node_grid

    @property
    def density(self) -> float:
        """Atoms per cubic ångström."""
        return self.atoms / self.box_edge_a ** 3

    @property
    def atoms_per_node(self) -> float:
        return self.atoms / self.num_nodes

    def stage_import_atoms(self) -> list[float]:
        """Atoms carried per staged-exchange stage (both directions).

        Midpoint method: import slabs of thickness ``cutoff / 2``
        around the home box; staged forwarding makes successive slabs
        wider (Plimpton-style east-west, north-south, up-down).
        """
        a = self.node_box_edge_a
        r = self.cutoff_a / 2.0
        s1 = 2 * r * a * a                       # two X slabs
        s2 = 2 * r * (a + 2 * r) * a             # two Y slabs incl. forwarded corners
        s3 = 2 * r * (a + 2 * r) * (a + 2 * r)   # two Z slabs incl. all corners
        return [v * self.density for v in (s1, s2, s3)]

    @property
    def import_atoms(self) -> float:
        return sum(self.stage_import_atoms())

    @property
    def pairs_per_node(self) -> float:
        """Range-limited pairs evaluated per node per step."""
        shell = (4.0 / 3.0) * math.pi * self.cutoff_a ** 3
        neighbors = self.density * shell
        return self.atoms * neighbors / 2.0 / self.num_nodes

    @property
    def grid_points_per_node(self) -> float:
        return self.grid_points ** 3 / self.num_nodes


@dataclass
class DesmondStepTiming:
    """One Table 3 row for the Desmond column."""

    name: str
    communication_ns: float
    total_ns: float

    @property
    def communication_us(self) -> float:
        return self.communication_ns / 1000.0

    @property
    def total_us(self) -> float:
        return self.total_ns / 1000.0

    @property
    def compute_ns(self) -> float:
        return self.total_ns - self.communication_ns


class DesmondModel:
    """Schedule-level Desmond timing model on the cluster network."""

    def __init__(
        self,
        workload: Optional[DesmondWorkload] = None,
        params: ClusterParams = DDR2_INFINIBAND,
    ) -> None:
        self.workload = workload or DesmondWorkload()
        self.params = params

    # -- communication phases (measured on a fresh DES each time) -----------
    def _staged_exchange_ns(self, record_bytes: int = ATOM_RECORD_BYTES) -> float:
        """One staged 6-message neighbour exchange (positions *or* forces).

        Simulated on a representative 3-stage pipeline: a node sends two
        messages per stage and cannot start stage *k+1* until its stage-
        *k* partners' data arrived (forwarding dependency).
        """
        w = self.workload
        sim = Simulator()
        # A 1-D ring of nodes suffices: stages are sequential and each
        # stage's exchange is with fixed partners; use 8 nodes so both
        # directions have distinct partners.
        net = ClusterNetwork(sim, 8, self.params)
        stage_atoms = w.stage_import_atoms()
        start = sim.now

        def node_program(rank: int) -> list:
            steps = []
            for stage, atoms in enumerate(stage_atoms):
                nbytes = int(atoms / 2 * record_bytes)  # per direction
                tag = f"st{stage}"
                # Pack both directions' buffers (local copy, Fig. 8b).
                steps.append(work_step(atoms * PACK_NS_PER_ATOM))
                for direction in (1, -1):
                    steps.append(send_step((rank + direction) % 8, nbytes, tag))
                steps.append(recv_step(tag, 2))
                # Unpack received slabs before the next stage can forward.
                steps.append(work_step(atoms * PACK_NS_PER_ATOM))
            return steps

        end = run_programs(sim, [(net.node(r), node_program(r)) for r in range(8)])
        return end - start

    def _fft_convolution_ns(self) -> float:
        """Forward + inverse distributed FFT communication.

        Four transpose stages; at 2 grid points per node each stage is
        an all-to-all within ``fft_group_size``-node groups, entirely
        dominated by per-message overhead.
        """
        w = self.workload
        sim = Simulator()
        g = w.fft_group_size
        net = ClusterNetwork(sim, g, self.params)
        bytes_per_msg = max(
            16, int(w.grid_points_per_node * 16 / g)
        )  # complex doubles, scattered
        start = sim.now

        def node_program(rank: int) -> list:
            steps = []
            for stage in range(4):
                tag = f"fft{stage}"
                steps += [send_step(peer, bytes_per_msg, tag)
                          for peer in range(g) if peer != rank]
                steps.append(recv_step(tag, g - 1))
                # Local 1-D FFT work between stages is part of compute.
            return steps

        end = run_programs(sim, [(net.node(r), node_program(r)) for r in range(g)])
        return end - start

    def _thermostat_ns(self) -> float:
        """Kinetic-energy all-reduce + scale distribution (two reduces)."""
        sim = Simulator()
        net = ClusterNetwork(sim, self.workload.num_nodes, self.params)
        mpi = MpiContext(net)
        t1 = mpi.allreduce_ns(nbytes=32)
        t2 = mpi.allreduce_ns(nbytes=32)
        return t1 + t2

    # -- compute phases -------------------------------------------------------
    def _range_limited_compute_ns(self) -> float:
        return self.workload.pairs_per_node * XEON_EFFECTIVE_NS_PER_PAIR

    def _long_range_compute_ns(self) -> float:
        return self.workload.grid_points_per_node * XEON_NS_PER_GRID_POINT

    # -- Table 3 rows ------------------------------------------------------------
    def range_limited_step(self) -> DesmondStepTiming:
        """A time step with range-limited interactions only."""
        comm = 2 * self._staged_exchange_ns()  # positions out, forces back
        total = comm + self._range_limited_compute_ns()
        return DesmondStepTiming("range_limited", comm, total)

    def long_range_step(self) -> DesmondStepTiming:
        """A step that also evaluates long-range forces + thermostat."""
        rl = self.range_limited_step()
        fft = self._fft_convolution_ns()
        thermo = self._thermostat_ns()
        comm = rl.communication_ns + fft + thermo
        total = (
            rl.total_ns
            + fft
            + self._long_range_compute_ns()
            + SPREAD_INTERP_COMPUTE_NS
            + thermo
            + THERMOSTAT_COMPUTE_NS
        )
        return DesmondStepTiming("long_range", comm, total)

    def fft_convolution(self) -> DesmondStepTiming:
        fft = self._fft_convolution_ns()
        return DesmondStepTiming(
            "fft_convolution", fft, fft + self._long_range_compute_ns()
        )

    def thermostat(self) -> DesmondStepTiming:
        t = self._thermostat_ns()
        return DesmondStepTiming("thermostat", t, t + THERMOSTAT_COMPUTE_NS)

    def average_step(self) -> DesmondStepTiming:
        """Average over the long-range interval (every other step here)."""
        rl = self.range_limited_step()
        lr = self.long_range_step()
        k = self.workload.long_range_interval
        comm = (rl.communication_ns * (k - 1) + lr.communication_ns) / k
        total = (rl.total_ns * (k - 1) + lr.total_ns) / k
        return DesmondStepTiming("average", comm, total)

    def table3(self) -> dict[str, DesmondStepTiming]:
        """All five Desmond rows of Table 3."""
        return {
            "average": self.average_step(),
            "range_limited": self.range_limited_step(),
            "long_range": self.long_range_step(),
            "fft_convolution": self.fft_convolution(),
            "thermostat": self.thermostat(),
        }
