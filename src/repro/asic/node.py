"""One Anton node (ASIC) and whole-machine construction (Fig. 1).

Each ASIC constitutes an Anton node: four processing slices (the
flexible subsystem), one HTIS, and two accumulation memories, all
hanging off the on-chip ring with connections to the six inter-node
torus links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro import instruments
from repro.asic.accumulation import AccumulationMemory
from repro.asic.htis import HTIS
from repro.asic.slice_ import ProcessingSlice
from repro.topology.torus import NodeCoord, Torus3D

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.network import Network

NUM_SLICES = 4
NUM_ACCUM = 2


class AntonNode:
    """All clients of one ASIC, bundled."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        coord: "NodeCoord | int",
        fifo_capacity: int = 64,
        htis_pairs_per_ns: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.coord = network.torus.coord(coord)
        self.slices = tuple(
            ProcessingSlice(sim, network, self.coord, i, fifo_capacity=fifo_capacity)
            for i in range(NUM_SLICES)
        )
        htis_kwargs = {}
        if htis_pairs_per_ns is not None:
            htis_kwargs["pairs_per_ns"] = htis_pairs_per_ns
        self.htis = HTIS(sim, network, self.coord, **htis_kwargs)
        self.accum = tuple(
            AccumulationMemory(sim, network, self.coord, i) for i in range(NUM_ACCUM)
        )

    @property
    def rank(self) -> int:
        return self.network.torus.rank(self.coord)

    def slice(self, index: int) -> ProcessingSlice:
        return self.slices[index]

    def clients(self):
        """All seven network clients of this node."""
        return (*self.slices, self.htis, *self.accum)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AntonNode {self.coord}>"


class Machine:
    """A complete simulated Anton machine: torus + network + nodes."""

    def __init__(
        self,
        sim: "Simulator",
        torus: Torus3D,
        network: "Network",
        nodes: dict[NodeCoord, AntonNode],
    ) -> None:
        self.sim = sim
        self.torus = torus
        self.network = network
        self.nodes = nodes

    def node(self, coord: "NodeCoord | int") -> AntonNode:
        return self.nodes[self.torus.coord(coord)]

    def __iter__(self) -> Iterator[AntonNode]:
        return map(self.nodes.__getitem__, self.torus.nodes())

    def __len__(self) -> int:
        return len(self.nodes)


def build_machine(
    sim: "Simulator",
    nx: int,
    ny: int,
    nz: int,
    *,
    reorder_jitter_ns: float = 0.0,
    fifo_capacity: int = 64,
    htis_pairs_per_ns: Optional[float] = None,
    seed: int = 0,
) -> Machine:
    """Construct an ``nx × ny × nz`` Anton machine.

    Returns a :class:`Machine` with every node's clients attached to a
    fresh :class:`~repro.network.network.Network`.
    """
    from repro.network.network import Network  # local import: avoid cycle

    torus = Torus3D(nx, ny, nz)
    network = Network(sim, torus, reorder_jitter_ns=reorder_jitter_ns, seed=seed)
    nodes = {
        coord: AntonNode(
            sim,
            network,
            coord,
            fifo_capacity=fifo_capacity,
            htis_pairs_per_ns=htis_pairs_per_ns,
        )
        for coord in torus.nodes()
    }
    machine = Machine(sim, torus, network, nodes)
    # Machines built inside a `use_monitoring` block get a health
    # monitor attached without parameter threading.
    session = instruments.current().monitor
    if session is not None:
        session.attach(sim, machine)
    return machine
