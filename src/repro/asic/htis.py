"""The high-throughput interaction subsystem (HTIS) (§II, §IV.B.1, Fig. 9).

The HTIS contains specialised hardwired pipelines for pairwise
interactions; it computes the range-limited interactions and performs
charge spreading and force interpolation.  As a network client it

* receives multicast position (and grid-potential) packets into
  buffers organised by node of origin, each guarded by a
  synchronization counter with a fixed expected packet count;
* is processed under an embedded controller: buffers are consumed in a
  software-specified order, except that buffers placed in a
  *high-priority queue* are processed as soon as all of their packets
  have arrived (used for positions whose force results must travel the
  farthest, hiding those sends behind the remaining computation);
* streams result (force/charge) packets back into the network with its
  hardware packet-assembly support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.asic.client import NetworkClient
from repro.asic.sync_counter import SyncCounter
from repro.engine.event import Event
from repro.engine.resource import Resource
from repro.network.packet import AccumPacket, Packet, WritePacket
from repro.topology.torus import NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.network import Network

#: Hardware packet formation in the HTIS output stage; cheaper than the
#: slice's software-driven 36 ns because no core is involved.
HTIS_SEND_NS = 20.0

#: Pairwise-interaction throughput of one HTIS: 32 pairwise point
#: interaction pipelines at 800 MHz (Larson et al., HPCA 2008) ≈ 25.6
#: interactions per nanosecond.
HTIS_PAIRS_PER_NS = 25.6


@dataclass
class InteractionBuffer:
    """One origin-node buffer inside the HTIS, holding the
    synchronization counter that guards it (the HTIS's counter of the
    same name)."""

    name: str
    origin: NodeCoord
    expected_packets: int
    counter: SyncCounter = field(compare=False, repr=False)
    priority: bool = False
    received: int = 0
    processed: bool = False

    @property
    def complete(self) -> bool:
        return self.received >= self.expected_packets


class HTIS(NetworkClient):
    """High-throughput interaction subsystem of one node."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node: "NodeCoord | int",
        pairs_per_ns: float = HTIS_PAIRS_PER_NS,
    ) -> None:
        super().__init__(sim, network, node, "htis")
        self.pairs_per_ns = pairs_per_ns
        #: the array of pairwise pipelines, modelled as a single FCFS
        #: server whose service time encodes aggregate throughput
        self.pipeline = Resource(sim, capacity=1, name=f"{self.name}.pipes")
        #: output packet-assembly stage
        self.sender = Resource(sim, capacity=1, name=f"{self.name}.send")
        self._buffers: dict[str, InteractionBuffer] = {}

    # -- buffer management -----------------------------------------------
    def define_buffer(
        self,
        name: str,
        origin: "NodeCoord | int",
        expected_packets: int,
        priority: bool = False,
    ) -> InteractionBuffer:
        """Pre-allocate an origin buffer with a fixed expected count.

        The expected count is fixed per communication pattern and sized
        for worst-case temporal fluctuations in atom density (§IV.B.1).
        """
        if name in self._buffers:
            raise ValueError(f"HTIS buffer {name!r} already defined")
        if expected_packets < 1:
            raise ValueError("expected_packets must be >= 1")
        buf = InteractionBuffer(
            name=name,
            origin=self.network.torus.coord(origin),
            expected_packets=expected_packets,
            counter=self.counter(name),
            priority=priority,
        )
        self._buffers[name] = buf
        return buf

    def buffer(self, name: str) -> InteractionBuffer:
        return self._buffers[name]

    def buffers(self) -> list[InteractionBuffer]:
        return list(self._buffers.values())

    def reset_buffers(self) -> None:
        """Prepare all buffers for the next time step (counters reset)."""
        for buf in self._buffers.values():
            buf.received = 0
            buf.processed = False
            buf.counter.reset()

    # -- delivery ------------------------------------------------------------
    def _receive_write(self, packet: Packet) -> None:
        # Writes with a counter matching a defined buffer are organised
        # by origin; other writes (e.g. grid potentials addressed to a
        # plain memory buffer) fall back to the generic path.
        buf = self._buffers.get(packet.counter_id)  # type: ignore[arg-type]
        if buf is not None:
            buf.received += 1
            if packet.address is not None:
                self.memory.write(packet.address, packet.payload)
            buf.counter.increment()
        else:
            super()._receive_write(packet)

    # -- buffer scheduling ------------------------------------------------------
    def buffer_ready(self, name: str) -> Event:
        """Event firing when the named buffer's counter hits its target."""
        buf = self._buffers[name]
        return buf.counter.wait_for(buf.expected_packets)

    def process_buffers(
        self,
        order: Iterable[str],
        work_ns: Callable[[InteractionBuffer], float],
        on_done: Optional[Callable[[InteractionBuffer], None]] = None,
    ) -> Generator[Event, Any, list[str]]:
        """Consume buffers through the pipelines; ``yield from`` this.

        Non-priority buffers are processed in ``order``; buffers marked
        ``priority`` jump the queue as soon as they are complete
        (§IV.B.1's high-priority mechanism).  Returns the realised
        processing order.

        Parameters
        ----------
        order:
            Software-specified processing order (must cover every
            defined buffer exactly once).
        work_ns:
            Maps a buffer to its pipeline occupancy in ns.
        on_done:
            Called as each buffer finishes processing; typically starts
            the force-result sends for that buffer.
        """
        order = list(order)
        missing = set(self._buffers) - set(order)
        extra = set(order) - set(self._buffers)
        if missing or extra:
            raise ValueError(
                f"processing order mismatch (missing={sorted(missing)}, "
                f"unknown={sorted(extra)})"
            )
        pending_ordered = [n for n in order if not self._buffers[n].priority]
        pending_priority = [n for n in order if self._buffers[n].priority]
        realised: list[str] = []

        while pending_ordered or pending_priority:
            # Priority buffers that are already complete win immediately.
            ready_pri = [n for n in pending_priority if self._buffers[n].complete]
            if ready_pri:
                name = ready_pri[0]
                pending_priority.remove(name)
            elif pending_ordered and self._buffers[pending_ordered[0]].complete:
                name = pending_ordered.pop(0)
            else:
                # Nothing runnable: block until the head-of-order buffer
                # or any pending priority buffer completes.
                waits = [self.buffer_ready(n) for n in pending_priority]
                if pending_ordered:
                    waits.append(self.buffer_ready(pending_ordered[0]))
                yield self.sim.any_of(waits)
                continue
            buf = self._buffers[name]
            yield from self.pipeline.use(work_ns(buf))
            buf.processed = True
            realised.append(name)
            if on_done is not None:
                on_done(buf)
        return realised

    # -- result sends -------------------------------------------------------------
    def send_accum_results(
        self,
        dst_node: "NodeCoord | int",
        accum_name: str,
        packets: int,
        *,
        counter_id: str,
        payload_bytes: int,
        address_of: Optional[Callable[[int], Any]] = None,
        payload_of: Optional[Callable[[int], Any]] = None,
    ) -> Generator[Event, Any, None]:
        """Stream ``packets`` accumulation packets to a target memory.

        Each packet occupies the output stage for ``HTIS_SEND_NS``;
        the stream is pipelined with any ongoing pipeline computation.
        """
        dst = self.network.torus.coord(dst_node)
        for i in range(packets):
            yield from self.sender.use(HTIS_SEND_NS)
            self.inject(
                AccumPacket(
                    src_node=self.node,
                    src_client=self.name,
                    dst_node=dst,
                    dst_client=accum_name,
                    payload_bytes=payload_bytes,
                    payload=payload_of(i) if payload_of else None,
                    counter_id=counter_id,
                    address=address_of(i) if address_of else ("htis-result", i),
                )
            )

    def pairs_duration_ns(self, num_pairs: float) -> float:
        """Pipeline occupancy for ``num_pairs`` pairwise interactions."""
        if num_pairs < 0:
            raise ValueError("num_pairs must be >= 0")
        return num_pairs / self.pairs_per_ns
