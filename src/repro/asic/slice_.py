"""Processing slices (§III).

A flexible subsystem contains four processing slices, each consisting
of one Tensilica core — used primarily for communication and
synchronization — and two geometry cores, which perform the bulk of the
numerical computation.  Each slice has hardware support for quickly
assembling packets and injecting them into the network, a local memory
that accepts remote writes, synchronization counters it can poll with
very low latency, and a hardware-managed message FIFO (§III.C).

The slice exposes *generator helpers* meant to be driven inside engine
processes: ``yield from slice.send_write(...)``, ``yield from
slice.poll(...)``, ``yield from slice.compute(...)``.  The Tensilica
core is a FCFS resource, so concurrent send and poll activity on one
slice serialises — which is exactly why bidirectional ping-pong runs
slightly slower than unidirectional in Fig. 5.

Each helper resumes one generator level below its caller: a resume
through ``yield from`` pays once per level, and these helpers run on
every send, poll and sum of every collective.  The three ``send_*``
helpers and ``tensilica_work``/``compute`` are plain functions that
return the one generator doing the work (``_send``, ``Resource.use``,
``GeometryCore.compute``); ``_send`` and ``poll`` hold the Tensilica
inline rather than through ``Resource.use``.  ``_send`` still builds
its packet, which takes a global ``packet_id``, when the caller first
runs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from repro.asic.client import NetworkClient
from repro.asic.fifo import MessageFifo
from repro.constants import (
    ACCUM_POLL_NS,
    ACCUM_READ_NS,
    POLL_SUCCESS_NS,
    SLICE_SEND_NS,
)
from repro.engine.event import Event
from repro.engine.resource import Resource
from repro.network.packet import Packet, PacketKind, payload_bytes_of
from repro.topology.torus import NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.network import Network


class GeometryCore:
    """One of the two numerical cores in a slice: a FCFS compute server."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.server = Resource(sim, capacity=1, name=name)
        self.busy_ns = 0.0

    def compute(self, duration_ns: float) -> Generator[Event, Any, None]:
        """Occupy this core for ``duration_ns``.  ``yield from`` this."""
        self.busy_ns += duration_ns
        yield from self.server.use(duration_ns)


class ProcessingSlice(NetworkClient):
    """One processing slice: Tensilica core + two geometry cores."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node: "NodeCoord | int",
        index: int,
        fifo_capacity: int = 64,
    ) -> None:
        if not 0 <= index <= 3:
            raise ValueError(f"slice index must be 0..3, got {index}")
        super().__init__(sim, network, node, f"slice{index}")
        self.index = index
        self.tensilica = Resource(sim, capacity=1, name=f"{self.name}.ts")
        self.geometry = (
            GeometryCore(sim, f"{self.name}.gc0"),
            GeometryCore(sim, f"{self.name}.gc1"),
        )
        self.fifo = MessageFifo(sim, capacity=fifo_capacity, name=self.name)

    # -- delivery ---------------------------------------------------------
    def _receive_fifo(self, packet: Packet) -> None:
        self.fifo.push(packet)

    # -- sending ------------------------------------------------------------
    def _send(
        self,
        kind: PacketKind,
        dst_node: "NodeCoord | int",
        dst_client: str,
        payload: Any,
        payload_bytes: Optional[int],
        counter_id: Optional[str] = None,
        address: Any = None,
        in_order: bool = False,
        pattern_id: Optional[int] = None,
    ) -> Generator[Event, Any, Event]:
        """The one send generator behind the ``send_*`` helpers.

        Builds the packet when first run (which is when it takes its
        ``packet_id``), holds the Tensilica for packet assembly, then
        injects.  Returns the network's delivery event.
        """
        nbytes = payload_bytes if payload_bytes is not None else payload_bytes_of(payload)
        packet = Packet(
            src_node=self.node,
            src_client=self.name,
            dst_node=self.network.torus.coord(dst_node),
            dst_client=dst_client,
            kind=kind,
            payload_bytes=nbytes,
            payload=payload,
            counter_id=counter_id,
            address=address,
            in_order=in_order,
            pattern_id=pattern_id,
        )
        sim = self.sim
        begin = sim.now
        ts = self.tensilica
        if not ts.try_acquire():
            yield ts.request()
        try:
            yield sim.timeout(SLICE_SEND_NS)
        finally:
            ts.release()
        done = self.inject(packet)
        fl = self.network.flight
        if fl.enabled:
            fl.software_send(packet, begin, sim.now)
        return done

    def send_write(
        self,
        dst_node: "NodeCoord | int",
        dst_client: str,
        *,
        counter_id: Optional[str] = None,
        address: Optional[tuple[str, int]] = None,
        payload: Any = None,
        payload_bytes: Optional[int] = None,
        in_order: bool = False,
        pattern_id: Optional[int] = None,
    ) -> Generator[Event, Any, Event]:
        """Send one (possibly multicast) counted remote write.

        Returns the network's delivery event so callers that care about
        completion can wait on it; counted-remote-write receivers
        normally just poll their counter instead.
        """
        return self._send(
            PacketKind.WRITE, dst_node, dst_client, payload, payload_bytes,
            counter_id=counter_id, address=address, in_order=in_order,
            pattern_id=pattern_id,
        )

    def send_accum(
        self,
        dst_node: "NodeCoord | int",
        accum_name: str,
        *,
        counter_id: str,
        address: Any,
        payload: Any = None,
        payload_bytes: Optional[int] = None,
        pattern_id: Optional[int] = None,
    ) -> Generator[Event, Any, Event]:
        """Send one accumulation packet (+= at the target address)."""
        return self._send(
            PacketKind.ACCUM, dst_node, accum_name, payload, payload_bytes,
            counter_id=counter_id, address=address, pattern_id=pattern_id,
        )

    def send_fifo_message(
        self,
        dst_node: "NodeCoord | int",
        dst_slice: str,
        *,
        payload: Any = None,
        payload_bytes: Optional[int] = None,
        in_order: bool = False,
    ) -> Generator[Event, Any, Event]:
        """Send an arbitrary message to a remote slice's hardware FIFO."""
        return self._send(
            PacketKind.FIFO, dst_node, dst_slice, payload, payload_bytes,
            in_order=in_order,
        )

    # -- polling ----------------------------------------------------------
    def poll(self, counter_id: str, target: int) -> Generator[Event, Any, float]:
        """Poll a *local* synchronization counter until ``target``.

        Models Anton's low-latency local poll: the slice blocks until
        the counter reaches the target, then pays the successful-poll
        cost (42 ns) on its Tensilica core.  Returns the simulated time
        at which the data became usable.
        """
        yield self.counter(counter_id).wait_for(target)
        sim = self.sim
        trigger = sim.now
        ts = self.tensilica
        if not ts.try_acquire():
            yield ts.request()
        try:
            yield sim.timeout(POLL_SUCCESS_NS)
        finally:
            ts.release()
        fl = self.network.flight
        if fl.enabled:
            fl.poll_completed(
                self.node, self.name, counter_id, target, trigger, sim.now
            )
        return sim.now

    def poll_accum(
        self, accum: "NetworkClient", counter_id: str, target: int
    ) -> Generator[Event, Any, float]:
        """Poll an accumulation-memory counter across the on-chip ring.

        Accumulation memories cannot poll their own counters; a slice
        on the same node polls them over the ring, at noticeably higher
        cost than a local poll (§III.B, §IV.B.4).
        """
        if accum.node != self.node:
            raise ValueError("accumulation counters are polled by slices on the same node")
        yield accum.counter(counter_id).wait_for(target)
        yield from self.tensilica.use(ACCUM_POLL_NS)
        return self.sim.now

    def read_accum_lines(self, num_lines: int) -> Generator[Event, Any, None]:
        """Read ``num_lines`` 32-byte lines from a local accumulation
        memory across the ring (post-poll data retrieval, Fig. 9)."""
        if num_lines < 0:
            raise ValueError("num_lines must be >= 0")
        if num_lines:
            yield from self.tensilica.use(num_lines * ACCUM_READ_NS)

    # -- compute -------------------------------------------------------------
    def compute(self, duration_ns: float, core: int = 0) -> Generator[Event, Any, None]:
        """Run numerical work on geometry core ``core`` for ``duration_ns``
        (that core's own :meth:`GeometryCore.compute` generator)."""
        return self.geometry[core].compute(duration_ns)

    def tensilica_work(self, duration_ns: float) -> Generator[Event, Any, None]:
        """Occupy the Tensilica core (bookkeeping, data marshalling):
        the core's own :meth:`Resource.use` generator."""
        return self.tensilica.use(duration_ns)
