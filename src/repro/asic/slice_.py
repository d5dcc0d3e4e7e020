"""Processing slices (§III).

A flexible subsystem contains four processing slices, each consisting
of one Tensilica core — used primarily for communication and
synchronization — and two geometry cores, which perform the bulk of the
numerical computation.  Each slice has hardware support for quickly
assembling packets and injecting them into the network, a local memory
that accepts remote writes, synchronization counters it can poll with
very low latency, and a hardware-managed message FIFO (§III.C).

Every FCFS unit on the chip (a slice's Tensilica and geometry cores,
the HTIS pipelines and output stage) is occupied through one
primitive, :func:`hold`: it acquires the unit FCFS, queueing behind a
busy unit as ``Resource.request`` does, and schedules one
plain-function event that releases the unit and runs the
continuation.  Concurrent send and poll activity on one slice thus
serialises on its Tensilica core, which is exactly why bidirectional
ping-pong runs slightly slower than unidirectional in Fig. 5.

The model's own code (the MD step, the all-reduce and migration legs)
runs on the continuation forms, as plain functions and args tuples
rather than as a process.  ``send_then`` holds the Tensilica for
packet assembly and injects a packet built by ``_packet``;
``poll_then`` and ``poll_accum_then`` continue from the counter's slot
(``SyncCounter.on_target``) into the hold of the successful poll, so
the poll starts inside the increment's own event; a leg that waits on
the message FIFO fills its slot instead (``MessageFifo.on_message``).
Nothing is kicked off or resumed.

The generator helpers (``send_write``, ``send_accum``, ``poll``,
``poll_accum``, ``read_accum_lines``, ``tensilica_work``) remain for
the code that still runs as engine processes: the latency, transfer
and attribution harnesses, the counted-write gather, the incast, the
ablation benchmarks, the examples and tests.  They share the packet
building and the flight hooks (``_packet``, ``_injected``,
``_polled``) with the continuation forms, so no send or poll logic is
written twice.  A resume through ``yield from`` pays once per
generator level, so the ``send_*`` helpers and ``tensilica_work`` are
plain functions returning the one generator doing the work, and
``_send`` and ``poll`` hold the Tensilica inline rather than through
``Resource.use``.  ``_send`` builds its packet, which takes a global
``packet_id``, when the caller first runs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

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
        #: The two geometry cores: FCFS compute servers, occupied by
        #: :func:`hold`.
        self.geometry = (
            Resource(sim, capacity=1, name=f"{self.name}.gc0"),
            Resource(sim, capacity=1, name=f"{self.name}.gc1"),
        )
        self.fifo = MessageFifo(capacity=fifo_capacity, name=self.name)

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
    ) -> Generator[Event, Any, None]:
        """The one send generator behind the ``send_*`` helpers.

        Builds the packet when first run (which is when it takes its
        ``packet_id``), holds the Tensilica for packet assembly, then
        injects.
        """
        packet = self._packet(
            kind, dst_node, dst_client, payload, payload_bytes,
            counter_id, address, in_order, pattern_id,
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
        self._injected(packet, begin)

    def _packet(
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
    ) -> Packet:
        """A packet from this slice; it takes the next ``packet_id``."""
        nbytes = payload_bytes if payload_bytes is not None else payload_bytes_of(payload)
        return Packet(
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

    def _injected(self, packet: Packet, begin: float) -> None:
        """Inject an assembled packet and record its software send over
        ``[begin, now]``."""
        self.inject(packet)
        fl = self.network.flight
        if fl.enabled:
            fl.software_send(packet, begin, self.sim.now)

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
    ) -> Generator[Event, Any, None]:
        """Send one (possibly multicast) counted remote write; the
        receivers learn of its arrival by polling their counter."""
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
    ) -> Generator[Event, Any, None]:
        """Send one accumulation packet (+= at the target address)."""
        return self._send(
            PacketKind.ACCUM, dst_node, accum_name, payload, payload_bytes,
            counter_id=counter_id, address=address, pattern_id=pattern_id,
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
        self._polled(counter_id, target, trigger)
        return sim.now

    def _polled(self, counter_id: str, target: int, trigger: float) -> None:
        """A successful poll that the counter's reaching ``target`` at
        ``trigger`` started has ended now: the post-poll flight hook."""
        fl = self.network.flight
        if fl.enabled:
            fl.poll_completed(
                self.node, self.name, counter_id, target, trigger, self.sim.now
            )

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

    def tensilica_work(self, duration_ns: float) -> Generator[Event, Any, None]:
        """Occupy the Tensilica core (bookkeeping, data marshalling):
        the core's own :meth:`Resource.use` generator."""
        return self.tensilica.use(duration_ns)

    # -- continuation forms ---------------------------------------------------
    def hold(
        self, duration_ns: float, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """Occupy the Tensilica core for ``duration_ns``, then run
        ``fn(*args)`` in the event that releases it (:func:`hold`)."""
        hold(self.tensilica, duration_ns, fn, args)

    def send_then(
        self, packet: Packet, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """The continuation form of the ``send_*`` helpers: hold the
        Tensilica for packet assembly, inject ``packet`` (built by
        :meth:`_packet`), then run ``fn(*args)`` in the same event."""
        self.hold(SLICE_SEND_NS, ProcessingSlice._sent,
                  (self, packet, self.sim.now, fn, args))

    def _sent(self, packet: Packet, begin: float,
              fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self._injected(packet, begin)
        fn(*args)

    def poll_then(
        self, counter_id: str, target: int,
        fn: Callable[..., None], args: tuple[Any, ...],
    ) -> None:
        """The continuation form of :meth:`poll`: once the local
        counter reaches ``target``, pay the successful poll on the
        Tensilica, then run ``fn(*args)``.  The poll starts inside the
        increment's own event (``SyncCounter.on_target``)."""
        self.counter(counter_id).on_target(
            target, ProcessingSlice._poll_hold,
            (self, counter_id, target, fn, args))

    def _poll_hold(self, counter_id: str, target: int,
                   fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.hold(POLL_SUCCESS_NS, ProcessingSlice._poll_done,
                  (self, counter_id, target, self.sim.now, fn, args))

    def poll_accum_then(
        self, accum: "NetworkClient", counter_id: str, target: int,
        fn: Callable[..., None], args: tuple[Any, ...],
    ) -> None:
        """The continuation form of :meth:`poll_accum`: once the
        accumulation-memory counter reaches ``target``, pay the
        across-the-ring poll on the Tensilica, then run ``fn(*args)``."""
        if accum.node != self.node:
            raise ValueError("accumulation counters are polled by slices on the same node")
        accum.counter(counter_id).on_target(
            target, hold, (self.tensilica, ACCUM_POLL_NS, fn, args))

    def _poll_done(self, counter_id: str, target: int, trigger: float,
                   fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self._polled(counter_id, target, trigger)
        fn(*args)


def hold(res: Resource, duration_ns: float, fn: Callable[..., None],
         args: tuple[Any, ...]) -> None:
    """Occupy the FCFS unit ``res`` for ``duration_ns``, then run
    ``fn(*args)`` in the event that releases it.

    The one hold of every FCFS unit on the chip: a slice's Tensilica
    core and geometry cores, the HTIS pipelines and output stage.  The
    unit is acquired FCFS: a busy unit queues the hold behind every
    earlier request, and its grant schedules the hold one event later,
    as a process resumed by ``Resource.request`` would schedule its
    timeout.
    """
    if res.try_acquire():
        res.sim.schedule(duration_ns, _end_hold, res, fn, args)
    else:
        res.request().add_callback(
            _QueuedHold(res, duration_ns, fn, args).granted)


def _end_hold(res: Resource, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
    """The event ending a :func:`hold`: release the unit, then
    continue."""
    res.release()
    fn(*args)


class _QueuedHold:
    """A hold queued behind a busy unit."""

    __slots__ = ("res", "duration_ns", "fn", "args")

    def __init__(self, res: Resource, duration_ns: float,
                 fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.res = res
        self.duration_ns = duration_ns
        self.fn = fn
        self.args = args

    def granted(self, _event: Event) -> None:
        self.res.sim.schedule(self.duration_ns, _end_hold,
                              self.res, self.fn, self.args)
