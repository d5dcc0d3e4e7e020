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

The controller and the result streams run as continuations, as the
slices' legs do (:mod:`repro.asic.slice_`): the pipelines and the
output stage are FCFS booking slots occupied by :meth:`Resource.hold`,
and a controller with no runnable buffer parks until the write that
completes the head of its order, or a priority buffer, steps it again
in an event of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Optional

from repro.asic.client import NetworkClient
from repro.asic.sync_counter import SyncCounter
from repro.engine.resource import Resource
from repro.network.packet import Packet, PacketKind
from repro.topology.torus import NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.network import Network

# An alias: on CPython 3.11 a global reads in ~13 ns, PacketKind.X in ~157.
_ACCUM = PacketKind.ACCUM

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
        self.pipeline = Resource(sim, name=f"{self.name}.pipes")
        #: output packet-assembly stage
        self.sender = Resource(sim, name=f"{self.name}.send")
        self._buffers: dict[str, InteractionBuffer] = {}
        #: The controller parked until a buffer completes, if any.
        self._waiting: Optional[_Controller] = None

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
            controller = self._waiting
            if (buf.received == buf.expected_packets and controller is not None
                    and controller.waits_on(buf.name)):
                # The controller looks at its buffers in an event of its
                # own, behind every event already queued at this
                # instant: a priority buffer those complete still wins.
                self._waiting = None
                self.sim.schedule_now(_Controller.step, (controller,))
        else:
            super()._receive_write(packet)

    # -- buffer scheduling ------------------------------------------------------
    def consume_buffers(
        self,
        order: Iterable[str],
        work_ns: float,
        on_done: Callable[[InteractionBuffer], None],
        fn: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        """Consume every buffer through the pipelines, then run
        ``fn(*args)``.

        Non-priority buffers are processed in ``order``, which must
        cover every defined buffer exactly once; buffers marked
        ``priority`` jump the queue as soon as they are complete
        (§IV.B.1's high-priority mechanism).  Each buffer occupies the
        pipelines for ``work_ns``; ``on_done(buf)`` runs as it finishes,
        typically starting the force-result sends for that buffer.
        """
        order = list(order)
        missing = set(self._buffers) - set(order)
        extra = set(order) - set(self._buffers)
        if missing or extra:
            raise ValueError(
                f"processing order mismatch (missing={sorted(missing)}, "
                f"unknown={sorted(extra)})"
            )
        _Controller(self, order, work_ns, on_done, fn, args).step()

    # -- result sends -------------------------------------------------------------
    def send_results(
        self,
        dst_node: "NodeCoord | int",
        accum_name: str,
        packets: int,
        counter_id: str,
        payload_bytes: int,
        address: tuple = ("htis-result",),
        payloads: Optional[list] = None,
        fn: Optional[Callable[..., None]] = None,
        args: tuple[Any, ...] = (),
    ) -> None:
        """Stream ``packets`` accumulation packets to a target memory,
        then run ``fn(*args)`` (if given).

        Each packet holds the output stage for ``HTIS_SEND_NS`` and is
        injected in the event that ends its hold, so the stream is
        pipelined with any ongoing pipeline computation.  Packet ``i``
        is written at ``address + (i,)`` and carries ``payloads[i]``
        (``None`` without payloads).
        """
        self._next_result(_Stream(
            self.network.torus.coord(dst_node), accum_name, packets, counter_id,
            payload_bytes, address, payloads, fn, args), 0)

    def _next_result(self, stream: "_Stream", i: int) -> None:
        if i < stream.packets:
            self.sender.hold(HTIS_SEND_NS, HTIS._result_sent, (self, stream, i))
        elif stream.fn is not None:
            stream.fn(*stream.args)

    def _result_sent(self, stream: "_Stream", i: int) -> None:
        self.inject(Packet(
            self.node, self.name, stream.dst, stream.accum_name, _ACCUM,
            stream.payload_bytes,
            stream.payloads[i] if stream.payloads else None,
            stream.counter_id, stream.address + (i,),
        ))
        self._next_result(stream, i + 1)

    def pairs_duration_ns(self, num_pairs: float) -> float:
        """Pipeline occupancy for ``num_pairs`` pairwise interactions."""
        if num_pairs < 0:
            raise ValueError("num_pairs must be >= 0")
        return num_pairs / self.pairs_per_ns


class _Stream(NamedTuple):
    """One :meth:`HTIS.send_results` stream."""

    dst: NodeCoord
    accum_name: str
    packets: int
    counter_id: str
    payload_bytes: int
    address: tuple
    payloads: Optional[list]
    fn: Optional[Callable[..., None]]
    args: tuple


class _Controller:
    """The HTIS's embedded controller consuming its buffers, run as a
    leg rather than a process: each step picks the next runnable
    buffer and holds the pipelines for it.  With none runnable it parks
    in ``HTIS._waiting``, and the write that completes a buffer steps
    it again (:meth:`HTIS._receive_write`); one counter continuation
    slot could not wait on several buffers at once."""

    __slots__ = ("htis", "ordered", "priority", "work_ns", "on_done", "fn", "args")

    def __init__(self, htis: HTIS, order: list[str], work_ns: float,
                 on_done: Callable[[InteractionBuffer], None],
                 fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        bufs = htis._buffers
        self.htis, self.work_ns, self.on_done = htis, work_ns, on_done
        self.ordered = [n for n in order if not bufs[n].priority]
        self.priority = [n for n in order if bufs[n].priority]
        self.fn, self.args = fn, args

    def step(self) -> None:
        htis = self.htis
        bufs = htis._buffers
        ordered, priority = self.ordered, self.priority
        if not (ordered or priority):
            self.fn(*self.args)
            return
        # Priority buffers that are already complete win immediately.
        name = next((n for n in priority if bufs[n].complete), None)
        if name is not None:
            priority.remove(name)
        elif ordered and bufs[ordered[0]].complete:
            name = ordered.pop(0)
        else:
            htis._waiting = self
            return
        buf = bufs[name]
        htis.pipeline.hold(self.work_ns, _Controller._processed, (self, buf))

    def waits_on(self, name: str) -> bool:
        """Whether completing buffer ``name`` can make a step runnable:
        it heads the order or is a pending priority buffer."""
        return name in self.priority or (bool(self.ordered) and self.ordered[0] == name)

    def _processed(self, buf: InteractionBuffer) -> None:
        self.on_done(buf)
        self.step()

