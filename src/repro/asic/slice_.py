"""Processing slices (§III).

A flexible subsystem contains four processing slices, each consisting
of one Tensilica core — used primarily for communication and
synchronization — and two geometry cores, which perform the bulk of the
numerical computation.  Each slice has hardware support for quickly
assembling packets and injecting them into the network, a local memory
that accepts remote writes, synchronization counters it can poll with
very low latency, and a hardware-managed message FIFO (§III.C).

Every FCFS unit on the chip (a slice's Tensilica and geometry cores,
the HTIS pipelines and output stage) is a booking slot, occupied
through one primitive, :meth:`Resource.hold <repro.engine.Resource.hold>`:
it books the unit FCFS (granted at ``max(now, free_at)``) and schedules
the continuation itself, as its own event, at the hold's end.
Concurrent send and poll activity on one slice thus serialises on its
Tensilica core, which is exactly why bidirectional ping-pong runs
slightly slower than unidirectional in Fig. 5.

A slice's software runs on continuations, as on Anton, where a
counter reaching its target is what starts the next send: plain
functions and args tuples, never a process.  ``send_then`` holds the
Tensilica for packet assembly and injects a packet built by
:meth:`ProcessingSlice.packet`; ``poll_then`` and ``poll_accum_then``
continue from the counter's slot (``SyncCounter.on_target``) into the
hold of the successful poll, so the poll starts inside the increment's
own event; a leg that waits on the message FIFO fills its slot instead
(``MessageFifo.on_message``).  Nothing is kicked off or resumed.

The model's legs (the MD step, the all-reduce, the migration) chain
these forms themselves.  A fixed program, such as one side of a
ping-pong, an incast sender or an MD leg's list of sends, is a
:class:`Steps` list of sends, polls and Tensilica work, run one after
another; a send builds its packet, which takes a global ``packet_id``,
when its step starts.  A :class:`Join` counts legs down: it ends a
harness, where ``sim.run(until=join.done)`` returns the time its last
leg ended and a lost packet runs the simulation out of events instead,
and a collective's run.  :func:`run_programs` runs a set of programs
so.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.asic.client import NetworkClient
from repro.asic.fifo import MessageFifo
from repro.constants import ACCUM_POLL_NS, POLL_SUCCESS_NS, SLICE_SEND_NS
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
        self.tensilica = Resource(sim, name=f"{self.name}.ts")
        #: The two geometry cores: FCFS compute servers, occupied by
        #: :meth:`Resource.hold`.
        self.geometry = (
            Resource(sim, name=f"{self.name}.gc0"),
            Resource(sim, name=f"{self.name}.gc1"),
        )
        self.fifo = MessageFifo(capacity=fifo_capacity, name=self.name)

    # -- delivery ---------------------------------------------------------
    def _receive_fifo(self, packet: Packet) -> None:
        self.fifo.push(packet)

    # -- sending ------------------------------------------------------------
    def packet(
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
        """A packet from this slice; it takes the next ``packet_id``.
        ``payload_bytes=None`` sizes it from ``payload``."""
        nbytes = payload_bytes if payload_bytes is not None else payload_bytes_of(payload)
        # A step that holds a NodeCoord was resolved once, when it was
        # built; only a rank or tuple is resolved per send, through the
        # torus (which returns a NodeCoord as it is).
        if dst_node.__class__ is not NodeCoord:
            dst_node = self.network.torus.coord(dst_node)
        # Positional: on CPython 3.11 a keyword call makes the birth
        # cost 0.89 µs rather than 0.37.
        return Packet(self.node, self.name, dst_node,
                      dst_client, kind, nbytes, payload, counter_id, address,
                      in_order, pattern_id)

    def send_then(
        self, packet: Packet, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """Hold the Tensilica for packet assembly, inject ``packet``
        (built by :meth:`packet`), then run ``fn(*args)`` in the same
        event.  The flight recorder sees the software send over the
        hold."""
        self.tensilica.hold(SLICE_SEND_NS, ProcessingSlice._sent,
                            (self, packet, self.sim.now, fn, args))

    def _sent(self, packet: Packet, begin: float,
              fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.inject(packet)
        fl = self.network.flight
        if fl.enabled:
            fl.software_send(packet, begin, self.sim.now)
        fn(*args)

    # -- polling and work -------------------------------------------------
    def hold(
        self, duration_ns: float, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """Occupy the Tensilica core for ``duration_ns`` (bookkeeping,
        data marshalling, software sums), then run ``fn(*args)`` at the
        hold's end (:meth:`Resource.hold`)."""
        self.tensilica.hold(duration_ns, fn, args)

    def poll_then(
        self, counter_id: str, target: int,
        fn: Callable[..., None], args: tuple[Any, ...],
    ) -> None:
        """Poll a *local* synchronization counter until ``target``.

        Models Anton's low-latency local poll: once the counter reaches
        the target, the slice pays the successful-poll cost (42 ns) on
        its Tensilica core, then runs ``fn(*args)``; the data is usable
        from then on.  The poll starts inside the increment's own event
        (``SyncCounter.on_target``), or at once if the count is already
        there.
        """
        self.counter(counter_id).on_target(
            target, ProcessingSlice._poll_hold,
            (self, counter_id, target, fn, args))

    def _poll_hold(self, counter_id: str, target: int,
                   fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.tensilica.hold(POLL_SUCCESS_NS, ProcessingSlice._poll_done,
                            (self, counter_id, target, self.sim.now, fn, args))

    def _poll_done(self, counter_id: str, target: int, trigger: float,
                   fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self._polled(counter_id, target, trigger)
        fn(*args)

    def _polled(self, counter_id: str, target: int, trigger: float) -> None:
        """A successful poll that the counter's reaching ``target`` at
        ``trigger`` started has ended now: the post-poll flight hook."""
        fl = self.network.flight
        if fl.enabled:
            fl.poll_completed(
                self.node, self.name, counter_id, target, trigger, self.sim.now
            )

    def poll_accum_then(
        self, accum: "NetworkClient", counter_id: str, target: int,
        fn: Callable[..., None], args: tuple[Any, ...],
    ) -> None:
        """Poll an accumulation-memory counter across the on-chip ring,
        then run ``fn(*args)``.

        Accumulation memories cannot poll their own counters; a slice
        on the same node polls them over the ring, at noticeably higher
        cost than a local poll (§III.B, §IV.B.4).
        """
        if accum.node != self.node:
            raise ValueError("accumulation counters are polled by slices on the same node")
        accum.counter(counter_id).on_target(
            target, Resource.hold, (self.tensilica, ACCUM_POLL_NS, fn, args))


# ---------------------------------------------------------------------------
# Fixed programs
# ---------------------------------------------------------------------------

#: One step of a :class:`Steps` program: a continuation form of
#: :class:`ProcessingSlice` (or :func:`_send_step`), or of a cluster
#: node (:mod:`repro.baselines.cluster`), and its leading args.
Step = tuple[Callable[..., None], tuple[Any, ...]]


def _send_step(s: ProcessingSlice, packet_args: tuple,
               fn: Callable[..., None], args: tuple[Any, ...]) -> None:
    s.send_then(s.packet(*packet_args), fn, args)


def write_step(
    dst_node: "NodeCoord | int",
    dst_client: str,
    *,
    counter_id: Optional[str] = None,
    address: Optional[tuple[str, int]] = None,
    payload: Any = None,
    payload_bytes: Optional[int] = None,
    in_order: bool = False,
    pattern_id: Optional[int] = None,
) -> Step:
    """Send one (possibly multicast) counted remote write; the
    receivers learn of its arrival by polling their counter."""
    return (_send_step, ((PacketKind.WRITE, dst_node, dst_client, payload,
                          payload_bytes, counter_id, address, in_order,
                          pattern_id),))


def accum_step(
    dst_node: "NodeCoord | int",
    accum_name: str,
    *,
    counter_id: str,
    address: Any,
    payload: Any = None,
    payload_bytes: Optional[int] = None,
    pattern_id: Optional[int] = None,
) -> Step:
    """Send one accumulation packet (+= at the target address)."""
    return (_send_step, ((PacketKind.ACCUM, dst_node, accum_name, payload,
                          payload_bytes, counter_id, address, False,
                          pattern_id),))


def poll_step(counter_id: str, target: int) -> Step:
    """Poll a local counter until ``target`` (:meth:`ProcessingSlice.poll_then`)."""
    return (ProcessingSlice.poll_then, (counter_id, target))


def poll_accum_step(accum: NetworkClient, counter_id: str, target: int) -> Step:
    """Poll an accumulation-memory counter across the ring
    (:meth:`ProcessingSlice.poll_accum_then`)."""
    return (ProcessingSlice.poll_accum_then, (accum, counter_id, target))


def work_step(duration_ns: float) -> Step:
    """Occupy the Tensilica for ``duration_ns`` (:meth:`ProcessingSlice.hold`)."""
    return (ProcessingSlice.hold, (duration_ns,))


class Steps:
    """A slice's (or a cluster node's) fixed program, run step after
    step, then ``fn(*args)``.

    Each step continues with the program as its args, so a program
    allocates no process, generator or closure.  A step list may repeat
    one step: a send builds a fresh packet each time it starts.
    """

    __slots__ = ("s", "steps", "fn", "args", "i")

    def __init__(self, s: Any, steps: Sequence[Step],
                 fn: Optional[Callable[..., None]] = None,
                 args: tuple[Any, ...] = ()) -> None:
        self.s, self.steps, self.fn, self.args, self.i = s, steps, fn, args, 0

    def start(self) -> None:
        """Start the next step (the first, on a new program); after the
        last, run ``fn(*args)``."""
        i = self.i
        if i == len(self.steps):
            if self.fn is not None:
                self.fn(*self.args)
            return
        self.i = i + 1
        form, step_args = self.steps[i]
        form(self.s, *step_args, Steps.start, (self,))


class Join:
    """The end of a harness's legs: :attr:`done` fires, with the time,
    inside the continuation that ends the last of ``legs`` legs, so
    ``sim.run(until=join.done)`` returns that time."""

    __slots__ = ("sim", "remaining", "done")

    def __init__(self, sim: "Simulator", legs: int) -> None:
        self.sim = sim
        self.remaining = legs
        self.done = Event()

    def ended(self) -> None:
        """One leg has ended."""
        self.remaining -= 1
        if not self.remaining:
            self.done.succeed(self.sim.now)


def run_programs(sim: "Simulator",
                 programs: Sequence[tuple[Any, Sequence[Step]]]) -> float:
    """Start each ``(slice, steps)`` program, in order, and run until
    every one has ended; return the time the last one ended."""
    join = Join(sim, len(programs))
    for s, steps in programs:
        Steps(s, steps, join.ended).start()
    return sim.run(until=join.done)
