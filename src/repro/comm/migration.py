"""Atom migration (§IV.B.5).

Migration is stochastic: no node knows in advance how many atoms it
will send or receive, so counted remote writes do not apply directly.
Anton's protocol:

* migration messages go to the receiving slice's hardware message FIFO
  (pre-allocating buffers for all possible messages from all 26
  neighbours would be extremely wasteful);
* after sending all of its migration messages, each node multicasts a
  counted remote write to all 26 nearest neighbours, using the
  network's in-order mechanism so the flush cannot overtake migration
  messages in flight;
* a receiver is done once the flush counter has reached its neighbour
  count *and* the FIFO has been drained.

This is the one place in the MD dataflow where synchronization is not
embedded in the data communication itself; the paper measures the
flush synchronization at 0.56 µs.

As in :mod:`repro.comm.collectives`, no process runs a node's part:
its leg steps on Tensilica holds, on the flush counter's continuation
slot (``SyncCounter.on_target``) and on the FIFO's
(``MessageFifo.on_message``, run inside the push that lands a message).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro import instruments
from repro.asic.node import Machine
from repro.comm.collectives import _Run, run_phase
from repro.constants import (
    FIFO_POLL_NS,
    FIFO_PROCESS_NS,
    MIGRATION_SCAN_NS_PER_ATOM,
    POLL_SUCCESS_NS,
)
from repro.network.multicast import compile_pattern
from repro.network.packet import Packet, PacketKind
from repro.topology.torus import NodeCoord

#: Software cost to dequeue and process one FIFO message.
_FIFO_MSG_COST_NS = FIFO_POLL_NS + FIFO_PROCESS_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.asic.slice_ import ProcessingSlice

#: Bytes of one migrating atom record: position, velocity, identity and
#: bond bookkeeping (3×8 + 3×8 + 16).
ATOM_MIGRATION_BYTES = 64

#: Slice index that owns migration on every node.
MIGRATION_SLICE = 3

#: The flush counter every run reuses; each receiver resets it once
#: its neighbours' flushes have all arrived.
_FLUSH_CTR = "mig-flush"


@dataclass
class MigrationResult:
    """Outcome of one migration phase."""

    elapsed_ns: float
    messages_sent: int
    messages_received: int
    per_node_done_ns: dict[NodeCoord, float]
    received_payloads: dict[NodeCoord, list[Any]]
    fifo_high_watermark: int

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_ns / 1000.0


class MigrationProtocol:
    """Reusable migration phase for a whole machine."""

    def __init__(self, machine: Machine, slice_index: int = MIGRATION_SLICE) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.torus = machine.torus
        self._runs = 0
        client = f"slice{slice_index}"
        self._legs = []
        for coord in self.torus.nodes():
            neighbors = self.torus.moore_neighbors(coord)
            pattern = None
            if neighbors:
                pattern = machine.network.register_pattern(compile_pattern(
                    self.torus, coord, {n: [client] for n in neighbors}))
            self._legs.append(_MigrationLeg(
                coord, machine.node(coord).slices[slice_index], pattern,
                len(neighbors)))

    # ------------------------------------------------------------------
    def begin(
        self,
        moves: Optional[dict[NodeCoord, Sequence[tuple[NodeCoord, Any]]]] = None,
        scan_atoms: Optional[dict[NodeCoord, int]] = None,
    ) -> _Run:
        """Start one migration phase, each node's leg in one event at
        the current instant, and return the run they report into:
        ``done`` fires once both halves of every leg have ended, and
        ``final[c]`` holds node ``c``'s payloads in arrival order.

        ``scan_atoms`` maps each node to its resident atom count; the
        sending slice pays the per-atom migration-bookkeeping scan
        before its sends (§IV.B.5).
        """
        torus = self.torus
        moves = {torus.coord(k): list(v) for k, v in (moves or {}).items()}
        for src, records in moves.items():
            neighbors = set(torus.moore_neighbors(src))
            for dst, _ in records:
                if torus.coord(dst) not in neighbors:
                    raise ValueError(
                        f"migration from {src} to {dst} is not a nearest-"
                        "neighbour move; atoms migrate at most one home box"
                    )
        self._runs += 1
        scan_atoms = scan_atoms or {}
        sim = self.sim
        run = _Run(sim, 2 * len(self._legs))
        for leg in self._legs:
            sim.schedule_now(_MigrationLeg.start, (
                leg, run, moves.get(leg.coord, ()),
                scan_atoms.get(leg.coord, 0) * MIGRATION_SCAN_NS_PER_ATOM))
        return run

    def run(
        self,
        moves: Optional[dict[NodeCoord, Sequence[tuple[NodeCoord, Any]]]] = None,
        scan_atoms: Optional[dict[NodeCoord, int]] = None,
    ) -> MigrationResult:
        """Execute one migration phase.

        Parameters
        ----------
        moves:
            Maps each source node to its outgoing ``(destination,
            payload)`` records.  Destinations must be Moore neighbours
            of the source (atoms move at most one home box per
            migration on Anton).  ``None`` means an empty migration —
            which measures the pure synchronization cost.
        """
        run, elapsed = run_phase(
            self, "migration", f"migration#{self._runs + 1}",
            lambda: self.begin(moves, scan_atoms))
        sent = sum(len(v) for v in (moves or {}).values())
        got = sum(len(v) for v in run.final.values())
        if got != sent:  # pragma: no cover - protocol invariant
            raise AssertionError(f"migration lost messages: sent {sent}, received {got}")
        hw = max(leg.slice.fifo.high_watermark for leg in self._legs)
        reg = instruments.current().registry
        if reg is not None:
            reg.counter("comm.migration.messages").inc(sent)
            reg.gauge("comm.migration.fifo_high_watermark").set(hw)
        return MigrationResult(
            elapsed_ns=elapsed,
            messages_sent=sent,
            messages_received=got,
            per_node_done_ns=run.done_times,
            received_payloads=run.final,
            fifo_high_watermark=hw,
        )


class _MigrationLeg:
    """One node's part of a migration, stepped by continuations.

    The sender half scans the resident atoms, sends each leaving atom
    to its new home's FIFO, then the in-order flush to every neighbour.
    The receiver half pays one ``FIFO_POLL + FIFO_PROCESS`` hold per
    message that lands before the last flush; the flush poll starts
    once that hold, if any, has ended, and then it drains the ring, one
    hold per message.  Both halves hold the slice's one Tensilica core.
    """

    __slots__ = ("coord", "slice", "pattern", "flushes", "run", "records",
                 "received", "trigger")

    def __init__(self, coord: NodeCoord, slice_: "ProcessingSlice",
                 pattern: Optional[int], flushes: int) -> None:
        self.coord, self.slice, self.pattern, self.flushes = coord, slice_, pattern, flushes

    def start(self, run: _Run, records: Sequence[tuple[NodeCoord, Any]],
              scan_ns: float) -> None:
        self.run, self.records = run, records
        self.received = run.final[self.coord] = []
        self.trigger = None  # when the flush counter reached its target
        s = self.slice
        # Bounds-check every resident atom and update the expected-
        # packet bookkeeping for leavers (§IV.B.5).
        if scan_ns:
            s.hold(scan_ns, _MigrationLeg._send, (self, 0))
        else:
            self._send(0)
        s.fifo.on_message(_MigrationLeg._message, (self,))
        s.counter(_FLUSH_CTR).on_target(self.flushes, _MigrationLeg._flushed, (self,))

    # -- sender half -------------------------------------------------------
    def _send(self, i: int) -> None:
        s = self.slice
        if i < len(self.records):
            dst, payload = self.records[i]
            s.send_then(
                s.packet(PacketKind.FIFO, dst, s.name, payload,
                         ATOM_MIGRATION_BYTES, in_order=True),
                _MigrationLeg._send, (self, i + 1))
        elif self.pattern is not None:
            s.send_then(
                s.packet(PacketKind.WRITE, self.coord, s.name, None, 0,
                         _FLUSH_CTR, in_order=True, pattern_id=self.pattern),
                _Run.ended, (self.run,))
        else:
            self.run.ended()

    # -- receiver half -----------------------------------------------------
    def _message(self, packet: Packet) -> None:
        self.slice.hold(_FIFO_MSG_COST_NS, _MigrationLeg._processed, (self, packet))

    def _processed(self, packet: Packet) -> None:
        self.received.append(packet.payload)
        if self.trigger is None:
            self.slice.fifo.on_message(_MigrationLeg._message, (self,))
        else:
            self._poll()

    def _flushed(self) -> None:
        """Every neighbour's flush has arrived, so in-order delivery
        has put every message in the FIFO already."""
        self.trigger = self.slice.sim.now
        if self.slice.fifo.clear_slot():  # no message hold in progress
            self._poll()

    def _poll(self) -> None:
        self.slice.counter(_FLUSH_CTR).reset()
        self.slice.hold(POLL_SUCCESS_NS, _MigrationLeg._drain, (self, None))

    def _drain(self, packet: Optional[Packet]) -> None:
        """The hold for ``packet`` (``None``: the flush poll) has ended;
        process the next message in the ring, or end."""
        s = self.slice
        if packet is None:
            s._polled(_FLUSH_CTR, self.flushes, self.trigger)
        else:
            self.received.append(packet.payload)
        packet = s.fifo.try_poll()
        if packet is not None:
            s.hold(_FIFO_MSG_COST_NS, _MigrationLeg._drain, (self, packet))
            return
        self.run.done_times[self.coord] = s.sim.now
        self.run.ended()
