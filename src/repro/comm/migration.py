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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from repro import instruments
from repro.asic.node import Machine
from repro.comm.collectives import run_phase
from repro.constants import (
    FIFO_POLL_NS,
    FIFO_PROCESS_NS,
    MIGRATION_SCAN_NS_PER_ATOM,
    POLL_SUCCESS_NS,
)
from repro.engine.event import Event
from repro.network.multicast import compile_pattern
from repro.topology.torus import NodeCoord

#: Software cost to dequeue and process one FIFO message.
_FIFO_MSG_COST_NS = FIFO_POLL_NS + FIFO_PROCESS_NS
_POLL_NS = POLL_SUCCESS_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator

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
        self.slice_index = slice_index
        self.torus = machine.torus
        self._patterns: dict[NodeCoord, int] = {}
        self._neighbor_count: dict[NodeCoord, int] = {}
        self._runs = 0
        client = f"slice{slice_index}"
        for coord in self.torus.nodes():
            neighbors = self.torus.moore_neighbors(coord)
            self._neighbor_count[coord] = len(neighbors)
            if neighbors:
                tree = compile_pattern(
                    self.torus, coord, {n: [client] for n in neighbors}
                )
                self._patterns[coord] = machine.network.register_pattern(tree)

    # ------------------------------------------------------------------
    def start(
        self,
        moves: Optional[dict[NodeCoord, Sequence[tuple[NodeCoord, Any]]]] = None,
        scan_atoms: Optional[dict[NodeCoord, int]] = None,
    ) -> tuple[Event, dict[NodeCoord, float], dict[NodeCoord, list[Any]], dict]:
        """Spawn sender+receiver processes for one migration phase
        (for embedding in a larger simulation).

        ``scan_atoms`` maps each node to its resident atom count; the
        sending slice pays the per-atom migration-bookkeeping scan
        before its sends (§IV.B.5).

        Returns ``(all processes done, done_times, received, moves)``.
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
        done: dict[NodeCoord, float] = {}
        received: dict[NodeCoord, list[Any]] = {c: [] for c in torus.nodes()}
        scan_atoms = scan_atoms or {}
        procs = []
        for coord in torus.nodes():
            sender = self._sender(coord, moves.get(coord, []), scan_atoms.get(coord, 0))
            procs.append(self.sim.process(sender, name=f"mig-send@{coord}"))
            receiver = self._receiver(coord, done, received)
            procs.append(self.sim.process(receiver, name=f"mig-recv@{coord}"))
        return self.sim.all_of(procs), done, received, moves

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
        torus = self.torus
        start, _, done, received, moves = run_phase(
            self, "migration", f"migration#{self._runs + 1}",
            self.start, moves, scan_atoms)
        sent = sum(len(v) for v in moves.values())
        got = sum(len(v) for v in received.values())
        if got != sent:  # pragma: no cover - protocol invariant
            raise AssertionError(f"migration lost messages: sent {sent}, received {got}")
        hw = max(
            self.machine.node(c).slices[self.slice_index].fifo.high_watermark
            for c in torus.nodes()
        )
        elapsed = max(done.values()) - start
        reg = instruments.current().registry
        if reg is not None:
            reg.counter("comm.migration.runs").inc()
            reg.counter("comm.migration.messages").inc(sent)
            reg.histogram("comm.migration.elapsed_ns").observe(elapsed)
            reg.gauge("comm.migration.fifo_high_watermark").set(hw)
        return MigrationResult(
            elapsed_ns=elapsed,
            messages_sent=sent,
            messages_received=got,
            per_node_done_ns=done,
            received_payloads=received,
            fifo_high_watermark=hw,
        )

    # ------------------------------------------------------------------
    def _sender(
        self,
        coord: NodeCoord,
        records: list[tuple[NodeCoord, Any]],
        scan_atoms: int = 0,
    ) -> Generator[Event, Any, None]:
        node = self.machine.node(coord)
        s = node.slices[self.slice_index]
        client = s.name
        if scan_atoms:
            # Bounds-check every resident atom and update the expected-
            # packet bookkeeping for leavers (§IV.B.5).
            yield from s.tensilica_work(scan_atoms * MIGRATION_SCAN_NS_PER_ATOM)
        for dst, payload in records:
            yield from s.send_fifo_message(
                dst,
                client,
                payload=payload,
                payload_bytes=ATOM_MIGRATION_BYTES,
                in_order=True,
            )
        # Flush: multicast counted remote write to all 26 neighbours,
        # in-order so it cannot overtake the migration messages.
        pid = self._patterns.get(coord)
        if pid is not None:
            yield from s.send_write(
                coord,
                client,
                counter_id=_FLUSH_CTR,
                payload_bytes=0,
                in_order=True,
                pattern_id=pid,
            )

    def _receiver(
        self,
        coord: NodeCoord,
        done: dict[NodeCoord, float],
        received: dict[NodeCoord, list[Any]],
    ) -> Generator[Event, Any, None]:
        node = self.machine.node(coord)
        s = node.slices[self.slice_index]
        expected_flushes = self._neighbor_count[coord]
        flush_ctr = s.counter(_FLUSH_CTR)
        flush_ev = flush_ctr.wait_for(expected_flushes)
        while not flush_ev.triggered:
            poll_ev = s.fifo.poll()
            yield self.sim.any_of([poll_ev, flush_ev])
            if poll_ev.triggered:
                pkt = poll_ev.value
                yield from s.tensilica_work(_FIFO_MSG_COST_NS)
                received[coord].append(pkt.payload)
            else:
                s.fifo.cancel(poll_ev)
        flush_ctr.reset()
        # Flushes all arrived: in-order delivery guarantees every
        # migration message is already in the FIFO.  Pay the successful
        # counter poll, then drain.
        yield from s.tensilica.use(_POLL_NS)
        while True:
            pkt = s.fifo.try_poll()
            if pkt is None:
                break
            yield from s.tensilica_work(_FIFO_MSG_COST_NS)
            received[coord].append(pkt.payload)
        done[coord] = self.sim.now
