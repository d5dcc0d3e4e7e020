"""The MD ⇄ machine co-simulation: Fig. 2's dataflow on the model (§IV).

:class:`AntonMD` establishes, before the first step, every fixed
communication pattern of the MD dataflow (§IV.A), then executes time
steps on the simulated machine:

* **positions** — each node's slices multicast home-box atom positions
  to every HTIS in the import region (one atom per packet, fixed
  padded packet counts, §IV.B.1) and unicast them to bonded-term nodes
  (one atom per packet, §IV.B.2);
* **range-limited forces** — the HTIS consumes origin buffers (high-
  priority queue first) and streams partial-force accumulation packets
  back to the home nodes' accumulation memories;
* **bonded forces** — geometry cores evaluate the node's assigned
  terms once their positions arrive, returning forces to the home
  accumulation memories;
* **long-range forces** (every other step) — charge spreading on the
  HTIS, the six-transfer distributed dimension-ordered FFT convolution
  (§IV.B.3), potentials back to the HTIS, force interpolation;
* **integration** — slices poll the force counters, geometry cores
  update positions and velocities;
* **thermostat** (with the long-range step) — the dimension-ordered
  global all-reduce of §IV.B.4;
* **migration** (every N steps) — the FIFO + in-order-flush protocol
  of §IV.B.5.

Two fidelity modes:

``payload_mode=True``
    Packets carry real numbers; distributed forces/energies are
    checked against the serial reference (tests use small machines).
``payload_mode=False``
    Packets carry counts only — same packet counts, same timing —
    used for the 512-node Table 3 / Fig. 11-13 benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import instruments
from repro.asic.node import build_machine
from repro.comm.collectives import AllReduce
from repro.comm.migration import MigrationProtocol
from repro.constants import LONG_RANGE_INTERVAL
from repro.engine.simulator import Simulator
from repro.md.calibration import DEFAULT_CALIBRATION, AntonCalibration
from repro.md.decomposition import Decomposition
from repro.md.bondprogram import BondProgram
from repro.md.fft import DistributedFFTPlan
from repro.md.forcefield import ForceField
from repro.md.system import ChemicalSystem
from repro.network.multicast import compile_pattern
from repro.topology.torus import NodeCoord
from repro.trace.recorder import ActivityKind, ActivityRecorder


@dataclass
class StepReport:
    """Timing and accounting of one simulated time step."""

    kind: str  # "range_limited" | "long_range"
    total_ns: float
    phase_spans: dict[str, tuple[float, float]]
    packets_injected: int
    packets_delivered: int

    @property
    def total_us(self) -> float:
        return self.total_ns / 1000.0

    def phase_ns(self, name: str) -> float:
        s, e = self.phase_spans[name]
        return e - s


class AntonMD:
    """One chemical system mapped onto one simulated Anton machine."""

    # Synchronization counter ids, fixed for the machine's lifetime
    # (§IV.A): every step counts on the same counters, and the phase
    # that consumes one resets it right after its successful poll.
    _bond_ctr = "bondpos"
    _force_ctr = "forces"
    _spread_ctr = "charges"
    _potential_ctr = "potentials"

    def __init__(
        self,
        system: ChemicalSystem,
        shape: tuple[int, int, int],
        ff: Optional[ForceField] = None,
        grid: Optional[int] = None,
        calibration: AntonCalibration = DEFAULT_CALIBRATION,
        payload_mode: bool = False,
        slack: float = 0.0,
        import_volume_threshold: Optional[float] = None,
        thermostat: bool = True,
        long_range_interval: int = LONG_RANGE_INTERVAL,
        migration_interval: int = 1,
        recorder: Optional[ActivityRecorder] = None,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.ff = ff or ForceField()
        self.cal = calibration
        self.payload_mode = payload_mode
        self.thermostat = thermostat
        self.long_range_interval = long_range_interval
        self.migration_interval = migration_interval

        self.sim = Simulator()
        self.machine = build_machine(
            self.sim, *shape, htis_pairs_per_ns=calibration.htis_pairs_per_ns, seed=seed
        )
        self.torus = self.machine.torus
        self.recorder = recorder or ActivityRecorder(self.sim)
        # Activity unit labels, formatted once per node so that a
        # recorded span builds no string.
        nodes = list(self.torus.nodes())
        self._ts_units = {n: tuple(f"{n}:ts{k}" for k in range(4)) for n in nodes}
        self._gc_unit = {n: f"{n}:gc" for n in nodes}
        self._htis_unit = {n: f"{n}:htis" for n in nodes}

        if import_volume_threshold is None:
            # Payload mode needs the exact (corner-inclusive) import
            # region for pair-assignment correctness; timing mode uses
            # Anton's clipped region (§IV.B.1's "as many as 17").
            import_volume_threshold = 0.0 if payload_mode else 0.4
        self.decomp = Decomposition(
            system,
            self.torus,
            import_radius=self.ff.cutoff / 2.0,
            slack=slack,
            import_volume_threshold=import_volume_threshold,
        )
        self.bond_program = BondProgram(system, self.decomp)
        self.fft_plan = DistributedFFTPlan(self.torus, grid) if grid else None
        self.allreduce = AllReduce(self.machine, payload_bytes=32, share_locally=False)
        #: The step whose thermostat reduction has started, and its run.
        self._reduce_step: Optional[int] = None
        self._reduce_run = None
        self.migration = MigrationProtocol(self.machine)

        self.step_index = 0
        self._generation_tag = 0
        self._mean_pairs_per_node: Optional[float] = None
        self._setup_import_patterns()
        self._setup_bond_patterns()
        if self.fft_plan is not None:
            self._setup_grid_patterns()

    # ==================================================================
    # fixed pattern establishment (§IV.A)
    # ==================================================================
    @property
    def fixed_atoms_per_node(self) -> int:
        """Padded per-node atom packet count (worst-case density)."""
        mean = self.system.num_atoms / self.torus.num_nodes
        return max(1, math.ceil(self.cal.density_pad * mean))

    def _setup_import_patterns(self) -> None:
        torus = self.torus
        self.import_sets: dict[NodeCoord, list[NodeCoord]] = {}
        self.pos_pattern: dict[NodeCoord, int] = {}
        for n in torus.nodes():
            self.import_sets[n] = self.decomp.import_nodes(n)
        for n in torus.nodes():
            dests = {m: ["htis"] for m in self.import_sets[n]}
            tree = compile_pattern(torus, n, dests)
            self.pos_pattern[n] = self.machine.network.register_pattern(tree)
        # HTIS origin buffers: at node m, one buffer per origin n with
        # m in n's import set; priority for the origins farthest away
        # (their force results travel the longest, §IV.B.1).
        fixed = self.fixed_atoms_per_node
        for m in torus.nodes():
            origins = [n for n in torus.nodes() if m in self.import_sets[n]]
            if not origins:
                continue
            max_hops = max(torus.hops(m, n) for n in origins)
            htis = self.machine.node(m).htis
            for n in origins:
                htis.define_buffer(
                    self._pos_buf(n),
                    n,
                    expected_packets=fixed,
                    priority=(torus.hops(m, n) == max_hops and max_hops > 0),
                )
        self._htis_origins = {
            m: [n for n in torus.nodes() if m in self.import_sets[n]]
            for m in torus.nodes()
        }

    def _setup_bond_patterns(self) -> None:
        """(Re-)establish bond receive buffers and expected counts.

        Called at construction and after every bond-program
        regeneration: receive buffers get a fresh generation-suffixed
        name (pre-allocated memory is never re-addressed, §IV.A).
        """
        self._generation_tag = self.bond_program.generation
        torus = self.torus
        system = self.system
        # (atom, term-node) incoming pairs per node — the fixed count.
        incoming: dict[NodeCoord, list[tuple[int, int]]] = {c: [] for c in torus.nodes()}
        seen: set[tuple[int, NodeCoord]] = set()
        self._atom_term_nodes: dict[int, list[NodeCoord]] = {}
        for t in range(self.bond_program.num_terms):
            dst = self.bond_program.node_of_term(t)
            for atom in self.bond_program.term_atoms(t):
                if (atom, dst) in seen:
                    continue
                seen.add((atom, dst))
                incoming[dst].append((atom, t))
                self._atom_term_nodes.setdefault(atom, []).append(dst)
        self._bond_incoming = {c: len(v) for c, v in incoming.items()}
        buf = self._bond_buf()
        for c in torus.nodes():
            n_slots = max(1, self._bond_incoming[c])
            self.machine.node(c).slices[1].memory.allocate(buf, n_slots)
        # Per-atom slot assignment at each destination (pre-agreed
        # addresses: the sender computes the slot with no coordination).
        self._bond_slot: dict[tuple[int, NodeCoord], int] = {}
        for c, pairs in incoming.items():
            atoms = sorted({a for a, _ in pairs})
            for slot, atom in enumerate(atoms):
                self._bond_slot[(atom, c)] = slot
        # The incoming count is per distinct atom (one packet each).
        self._bond_incoming = {
            c: len({a for a, _ in pairs}) for c, pairs in incoming.items()
        }

    def _setup_grid_patterns(self) -> None:
        """Charge-spread and potential-return counts (fixed: grid
        points do not migrate, §IV.B.1)."""
        plan = self.fft_plan
        torus = self.torus
        g = plan.grid
        h = self.system.box_edge / g
        solver_width = 4  # spread support per side (matches LongRangeSolver)
        reach = (solver_width / 2.0) * h
        w = self.decomp.box_widths
        counts: dict[tuple[NodeCoord, NodeCoord], int] = {}
        shape = torus.shape
        for px in range(g):
            for py in range(g):
                for pz in range(g):
                    owner = plan.block_owner(px, py, pz)
                    pos = (np.array([px, py, pz]) + 0.5) * h
                    lo = np.floor((pos - reach) / w).astype(int)
                    hi = np.floor((pos + reach) / w).astype(int)
                    for bx in range(lo[0], hi[0] + 1):
                        for by in range(lo[1], hi[1] + 1):
                            for bz in range(lo[2], hi[2] + 1):
                                src = torus.wrap(NodeCoord(bx, by, bz))
                                key = (src, owner)
                                counts[key] = counts.get(key, 0) + 1
        self._spread_counts = counts
        ppp = self.cal.grid_points_per_packet()
        self._spread_packets: dict[NodeCoord, list[tuple[NodeCoord, int]]] = {}
        self._spread_expected: dict[NodeCoord, int] = {}
        self._potential_packets: dict[NodeCoord, list[tuple[NodeCoord, int]]] = {}
        self._potential_expected: dict[NodeCoord, int] = {}
        for (src, dst), pts in sorted(
            counts.items(), key=lambda kv: (torus.rank(kv[0][0]), torus.rank(kv[0][1]))
        ):
            pk = math.ceil(pts / ppp)
            self._spread_packets.setdefault(src, []).append((dst, pk))
            self._spread_expected[dst] = self._spread_expected.get(dst, 0) + pk
            # Potentials flow back along the transposed pattern.
            self._potential_packets.setdefault(dst, []).append((src, pk))
            self._potential_expected[src] = self._potential_expected.get(src, 0) + pk
        # FFT inter-stage transfers.
        self._fft_sends = {
            (a, b): plan.stage_send_lists(a, b)
            for a, b in zip(plan.STAGES[:-1], plan.STAGES[1:])
        }
        self._fft_recv = {
            (a, b): plan.stage_recv_counts(a, b)
            for a, b in zip(plan.STAGES[:-1], plan.STAGES[1:])
        }
        self._fft_ctr = {(a, b): f"fft-{a}-{b}" for a, b in self._fft_sends}

    # -- name helpers ---------------------------------------------------------
    def _pos_buf(self, origin: NodeCoord) -> str:
        return f"pos-{self.torus.rank(origin)}"

    def _bond_buf(self) -> str:
        return f"bondpos-g{self._generation_tag}"

    # ==================================================================
    # derived workload statistics
    # ==================================================================
    def mean_pairs_per_node(self) -> float:
        """Range-limited pairs per node (analytic density estimate,
        cached; the timing model's HTIS occupancy driver)."""
        if self._mean_pairs_per_node is None:
            density = self.system.density
            shell = (4.0 / 3.0) * math.pi * self.ff.cutoff ** 3
            total_pairs = self.system.num_atoms * density * shell / 2.0
            self._mean_pairs_per_node = total_pairs / self.torus.num_nodes
        return self._mean_pairs_per_node

    def _bond_return_counts(self) -> dict[NodeCoord, int]:
        """Packed bond-force packets each home node expects this step.

        A term node returns, per home node, the forces of that home's
        atoms it touches, packed ``force_atoms_per_packet`` per packet;
        the count is recomputed after migrations and regenerations (the
        "additional bookkeeping" of §IV.B.5).
        """
        if getattr(self, "_bond_counts_step", None) == self.step_index:
            return self._bond_counts_cache
        fpp = self.cal.force_atoms_per_packet()
        atoms_by_pair: dict[tuple[NodeCoord, NodeCoord], set[int]] = {}
        for t in range(self.bond_program.num_terms):
            tn = self.bond_program.node_of_term(t)
            for atom in self.bond_program.term_atoms(t):
                home = self.decomp.node_of_atom(atom)
                atoms_by_pair.setdefault((tn, home), set()).add(atom)
        counts: dict[NodeCoord, int] = {}
        for (tn, home), atoms in atoms_by_pair.items():
            counts[home] = counts.get(home, 0) + math.ceil(len(atoms) / fpp)
        self._bond_counts_cache = counts
        self._bond_counts_step = self.step_index
        return counts

    def expected_force_packets(self, node: NodeCoord) -> int:
        """Force accumulation packets node's accum0 expects this step."""
        fpp = self.cal.force_atoms_per_packet()
        htis_part = len(self.import_sets[node]) * math.ceil(
            self.fixed_atoms_per_node / fpp
        )
        bond_part = self._bond_return_counts().get(node, 0)
        return htis_part + bond_part

    def expected_lr_force_packets(self, node: NodeCoord) -> int:
        """Long-range force packets (local HTIS interpolation return)."""
        fpp = self.cal.force_atoms_per_packet()
        return math.ceil(self.fixed_atoms_per_node / fpp)

    # ==================================================================
    # step execution
    # ==================================================================
    def step_kind(self, index: Optional[int] = None) -> str:
        """Kind of the upcoming step (1-based; long-range every
        ``long_range_interval``-th step, so step 1 is range-limited
        with the default interval of 2 — the Fig. 13 layout)."""
        i = (self.step_index if index is None else index) + 1
        if self.fft_plan is not None and i % self.long_range_interval == 0:
            return "long_range"
        return "range_limited"

    def run_step(self, kind: Optional[str] = None) -> StepReport:
        """Simulate one MD time step on the machine."""
        if kind is None:
            kind = self.step_kind()
        if kind == "long_range" and self.fft_plan is None:
            raise ValueError("long-range step requested but no FFT grid configured")
        self.step_index += 1
        start = self.sim.now
        self._phase_marks: dict[str, list[float]] = {}
        for m in self.torus.nodes():
            self.machine.node(m).htis.reset_buffers()
        pkts0 = self.machine.network.packets_injected
        dlv0 = self.machine.network.packets_delivered
        prof = instruments.current().profiler
        if prof is not None:
            prof.phase_begin(f"step:{kind}")
        try:
            procs = []
            for n in self.torus.nodes():
                procs.extend(self._spawn_node_step(n, kind))
            self.sim.run(until=self.sim.all_of(procs))
            end = self.sim.now
            if (
                self.migration_interval
                and self.step_index % self.migration_interval == 0
            ):
                self._run_migration()
                end = self.sim.now
        finally:
            if prof is not None:
                prof.phase_end(f"step:{kind}")
        spans = {
            name: (min(marks), max(marks))
            for name, marks in self._phase_marks.items()
        }
        return StepReport(
            kind=kind,
            total_ns=end - start,
            phase_spans=spans,
            packets_injected=self.machine.network.packets_injected - pkts0,
            packets_delivered=self.machine.network.packets_delivered - dlv0,
        )

    def _mark(self, phase: str) -> None:
        self._phase_marks.setdefault(phase, []).append(self.sim.now)

    # ------------------------------------------------------------------
    def regenerate_bond_program(self) -> None:
        """Install a fresh bond program (§IV.B.2, Fig. 11).

        Terms are reassigned from the atoms' *current* positions and
        the receive-side buffers/counts are re-established under a new
        generation tag (old buffers stay allocated — addresses are
        never reused).
        """
        self.bond_program.regenerate()
        self._setup_bond_patterns()

    # ------------------------------------------------------------------
    def run_bond_phase_only(self) -> float:
        """Simulate just the bonded-force communication round.

        Used by the Fig. 11 harness: between bond-program
        regenerations only the bond phase's cost changes (position
        sends to term nodes, term-node waits, force returns), so epoch
        sampling re-simulates this phase alone and reuses the rest of
        the step.  Returns the phase's duration in ns.
        """
        self.step_index += 1
        start = self.sim.now
        self._phase_marks = {}
        done: dict[NodeCoord, float] = {}
        procs = []
        for n in self.torus.nodes():
            procs.append(
                self.sim.process(self._bond_pos_sender(n), name=f"bpos@{n}")
            )
            procs.append(self.sim.process(self._bond_phase(n), name=f"bond@{n}"))
            procs.append(
                self.sim.process(self._bond_force_wait(n, done), name=f"bwait@{n}")
            )
        self.sim.run(until=self.sim.all_of(procs))
        return self.sim.now - start

    def _bond_pos_sender(self, n: NodeCoord):
        atoms = self.decomp.atoms_of(n)
        node = self.machine.node(n)
        pos_bytes = self.cal.position_bytes
        subprocs = []

        def slice_sender(k, my_atoms):
            s = node.slices[k]
            for atom in my_atoms:
                for dst in self._atom_term_nodes.get(atom, []):
                    slot = self._bond_slot[(atom, dst)]
                    yield from s.send_write(
                        dst, "slice1", counter_id=self._bond_ctr,
                        address=(self._bond_buf(), slot),
                        payload_bytes=pos_bytes,
                    )

        for k in range(4):
            my = [int(a) for a in atoms[k::4]]
            if my:
                subprocs.append(self.sim.process(slice_sender(k, my)))
        if subprocs:
            yield self.sim.all_of(subprocs)

    def _bond_force_wait(self, n: NodeCoord, done: dict):
        node = self.machine.node(n)
        s2 = node.slices[2]
        expected = self._bond_return_counts().get(n, 0)
        if expected:
            yield from s2.poll_accum(node.accum[0], self._force_ctr, expected)
            node.accum[0].counter(self._force_ctr).reset()
        done[n] = self.sim.now
        node.accum[0].clear()

    # ------------------------------------------------------------------
    def _spawn_node_step(self, n: NodeCoord, kind: str) -> list:
        procs = [
            self.sim.process(self._position_phase(n), name=f"pos@{n}"),
            self.sim.process(self._htis_phase(n, kind), name=f"htis@{n}"),
            self.sim.process(self._bond_phase(n), name=f"bond@{n}"),
            self.sim.process(self._integrate_phase(n, kind), name=f"integ@{n}"),
        ]
        if kind == "long_range":
            procs.append(self.sim.process(self._fft_phase(n), name=f"fft@{n}"))
        return procs

    # -- phase: position sends ---------------------------------------------
    def _position_phase(self, n: NodeCoord):
        """Slices multicast positions to the HTIS import set and unicast
        them to bonded-term nodes; padded to the fixed packet count."""
        self._mark("positions")
        node = self.machine.node(n)
        atoms = self.decomp.atoms_of(n)
        fixed = self.fixed_atoms_per_node
        if len(atoms) > fixed:
            raise RuntimeError(
                f"node {n} holds {len(atoms)} atoms > fixed packet count "
                f"{fixed}; raise AntonCalibration.density_pad"
            )
        subprocs = []
        for k in range(4):
            my_atoms = [int(a) for a in atoms[k::4]]
            pad = (fixed // 4 + (1 if k < fixed % 4 else 0)) - len(my_atoms)
            subprocs.append(
                self.sim.process(
                    self._position_sender(n, k, my_atoms, pad),
                    name=f"pos@{n}.s{k}",
                )
            )
        yield self.sim.all_of(subprocs)
        self._mark("positions")

    def _position_sender(self, n: NodeCoord, k: int, atoms: list[int], pad: int):
        node = self.machine.node(n)
        s = node.slices[k]
        pid = self.pos_pattern[n]
        pos_bytes = self.cal.position_bytes
        ctr_buf = self._pos_buf(n)
        unit = self._ts_units[n][k]
        for atom in atoms:
            payload = (atom, self.system.positions[atom].copy()) if self.payload_mode else None
            yield from s.send_write(
                n, "htis", counter_id=ctr_buf, payload=payload,
                payload_bytes=pos_bytes, pattern_id=pid,
            )
            self.recorder.record_span(unit, ActivityKind.SEND, 36.0, "pos")
            # Bond-term unicasts for this atom (one atom per packet).
            for dst in self._atom_term_nodes.get(atom, []):
                slot = self._bond_slot[(atom, dst)]
                yield from s.send_write(
                    dst, "slice1", counter_id=self._bond_ctr,
                    address=(self._bond_buf(), slot),
                    payload=payload, payload_bytes=pos_bytes,
                )
                self.recorder.record_span(unit, ActivityKind.SEND, 36.0, "bondpos")
        # Padding packets keep the counted-write contract (§IV.B.1).
        for _ in range(max(0, pad)):
            yield from s.send_write(
                n, "htis", counter_id=ctr_buf, payload=None,
                payload_bytes=pos_bytes, pattern_id=pid,
            )

    # -- phase: HTIS range-limited (+ spreading, interpolation) --------------
    def _htis_phase(self, n: NodeCoord, kind: str):
        self._mark("range_limited")
        node = self.machine.node(n)
        htis = node.htis
        origins = self._htis_origins[n]
        if not origins:
            self._mark("range_limited")
            return
        pairs_here = self._node_pairs(n)
        per_buffer = pairs_here / len(origins)
        order = sorted(
            (self._pos_buf(o) for o in origins),
            key=lambda name: name,
        )
        send_procs: list = []

        def on_done(buf):
            origin = buf.origin
            self.recorder.record_span(
                self._htis_unit[n], ActivityKind.COMPUTE,
                htis.pairs_duration_ns(per_buffer), "pairs",
            )
            send_procs.append(
                self.sim.process(
                    self._htis_force_return(n, origin), name=f"fret@{n}"
                )
            )

        if kind == "long_range":
            # Charge spreading needs only this node's own atoms, whose
            # positions arrive first (local multicast delivery), so it
            # runs *before* the range-limited processing — that is how
            # the FFT communication overlaps the range-limited
            # computation in Fig. 13.
            yield htis.counter(self._pos_buf(n)).wait_for(self.fixed_atoms_per_node)
            yield from self._spread_phase(n)
        yield from htis.process_buffers(
            order,
            work_ns=lambda buf: htis.pairs_duration_ns(per_buffer),
            on_done=on_done,
        )
        if send_procs:
            yield self.sim.all_of(send_procs)
        self._mark("range_limited")
        if kind == "long_range":
            yield from self._interpolation_phase(n)

    def _node_pairs(self, n: NodeCoord) -> float:
        if self.payload_mode:
            # Exact per-node pair count via the midpoint rule.
            counts, _partial = self._midpoint_pairs()
            return float(counts.get(n, 0))
        return self.mean_pairs_per_node()

    def _htis_force_return(self, m: NodeCoord, origin: NodeCoord):
        """Partial forces for ``origin``'s buffer stream back to the
        origin node's accumulation memory 0."""
        htis = self.machine.node(m).htis
        fpp = self.cal.force_atoms_per_packet()
        packets = math.ceil(self.fixed_atoms_per_node / fpp)
        payload_of = None
        if self.payload_mode:
            partials = self._midpoint_pairs()[1].get((m, origin), {})
            items = sorted(partials.items())

            def payload_of(i, items=items, fpp=fpp):
                chunk = items[i * fpp: (i + 1) * fpp]
                return [(atom, f.copy()) for atom, f in chunk]

        yield from htis.send_accum_results(
            origin,
            "accum0",
            packets,
            counter_id=self._force_ctr,
            payload_bytes=min(256, fpp * self.cal.force_bytes),
            address_of=lambda i: ("rl-forces", self.torus.rank(m), i),
            payload_of=payload_of,
        )

    # -- phase: bonded forces ------------------------------------------------
    def _bond_phase(self, n: NodeCoord):
        self._mark("bonded")
        node = self.machine.node(n)
        s = node.slices[1]
        expected = self._bond_incoming[n]
        terms = self.bond_program.terms_of_node(n)
        if expected == 0 and len(terms) == 0:
            self._mark("bonded")
            return
        if expected:
            yield from s.poll(self._bond_ctr, expected)
            s.counter(self._bond_ctr).reset()
        # Evaluate the node's terms on the geometry cores.
        work = len(terms) * self.cal.gc_ns_per_bond_term
        if work:
            half = work / 2.0
            p0 = self.sim.process(s.compute(half, core=0))
            p1 = self.sim.process(s.compute(half, core=1))
            yield self.sim.all_of([p0, p1])
            self.recorder.record_span(self._gc_unit[n], ActivityKind.COMPUTE, half, "bonded")
        # Return forces to the involved atoms' home accumulation
        # memories (aggregated per destination, packed packets).
        dest_atoms: dict[NodeCoord, list[int]] = {}
        for t in terms:
            for atom in self.bond_program.term_atoms(int(t)):
                home = self.decomp.node_of_atom(atom)
                dest_atoms.setdefault(home, []).append(atom)
        fpp = self.cal.force_atoms_per_packet()
        bond_forces = self._bond_forces_for(terms) if self.payload_mode else None
        for dst, atoms in sorted(dest_atoms.items(), key=lambda kv: self.torus.rank(kv[0])):
            unique = sorted(set(atoms))
            for i in range(0, len(unique), fpp):
                chunk = unique[i: i + fpp]
                payload = None
                if bond_forces is not None:
                    payload = [(a, bond_forces[a].copy()) for a in chunk]
                yield from s.send_accum(
                    dst, "accum0",
                    counter_id=self._force_ctr,
                    address=("bond-forces", self.torus.rank(n), i),
                    payload=payload,
                    payload_bytes=min(256, len(chunk) * self.cal.force_bytes),
                )
        self._mark("bonded")

    # -- phase: long-range ------------------------------------------------------
    def _spread_phase(self, n: NodeCoord):
        """HTIS spreads charges; partial grid sums go to the owners'
        accumulation memory 1 (Fig. 9's charge path)."""
        self._mark("fft_convolution")
        node = self.machine.node(n)
        htis = node.htis
        ops = self.fixed_atoms_per_node * 4 ** 3
        dur = ops / self.cal.htis_spread_ops_per_ns
        yield from htis.pipeline.use(dur)
        self.recorder.record_span(self._htis_unit[n], ActivityKind.COMPUTE, dur, "spread")
        for dst, pk in self._spread_packets.get(n, []):
            yield from htis.send_accum_results(
                dst, "accum1", pk,
                counter_id=self._spread_ctr,
                payload_bytes=256,
                address_of=lambda i, src=n: ("charges", self.torus.rank(src), i),
            )

    def _fft_phase(self, n: NodeCoord):
        """The six-transfer dimension-ordered FFT convolution."""
        node = self.machine.node(n)
        s0 = node.slices[0]
        plan = self.fft_plan
        cal = self.cal
        # Wait for the charge grid (accum1 counter), then read it out.
        expected = self._spread_expected.get(n, 0)
        if expected:
            yield from s0.poll_accum(node.accum[1], self._spread_ctr, expected)
            node.accum[1].counter(self._spread_ctr).reset()
            yield from s0.read_accum_lines(
                math.ceil(plan.points_per_node() * 4 / 32)
            )
        stage_pairs = list(zip(plan.STAGES[:-1], plan.STAGES[1:]))
        self._mark("fft_transfers")
        for idx, pair in enumerate(stage_pairs):
            sends = self._fft_sends[pair].get(n, [])
            recv = self._fft_recv[pair].get(n, 0)
            # Four slices share the point-packet sends.
            senders = []
            chunks = _split_round_robin(sends, 4)
            for k in range(4):
                if chunks[k]:
                    senders.append(
                        self.sim.process(
                            self._fft_sender(n, k, chunks[k], pair),
                            name=f"fftsend@{n}",
                        )
                    )
            if senders:
                yield self.sim.all_of(senders)
            if recv:
                yield from s0.poll(self._fft_ctr[pair], recv)
                s0.counter(self._fft_ctr[pair]).reset()
            # 1-D FFT work (or convolution multiply after stage z).
            stage_to = pair[1]
            owned = plan.stage_points_owned(stage_to).get(n, 0)
            if stage_to in ("x", "y", "z", "iy", "ix"):
                work = owned * cal.gc_ns_per_fft_point
            else:
                work = 0.0
            if stage_to == "z":
                work += owned * cal.gc_ns_per_convolve_point
            if work:
                half = work / 2.0
                p0 = self.sim.process(s0.compute(half, core=0))
                p1 = self.sim.process(s0.compute(half, core=1))
                yield self.sim.all_of([p0, p1])
                self.recorder.record_span(self._gc_unit[n], ActivityKind.COMPUTE, half, "fft")
        self._mark("fft_transfers")
        # Potentials travel back to the HTIS units (multicast-like
        # fan-out along the transposed spread pattern).
        for dst, pk in self._potential_packets.get(n, []):
            for i in range(pk):
                yield from s0.send_write(
                    dst, "htis",
                    counter_id=self._potential_ctr,
                    payload_bytes=256,
                )
        self._mark("fft_convolution")

    def _fft_sender(self, n: NodeCoord, k: int, sends: list[tuple[NodeCoord, int]], pair):
        s = self.machine.node(n).slices[k]
        ctr = self._fft_ctr[pair]
        for dst, pts in sends:
            for _ in range(pts):
                yield from s.send_write(
                    dst, "slice0", counter_id=ctr,
                    payload_bytes=self.cal.grid_point_bytes,
                )

    def _interpolation_phase(self, n: NodeCoord):
        """HTIS interpolates long-range forces once potentials arrive."""
        node = self.machine.node(n)
        htis = node.htis
        s2 = node.slices[2]
        expected = self._potential_expected.get(n, 0)
        if expected:
            potentials = htis.counter(self._potential_ctr)
            yield potentials.wait_for(expected)
            potentials.reset()
        ops = self.fixed_atoms_per_node * 4 ** 3
        dur = ops / self.cal.htis_spread_ops_per_ns
        yield from htis.pipeline.use(dur)
        self.recorder.record_span(self._htis_unit[n], ActivityKind.COMPUTE, dur, "interp")
        fpp = self.cal.force_atoms_per_packet()
        packets = math.ceil(self.fixed_atoms_per_node / fpp)
        yield from htis.send_accum_results(
            n, "accum0", packets,
            counter_id=self._force_ctr,
            payload_bytes=min(256, fpp * self.cal.force_bytes),
            address_of=lambda i: ("lr-forces", i),
        )

    # -- phase: integration + thermostat ------------------------------------------
    def _integrate_phase(self, n: NodeCoord, kind: str):
        self._mark("integration")
        node = self.machine.node(n)
        s2 = node.slices[2]
        expected = self.expected_force_packets(n)
        if kind == "long_range":
            expected += self.expected_lr_force_packets(n)
        yield from s2.poll_accum(node.accum[0], self._force_ctr, expected)
        node.accum[0].counter(self._force_ctr).reset()
        atoms = self.decomp.atoms_of(n)
        fpp = self.cal.force_atoms_per_packet()
        yield from s2.read_accum_lines(math.ceil(max(1, len(atoms)) / fpp))
        if self.payload_mode:
            self._apply_forces(n, node, atoms, kind)
        # Velocity (and, without a thermostat, position) update.
        work = max(1, len(atoms)) * self.cal.gc_ns_per_atom_update
        half = work / 2.0
        p0 = self.sim.process(s2.compute(half, core=0))
        p1 = self.sim.process(s2.compute(half, core=1))
        yield self.sim.all_of([p0, p1])
        self.recorder.record_span(self._gc_unit[n], ActivityKind.COMPUTE, half, "integrate")
        if self.thermostat and kind == "long_range":
            self._mark("thermostat")
            yield from s2.tensilica_work(
                max(1, len(atoms)) * self.cal.ts_ns_per_ke_atom
            )
            yield from self._thermostat_reduce(n)
            # Adjust temperature and update positions (Fig. 13 tail).
            p0 = self.sim.process(s2.compute(half, core=0))
            p1 = self.sim.process(s2.compute(half, core=1))
            yield self.sim.all_of([p0, p1])
            self._mark("thermostat")
        self._mark("integration")
        node.accum[0].clear()
        node.accum[1].clear()

    def _thermostat_reduce(self, n: NodeCoord):
        """This node's leg of the global kinetic-energy all-reduce: the
        first node to arrive each step starts every node's leg, and
        each node waits on its own leg's completion event."""
        if self._reduce_step != self.step_index:
            self._reduce_step = self.step_index
            self._reduce_run = self.allreduce.begin(
                {c: 0.0 for c in self.torus.nodes()})
        yield self._reduce_run.node_done[n]

    # -- migration ------------------------------------------------------------
    def _run_migration(self) -> int:
        """Run the migration protocol for atoms outside their slack."""
        moves = self.decomp.migration_moves()
        payload_moves = {
            src: [(dst, atom) for dst, atom in records]
            for src, records in moves.items()
        }
        counts = self.decomp.atom_counts()
        scan = {
            c: int(counts[self.torus.rank(c)]) for c in self.torus.nodes()
        }
        result = self.migration.run(payload_moves, scan_atoms=scan)
        self.decomp.apply_moves(moves)
        self._mark("migration")
        self._phase_marks.setdefault("migration", []).append(
            self.sim.now - result.elapsed_ns
        )
        return result.messages_sent

    # ==================================================================
    # payload-mode numerics
    # ==================================================================
    def _midpoint_pairs(self):
        """Exact pair assignment by the midpoint rule (payload mode).

        Returns ``(per_node_counts, partial_forces)`` where
        ``partial_forces[(m, origin)]`` maps atom → partial force from
        pairs assigned to node ``m`` involving that atom of ``origin``.
        Cached per step.
        """
        if getattr(self, "_pairs_step", None) == self.step_index:
            return self._pairs_cache

        system = self.system
        n_atoms = system.num_atoms
        idx_i, idx_j = np.triu_indices(n_atoms, k=1)
        dr = system.minimum_image(system.positions[idx_i] - system.positions[idx_j])
        r2 = np.einsum("ij,ij->i", dr, dr)
        mask = (r2 < self.ff.cutoff ** 2) & (r2 > 1e-12)
        idx_i, idx_j, dr, r2 = idx_i[mask], idx_j[mask], dr[mask], r2[mask]
        mid = (system.positions[idx_j] + 0.5 * dr) % system.box_edge
        mid_grid = self.decomp._grid_of(mid)
        r = np.sqrt(r2)
        eps, sig = self.ff.combine_lj(
            system.lj_epsilon[idx_i], system.lj_epsilon[idx_j],
            system.lj_sigma[idx_i], system.lj_sigma[idx_j],
        )
        qq = system.charges[idx_i] * system.charges[idx_j]
        _e, f_over_r = self.ff.pair_energy_force(r, eps, sig, qq)
        fvec = dr * f_over_r[:, None]

        counts: dict[NodeCoord, int] = {}
        partial: dict[tuple[NodeCoord, NodeCoord], dict[int, np.ndarray]] = {}
        for p in range(idx_i.size):
            m = NodeCoord(*map(int, mid_grid[p]))
            counts[m] = counts.get(m, 0) + 1
            i, j = int(idx_i[p]), int(idx_j[p])
            for atom, f in ((i, fvec[p]), (j, -fvec[p])):
                origin = self.decomp.node_of_atom(atom)
                d = partial.setdefault((m, origin), {})
                if atom in d:
                    d[atom] = d[atom] + f
                else:
                    d[atom] = f.copy()
        self._pairs_cache = (counts, partial)
        self._pairs_step = self.step_index
        return self._pairs_cache

    def _bond_forces_for(self, terms: np.ndarray) -> dict[int, np.ndarray]:
        """Per-atom bonded forces from this node's assigned terms
        (bond terms and angle terms, indexed bonds-first)."""
        from repro.md.bonded import bonded_energy_forces

        nb = self.system.num_bonds
        terms = np.asarray(terms, dtype=np.int64)
        bond_subset = terms[terms < nb]
        angle_subset = terms[terms >= nb] - nb
        _e, f = bonded_energy_forces(
            self.system, bond_subset=bond_subset, angle_subset=angle_subset
        )
        atoms = set()
        for t in terms:
            atoms.update(self.bond_program.term_atoms(int(t)))
        return {a: f[a] for a in atoms}

    def _apply_forces(self, n: NodeCoord, node, atoms, kind: str) -> None:
        """Payload mode: collect the accumulated per-atom forces from
        this node's accumulation memory for verification
        (``collected_forces`` is compared against the serial kernels
        by the integration tests)."""
        if (
            not hasattr(self, "collected_forces")
            or self._forces_step != self.step_index
        ):
            self.collected_forces = np.zeros_like(self.system.positions)
            self._forces_step = self.step_index
        accum = node.accum[0]
        for atom in atoms:
            value = accum.value(("item", int(atom)))
            if isinstance(value, np.ndarray):
                self.collected_forces[int(atom)] += value


def _split_round_robin(items: list, k: int) -> list[list]:
    """Deal ``items`` into ``k`` lists round-robin."""
    out: list[list] = [[] for _ in range(k)]
    for i, item in enumerate(items):
        out[i % k].append(item)
    return out
