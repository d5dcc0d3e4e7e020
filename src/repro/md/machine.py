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

No phase runs as an engine process.  Each node's part of each phase
is a leg started in one event; its steps run inside the events that
end a hold of a chip unit, deliver a packet or complete a counter
(:mod:`repro.asic.slice_`), as Anton's software moves on when a
counter reaches its target.

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
from typing import Any, Callable, Optional

import numpy as np

from repro import instruments
from repro.asic.htis import HTIS
from repro.asic.node import build_machine
from repro.asic.slice_ import (
    Join, ProcessingSlice, Step, Steps, accum_step, write_step,
)
from repro.comm.collectives import AllReduce
from repro.comm.migration import MigrationProtocol
from repro.constants import ACCUM_READ_NS, LONG_RANGE_INTERVAL
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
            phases = [_PositionLeg, _HtisLeg, _BondLeg, _IntegrateLeg]
            if kind == "long_range":
                phases.append(_FftLeg)
            self._run_legs(phases, kind)
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

    def _run_legs(self, phases: list[type], kind: str) -> None:
        """Start one leg of each phase on every node, each in one event
        at the current instant, and run until the last has ended."""
        sim = self.sim
        nodes = list(self.torus.nodes())
        self._legs = Join(sim, len(nodes) * len(phases))
        for n in nodes:
            for phase in phases:
                sim.schedule_now(phase.start, (phase(self, n, kind),))
        sim.run(until=self._legs.done)

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
        self._run_legs([_BondPositionLeg, _BondLeg, _BondForceWaitLeg],
                       "range_limited")
        return self.sim.now - start

    def _bond_sends(self, atom: int, payload: Any) -> list[Step]:
        """The bond-term unicasts of ``atom``'s position (one atom per
        packet), in term-node order."""
        pos_bytes = self.cal.position_bytes
        buf = self._bond_buf()
        return [
            write_step(dst, "slice1", counter_id=self._bond_ctr,
                       address=(buf, self._bond_slot[(atom, dst)]),
                       payload=payload, payload_bytes=pos_bytes)
            for dst in self._atom_term_nodes.get(atom, [])
        ]

    def _node_pairs(self, n: NodeCoord) -> float:
        if self.payload_mode:
            # Exact per-node pair count via the midpoint rule.
            counts, _partial = self._midpoint_pairs()
            return float(counts.get(n, 0))
        return self.mean_pairs_per_node()

    def _thermostat_reduce(self, n: NodeCoord, fn, args: tuple) -> None:
        """This node's leg of the global kinetic-energy all-reduce: the
        first node to arrive each step starts every node's leg, and
        each node continues with ``fn(*args)`` once its own leg ends."""
        if self._reduce_step != self.step_index:
            self._reduce_step = self.step_index
            self._reduce_run = self.allreduce.begin(
                {c: 0.0 for c in self.torus.nodes()})
        self._reduce_run.on_node_end(n, fn, args)

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


def _labelled(s: ProcessingSlice, step: Step, recorder: ActivityRecorder, unit: str,
              label: str, fn: Callable[..., None], args: tuple) -> None:
    """A :class:`Steps` step that runs the send ``step`` and records its
    SEND span, labelled ``label``, on ``unit`` in the event that
    injects it."""
    form, step_args = step
    form(s, *step_args, _send_recorded, (recorder, unit, label, fn, args))


def _send_recorded(recorder: ActivityRecorder, unit: str, label: str,
                   fn: Callable[..., None], args: tuple) -> None:
    recorder.record_span(unit, ActivityKind.SEND, 36.0, label)
    fn(*args)


class _Leg:
    """One node's part of one phase of a step, stepped by counter,
    hold and send continuations rather than run as a process: each
    step is a plain function that a continuation runs with the leg as
    its first argument, and a join counts ``pending`` down."""

    __slots__ = ("md", "n", "node", "kind", "pending", "half")

    def __init__(self, md: AntonMD, n: NodeCoord, kind: str) -> None:
        self.md, self.n, self.kind = md, n, kind
        self.node = md.machine.node(n)

    def _end(self) -> None:
        self.md._legs.ended()

    def _reset_then(self, counter: Any, then: Callable[[Any], None]) -> None:
        """Reset the counter a successful poll consumed, then continue."""
        counter.reset()
        then(self)

    def _joined(self, then: Callable[[Any], None]) -> None:
        self.pending -= 1
        if not self.pending:
            then(self)

    def _compute(self, s: ProcessingSlice, work: float,
                 then: Callable[[Any], None]) -> None:
        """Split ``work`` over the slice's two geometry cores (two holds
        and a countdown of 2), then continue with ``then(self)``."""
        self.half = work / 2.0
        self.pending = 2
        for core in s.geometry:
            core.hold(self.half, _Leg._joined, (self, then))

    def _start_sends(self, per_slice: list, then: Callable[[Any], None]) -> None:
        """Run a ``(slice, steps)`` send program per slice, each started
        in one event at the current instant, then continue with
        ``then(self)``."""
        if not per_slice:
            return then(self)
        self.pending = len(per_slice)
        for s, steps in per_slice:
            prog = Steps(s, steps, _Leg._joined, (self, then))
            self.md.sim.schedule_now(Steps.start, (prog,))


class _PositionLeg(_Leg):
    """Slices multicast positions to the HTIS import set and unicast
    them to bonded-term nodes; padded to the fixed packet count."""

    __slots__ = ()

    def start(self) -> None:
        md, n = self.md, self.n
        md._mark("positions")
        atoms = md.decomp.atoms_of(n)
        fixed = md.fixed_atoms_per_node
        if len(atoms) > fixed:
            raise RuntimeError(
                f"node {n} holds {len(atoms)} atoms > fixed packet count "
                f"{fixed}; raise AntonCalibration.density_pad"
            )

        def pos(payload: Any) -> Step:
            return write_step(n, "htis", counter_id=md._pos_buf(n), payload=payload,
                              payload_bytes=md.cal.position_bytes,
                              pattern_id=md.pos_pattern[n])

        per_slice = []
        for k in range(4):
            my_atoms = [int(a) for a in atoms[k::4]]
            pad = (fixed // 4 + (1 if k < fixed % 4 else 0)) - len(my_atoms)
            unit, sends = md._ts_units[n][k], []
            for atom in my_atoms:
                payload = (atom, md.system.positions[atom].copy()) if md.payload_mode else None
                sends.append((_labelled, (pos(payload), md.recorder, unit, "pos")))
                sends.extend((_labelled, (b, md.recorder, unit, "bondpos"))
                             for b in md._bond_sends(atom, payload))
            # Padding packets keep the counted-write contract (§IV.B.1).
            sends.extend([pos(None)] * max(0, pad))
            per_slice.append((self.node.slices[k], sends))
        self._start_sends(per_slice, _PositionLeg._end)

    def _end(self) -> None:
        self.md._mark("positions")
        self.md._legs.ended()


class _BondPositionLeg(_Leg):
    """The bond phase alone: each slice unicasts its atoms' positions
    to their bonded-term nodes."""

    __slots__ = ()

    def start(self) -> None:
        atoms = self.md.decomp.atoms_of(self.n)
        per_slice = []
        for k in range(4):
            sends = [s for a in atoms[k::4] for s in self.md._bond_sends(int(a), None)]
            if sends:
                per_slice.append((self.node.slices[k], sends))
        self._start_sends(per_slice, _Leg._end)


class _BondForceWaitLeg(_Leg):
    """The bond phase alone: the home node polls for its bonded-force
    returns."""

    __slots__ = ()

    def start(self) -> None:
        md, node = self.md, self.node
        expected = md._bond_return_counts().get(self.n, 0)
        if not expected:
            return self._end()
        node.slices[2].poll_accum_then(
            node.accum[0], md._force_ctr, expected, _Leg._reset_then,
            (self, node.accum[0].counter(md._force_ctr), _BondForceWaitLeg._end))

    def _end(self) -> None:
        self.node.accum[0].clear()
        self.md._legs.ended()


class _BondLeg(_Leg):
    """Geometry cores evaluate the node's bonded terms once their
    positions arrive, then return the forces to the atoms' home
    accumulation memories, aggregated per destination into packed
    packets."""

    __slots__ = ("terms",)

    def start(self) -> None:
        md = self.md
        md._mark("bonded")
        expected = md._bond_incoming[self.n]
        self.terms = md.bond_program.terms_of_node(self.n)
        s = self.node.slices[1]
        if expected:
            s.poll_then(md._bond_ctr, expected, _Leg._reset_then,
                        (self, s.counter(md._bond_ctr), _BondLeg._evaluate))
        elif len(self.terms):
            self._evaluate()
        else:
            self._end()

    def _evaluate(self) -> None:
        work = len(self.terms) * self.md.cal.gc_ns_per_bond_term
        if work:
            self._compute(self.node.slices[1], work, _BondLeg._evaluated)
        else:
            self._return_forces()

    def _evaluated(self) -> None:
        md = self.md
        md.recorder.record_span(md._gc_unit[self.n], ActivityKind.COMPUTE, self.half, "bonded")
        self._return_forces()

    def _return_forces(self) -> None:
        md = self.md
        dest_atoms: dict[NodeCoord, list[int]] = {}
        for t in self.terms:
            for atom in md.bond_program.term_atoms(int(t)):
                dest_atoms.setdefault(md.decomp.node_of_atom(atom), []).append(atom)
        fpp = md.cal.force_atoms_per_packet()
        bond_forces = md._bond_forces_for(self.terms) if md.payload_mode else None
        rank = md.torus.rank(self.n)
        sends = []
        for dst, atoms in sorted(dest_atoms.items(), key=lambda kv: md.torus.rank(kv[0])):
            unique = sorted(set(atoms))
            for i in range(0, len(unique), fpp):
                chunk = unique[i: i + fpp]
                payload = None
                if bond_forces is not None:
                    payload = [(a, bond_forces[a].copy()) for a in chunk]
                sends.append(accum_step(
                    dst, "accum0", counter_id=md._force_ctr, address=("bond-forces", rank, i),
                    payload=payload, payload_bytes=min(256, len(chunk) * md.cal.force_bytes)))
        Steps(self.node.slices[1], sends, _BondLeg._end, (self,)).start()

    def _end(self) -> None:
        self.md._mark("bonded")
        self.md._legs.ended()


class _HtisLeg(_Leg):
    """The HTIS: range-limited pairs from the origin buffers (high-
    priority queue first), each buffer's partial forces streamed back
    to its origin's accumulation memory 0.  A long-range step adds
    charge spreading before and force interpolation after."""

    __slots__ = ("work", "dur", "i")

    def start(self) -> None:
        md, n = self.md, self.n
        md._mark("range_limited")
        origins = md._htis_origins[n]
        if not origins:
            md._mark("range_limited")
            return self._end()
        htis = self.node.htis
        self.work = htis.pairs_duration_ns(md._node_pairs(n) / len(origins))
        self.dur = md.fixed_atoms_per_node * 4 ** 3 / md.cal.htis_spread_ops_per_ns
        if self.kind != "long_range":
            return self._consume()
        # Charge spreading needs only this node's own atoms, whose
        # positions arrive first (local multicast delivery), so it runs
        # *before* the range-limited processing — that is how the FFT
        # communication overlaps the range-limited computation in
        # Fig. 13.  Partial grid sums go to the owners' accumulation
        # memory 1 (Fig. 9's charge path).
        htis.counter(md._pos_buf(n)).on_target(
            md.fixed_atoms_per_node, _HtisLeg._spread, (self,))

    def _spread(self) -> None:
        self.md._mark("fft_convolution")
        self.node.htis.pipeline.hold(self.dur, _HtisLeg._spread_sends, (self,))

    def _spread_sends(self) -> None:
        md = self.md
        md.recorder.record_span(md._htis_unit[self.n], ActivityKind.COMPUTE, self.dur, "spread")
        self.i = 0
        self._spread_next()

    def _spread_next(self) -> None:
        md = self.md
        packets = md._spread_packets.get(self.n, [])
        if self.i == len(packets):
            return self._consume()
        dst, pk = packets[self.i]
        self.i += 1
        self.node.htis.send_results(
            dst, "accum1", pk, md._spread_ctr, 256, ("charges", md.torus.rank(self.n)),
            None, _HtisLeg._spread_next, (self,))

    def _consume(self) -> None:
        order = sorted(self.md._pos_buf(o) for o in self.md._htis_origins[self.n])
        self.pending = 1  # the controller, plus each buffer's result stream
        self.node.htis.consume_buffers(
            order, self.work, self._buffer_done, _Leg._joined, (self, _HtisLeg._returned))

    def _buffer_done(self, buf) -> None:
        md, m = self.md, self.n
        md.recorder.record_span(md._htis_unit[m], ActivityKind.COMPUTE, self.work, "pairs")
        fpp = md.cal.force_atoms_per_packet()
        packets = math.ceil(md.fixed_atoms_per_node / fpp)
        payloads = None
        if md.payload_mode:
            items = sorted(md._midpoint_pairs()[1].get((m, buf.origin), {}).items())
            payloads = [[(atom, f.copy()) for atom, f in items[i * fpp: (i + 1) * fpp]]
                        for i in range(packets)]
        self.pending += 1
        # The stream starts in one event of its own.
        md.sim.schedule_now(HTIS.send_results, (
            self.node.htis, buf.origin, "accum0", packets, md._force_ctr,
            min(256, fpp * md.cal.force_bytes), ("rl-forces", md.torus.rank(m)),
            payloads, _Leg._joined, (self, _HtisLeg._returned)))

    def _returned(self) -> None:
        md = self.md
        md._mark("range_limited")
        if self.kind != "long_range":
            return self._end()
        # Force interpolation once the potentials arrive.
        expected = md._potential_expected.get(self.n, 0)
        if expected:
            potentials = self.node.htis.counter(md._potential_ctr)
            potentials.on_target(expected, _Leg._reset_then,
                                 (self, potentials, _HtisLeg._interpolate))
        else:
            self._interpolate()

    def _interpolate(self) -> None:
        self.node.htis.pipeline.hold(self.dur, _HtisLeg._interpolated, (self,))

    def _interpolated(self) -> None:
        md = self.md
        md.recorder.record_span(md._htis_unit[self.n], ActivityKind.COMPUTE, self.dur, "interp")
        fpp = md.cal.force_atoms_per_packet()
        self.node.htis.send_results(
            self.n, "accum0", math.ceil(md.fixed_atoms_per_node / fpp), md._force_ctr,
            min(256, fpp * md.cal.force_bytes), ("lr-forces",), None, _Leg._end, (self,))


class _FftLeg(_Leg):
    """The six-transfer dimension-ordered FFT convolution, then the
    potentials back to the HTIS units (multicast-like fan-out along
    the transposed spread pattern)."""

    __slots__ = ("stage", "ctr", "recv")

    def start(self) -> None:
        md, node = self.md, self.node
        # Wait for the charge grid (accum1 counter), then read it out.
        expected = md._spread_expected.get(self.n, 0)
        if not expected:
            return self._transfers()
        node.slices[0].poll_accum_then(
            node.accum[1], md._spread_ctr, expected, _FftLeg._charges, (self,))

    def _charges(self) -> None:
        md = self.md
        self.node.accum[1].counter(md._spread_ctr).reset()
        lines = math.ceil(md.fft_plan.points_per_node() * 4 / 32)
        self.node.slices[0].hold(lines * ACCUM_READ_NS, _FftLeg._transfers, (self,))

    def _transfers(self) -> None:
        self.md._mark("fft_transfers")
        self.stage = 0
        self._stage()

    def _stage(self) -> None:
        md, stages = self.md, self.md.fft_plan.STAGES
        if self.stage == len(stages) - 1:
            return self._potentials()
        pair = stages[self.stage], stages[self.stage + 1]
        self.ctr, self.recv = md._fft_ctr[pair], md._fft_recv[pair].get(self.n, 0)
        # Four slices share the point-packet sends.
        per_slice = []
        for k, chunk in enumerate(_split_round_robin(md._fft_sends[pair].get(self.n, []), 4)):
            if chunk:
                sends = []
                for dst, pts in chunk:
                    sends += [write_step(dst, "slice0", counter_id=self.ctr,
                                         payload_bytes=md.cal.grid_point_bytes)] * pts
                per_slice.append((self.node.slices[k], sends))
        self._start_sends(per_slice, _FftLeg._sent)

    def _sent(self) -> None:
        s0 = self.node.slices[0]
        if self.recv:
            s0.poll_then(self.ctr, self.recv, _Leg._reset_then,
                         (self, s0.counter(self.ctr), _FftLeg._work))
        else:
            self._work()

    def _work(self) -> None:
        """1-D FFT work (or convolution multiply after stage z)."""
        md = self.md
        stage_to = md.fft_plan.STAGES[self.stage + 1]
        owned = md.fft_plan.stage_points_owned(stage_to).get(self.n, 0)
        work = 0.0
        if stage_to in ("x", "y", "z", "iy", "ix"):
            work = owned * md.cal.gc_ns_per_fft_point
        if stage_to == "z":
            work += owned * md.cal.gc_ns_per_convolve_point
        if work:
            self._compute(self.node.slices[0], work, _FftLeg._computed)
        else:
            self._next_stage()

    def _computed(self) -> None:
        md = self.md
        md.recorder.record_span(md._gc_unit[self.n], ActivityKind.COMPUTE, self.half, "fft")
        self._next_stage()

    def _next_stage(self) -> None:
        self.stage += 1
        self._stage()

    def _potentials(self) -> None:
        md = self.md
        md._mark("fft_transfers")
        sends = [write_step(dst, "htis", counter_id=md._potential_ctr, payload_bytes=256)
                 for dst, pk in md._potential_packets.get(self.n, []) for _ in range(pk)]
        Steps(self.node.slices[0], sends, _FftLeg._end, (self,)).start()

    def _end(self) -> None:
        self.md._mark("fft_convolution")
        self.md._legs.ended()


class _IntegrateLeg(_Leg):
    """Slice 2 polls the force counter and reads the forces, and the
    geometry cores update velocities (and, without a thermostat,
    positions); a long-range step adds the thermostat's kinetic-energy
    reduction and the position update."""

    __slots__ = ("atoms",)

    def start(self) -> None:
        md, node = self.md, self.node
        md._mark("integration")
        self.atoms = max(1, len(md.decomp.atoms_of(self.n)))
        expected = md.expected_force_packets(self.n)
        if self.kind == "long_range":
            expected += md.expected_lr_force_packets(self.n)
        node.slices[2].poll_accum_then(
            node.accum[0], md._force_ctr, expected, _IntegrateLeg._polled, (self,))

    def _polled(self) -> None:
        md = self.md
        self.node.accum[0].counter(md._force_ctr).reset()
        lines = math.ceil(self.atoms / md.cal.force_atoms_per_packet())
        self.node.slices[2].hold(lines * ACCUM_READ_NS, _IntegrateLeg._read, (self,))

    def _read(self) -> None:
        md = self.md
        if md.payload_mode:
            md._apply_forces(self.n, self.node, md.decomp.atoms_of(self.n), self.kind)
        self._compute(self.node.slices[2], self.atoms * md.cal.gc_ns_per_atom_update,
                      _IntegrateLeg._updated)

    def _updated(self) -> None:
        md = self.md
        md.recorder.record_span(md._gc_unit[self.n], ActivityKind.COMPUTE, self.half, "integrate")
        if not (md.thermostat and self.kind == "long_range"):
            return self._end()
        md._mark("thermostat")
        self.node.slices[2].hold(self.atoms * md.cal.ts_ns_per_ke_atom, AntonMD._thermostat_reduce,
                                 (md, self.n, _IntegrateLeg._reduced, (self,)))

    def _reduced(self) -> None:
        # Adjust temperature and update positions (Fig. 13 tail).
        self._compute(self.node.slices[2], 2.0 * self.half, _IntegrateLeg._adjusted)

    def _adjusted(self) -> None:
        self.md._mark("thermostat")
        self._end()

    def _end(self) -> None:
        self.md._mark("integration")
        self.node.accum[0].clear()
        self.node.accum[1].clear()
        self.md._legs.ended()


def _split_round_robin(items: list, k: int) -> list[list]:
    """Deal ``items`` into ``k`` lists round-robin."""
    out: list[list] = [[] for _ in range(k)]
    for i, item in enumerate(items):
        out[i % k].append(item)
    return out
