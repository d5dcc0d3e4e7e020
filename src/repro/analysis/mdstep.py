"""MD time-step measurement harnesses (Table 3, Figs. 11–13).

These drive the full co-simulation (:class:`repro.md.machine.AntonMD`)
through the paper's machine-level experiments:

* :func:`run_step_pair` — Fig. 13's step pair (a range-limited step,
  then a long-range step) on one machine, which Table 3 and Fig. 13
  both read;
* :func:`run_table3` — critical-path communication and total time for
  the DHFR benchmark on a 512-node machine, next to the Desmond
  baseline model;
* :func:`fig11_series` — step time versus simulated time with and
  without bond-program regeneration.  Between epochs the particle
  system *diffuses* (a random-walk surrogate for the real dynamics —
  DESIGN.md §1 documents the substitution) and only the bond phase is
  re-simulated, since that is the only phase whose cost the drift
  changes;
* :func:`fig12_series` — average step time versus migration interval;
* :func:`fig13_timeline` — the two-time-step activity chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import DHFR_ATOMS, FIG12_PARTICLES
from repro.md.forcefield import ForceField
from repro.md.machine import AntonMD, StepReport
from repro.md.system import ChemicalSystem, synthetic_dhfr
from repro.trace.stats import CriticalPathStats, per_node_communication_split

#: Default benchmark machine (the paper's 512-node configuration).
DEFAULT_SHAPE = (8, 8, 8)

#: Random-walk step (Å per MD step, RMS per axis) of the diffusion
#: surrogate.  Water at 300 K has D ≈ 0.23 Å²/ps; with a 2.5 fs step
#: the per-step RMS displacement is √(2·D·dt) ≈ 0.034 Å.
DIFFUSION_SIGMA_A = 0.034


def build_dhfr_md(
    shape: tuple[int, int, int] = DEFAULT_SHAPE,
    atoms: int = DHFR_ATOMS,
    slack: float = 1.0,
    migration_interval: int = 0,
    grid: Optional[int] = None,
    seed: int = 0,
) -> AntonMD:
    """The Table 3 configuration: DHFR-scale system, 13 Å cutoff,
    32³ long-range grid, long-range + thermostat every other step.

    ``grid`` defaults to 4 points per node per dimension (32 on the
    paper's 8×8×8), keeping reduced-scale runs sensible.
    """
    system = synthetic_dhfr(atoms=atoms, seed=seed)
    ff = ForceField(cutoff=13.0, ewald_alpha=0.3)
    if grid is None:
        grid = 4 * max(shape)
    return AntonMD(
        system,
        shape,
        ff=ff,
        grid=grid,
        payload_mode=False,
        slack=slack,
        migration_interval=migration_interval,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------

@dataclass
class Table3Row:
    """One Anton-side row of Table 3."""

    name: str
    communication_us: float
    total_us: float


def _split(md: AntonMD, name: str, lo: float, hi: float) -> CriticalPathStats:
    return per_node_communication_split(md.recorder, name, lo, hi)


@dataclass
class StepPair:
    """Fig. 13's step pair, run on ``md`` over ``[start_ns, end_ns]``:
    its activity record holds both steps."""

    md: AntonMD
    range_limited: StepReport
    long_range: StepReport
    start_ns: float
    end_ns: float


def run_step_pair(md: Optional[AntonMD] = None) -> StepPair:
    """Simulate a range-limited step followed by a long-range step on
    ``md`` (default: the Table 3 configuration)."""
    md = md or build_dhfr_md()
    start = md.sim.now
    rl = md.run_step("range_limited")
    lr = md.run_step("long_range")
    return StepPair(md, rl, lr, start, md.sim.now)


def run_table3(pair: StepPair) -> dict[str, Table3Row]:
    """Every Anton row of Table 3, from one step pair.  Each step's
    window holds only its own activity: a step's spans end by its last
    phase mark, and the next step's begin no earlier."""
    md = pair.md

    def step_bounds(report: StepReport) -> tuple[float, float]:
        lo = min(v[0] for v in report.phase_spans.values())
        hi = max(v[1] for v in report.phase_spans.values())
        return lo, hi

    rl = _split(md, "range_limited", *step_bounds(pair.range_limited))
    lr_report = pair.long_range
    lr = _split(md, "long_range", *step_bounds(lr_report))

    # The FFT row uses the focused transfer window (the six
    # inter-stage transfers); the broader "fft_convolution" span also
    # contains waits that overlap other phases (see EXPERIMENTS.md).
    fft_span = lr_report.phase_spans.get(
        "fft_transfers", lr_report.phase_spans["fft_convolution"]
    )
    fft = _split(md, "fft_convolution", *fft_span)
    th_lo, th_hi = lr_report.phase_spans["thermostat"]
    thermo = _split(md, "thermostat", th_lo, th_hi)

    def row(name: str, stats: CriticalPathStats) -> Table3Row:
        return Table3Row(name, stats.communication_us, stats.total_us)

    avg = Table3Row(
        "average",
        (rl.communication_us + lr.communication_us) / 2.0,
        (rl.total_us + lr.total_us) / 2.0,
    )
    return {
        "average": avg,
        "range_limited": row("range_limited", rl),
        "long_range": row("long_range", lr),
        "fft_convolution": row("fft_convolution", fft),
        "thermostat": row("thermostat", thermo),
    }


# ---------------------------------------------------------------------------
# Figure 11 — bond program regeneration
# ---------------------------------------------------------------------------

@dataclass
class Fig11Point:
    """One x-position of Fig. 11 (both curves)."""

    steps_completed: int
    step_time_no_regen_us: float
    step_time_with_regen_us: float


_diffusion_state: dict[int, dict] = {}


def _molecule_ids(system: ChemicalSystem) -> np.ndarray:
    """Connected-component (molecule) id per atom, from the bond list."""
    state = _diffusion_state.setdefault(id(system), {})
    if "ids" in state:
        return state["ids"]
    parent = np.arange(system.num_atoms)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in system.bonds:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    roots = np.array([find(a) for a in range(system.num_atoms)])
    _u, ids = np.unique(roots, return_inverse=True)
    state["ids"] = ids
    return ids


def _diffuse(system: ChemicalSystem, steps: int, rng: np.random.Generator) -> None:
    """Advance the diffusion surrogate by ``steps`` MD steps.

    Long-time self-diffusion in a liquid moves molecules through the
    sample while the density stays uniform.  The surrogate captures
    exactly that with a **site-exchange model**: molecule centre-of-
    mass positions at t=0 become a fixed set of *sites*, and diffusion
    is a random walk of molecules over sites — pairs of (equal-size)
    molecules within the epoch's diffusion distance swap sites.
    Density, molecule geometry, and bond lengths are preserved
    *exactly*; only the home-box assignment of each molecule evolves —
    which is precisely the quantity the bond program cares about
    (§IV.B.2).  The largest molecule (the protein) keeps its site.
    """
    state = _diffusion_state.setdefault(id(system), {})
    ids = _molecule_ids(system)
    if "sites" not in state:
        n_mol = int(ids.max()) + 1
        sizes = np.bincount(ids, minlength=n_mol)
        coms = np.zeros((n_mol, 3))
        np.add.at(coms, ids, system.positions)
        coms /= sizes[:, None]
        state["sites"] = coms.copy()
        state["occupant"] = np.arange(n_mol)   # site -> molecule
        state["site_of"] = np.arange(n_mol)    # molecule -> site
        state["small"] = np.nonzero(sizes <= np.median(sizes))[0]
        # Atom offsets relative to the molecule's original site.
        offsets = system.positions - coms[ids]
        L = system.box_edge
        offsets -= L * np.round(offsets / L)
        state["offsets"] = offsets
    sites = state["sites"]
    occupant, site_of = state["occupant"], state["site_of"]
    small_sites = state["small"]
    L = system.box_edge
    # Per-axis RMS drift of a water-size molecule over `steps` steps.
    r = min(DIFFUSION_SIGMA_A * math.sqrt(steps) * math.sqrt(3.0), L / 2.0)
    n_swaps = len(small_sites)  # each small molecule moves about once
    for _ in range(n_swaps):
        a = small_sites[rng.integers(len(small_sites))]
        # Partner near the diffusion distance from site a (min-image).
        for _attempt in range(24):
            b = small_sites[rng.integers(len(small_sites))]
            if b == a:
                continue
            d = sites[b] - sites[a]
            d -= L * np.round(d / L)
            if np.linalg.norm(d) <= r:
                ma, mb = occupant[a], occupant[b]
                occupant[a], occupant[b] = mb, ma
                site_of[ma], site_of[mb] = b, a
                break
    # Materialise the new positions.
    ids = state["ids"]
    system.positions[:] = (
        sites[site_of[ids]] + state["offsets"]
    ) % L
    system.wrap()


def fig11_series(
    total_steps: int = 8_000_000,
    epochs: int = 8,
    regen_interval: int = 120_000,
    shape: tuple[int, int, int] = DEFAULT_SHAPE,
    atoms: int = DHFR_ATOMS,
    seed: int = 0,
) -> list[Fig11Point]:
    """Regenerate Fig. 11: time-step execution time over a long run.

    Two co-simulations share the same diffusing particle system: one
    never regenerates its bond program, the other regenerates every
    ``regen_interval`` steps.  At each sampled epoch the bond phase is
    re-simulated on the machine; the rest of the step's cost is the
    epoch-0 baseline (nothing else changes with drift — §IV.B.2).
    """
    md_no = build_dhfr_md(shape, atoms, seed=seed)
    md_re = build_dhfr_md(shape, atoms, seed=seed)
    rng_no = np.random.default_rng(seed + 1)
    rng_re = np.random.default_rng(seed + 1)  # identical drift paths

    # Baseline: the full average step at epoch 0, minus its bond phase.
    t3 = run_table3(run_step_pair(build_dhfr_md(shape, atoms, seed=seed)))
    base_step_us = t3["average"].total_us
    bond0_no = md_no.run_bond_phase_only() / 1000.0
    bond0_re = md_re.run_bond_phase_only() / 1000.0
    rest_us = base_step_us - (bond0_no + bond0_re) / 2.0

    points = [Fig11Point(0, rest_us + bond0_no, rest_us + bond0_re)]
    steps_per_epoch = total_steps // epochs
    next_regen = regen_interval
    for e in range(1, epochs + 1):
        completed = e * steps_per_epoch
        _diffuse(md_no.system, steps_per_epoch, rng_no)
        md_no.decomp.rehome_all()
        _diffuse(md_re.system, steps_per_epoch, rng_re)
        md_re.decomp.rehome_all()
        while completed >= next_regen:
            md_re.regenerate_bond_program()
            next_regen += regen_interval
        bond_no = md_no.run_bond_phase_only() / 1000.0
        bond_re = md_re.run_bond_phase_only() / 1000.0
        points.append(
            Fig11Point(completed, rest_us + bond_no, rest_us + bond_re)
        )
    return points


# ---------------------------------------------------------------------------
# Figure 12 — migration interval
# ---------------------------------------------------------------------------

@dataclass
class Fig12Point:
    migration_interval: int
    step_time_us: float
    migration_cost_us: float
    atoms_migrated: int


def fig12_series(
    intervals: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    shape: tuple[int, int, int] = DEFAULT_SHAPE,
    atoms: int = FIG12_PARTICLES,
    per_step_sigma: float = 0.12,
    seed: int = 0,
) -> list[Fig12Point]:
    """Regenerate Fig. 12: average step time vs migration interval.

    For each interval N the system diffuses N steps, the migration
    protocol runs once (with the home-box slack sized for N steps of
    drift), and the measured migration time is amortised over the N
    steps on top of the interval-independent base step time.

    ``per_step_sigma`` is deliberately larger than the equilibrium
    diffusion constant: the 17,758-particle Fig. 12 benchmark is
    migration-heavy by design.
    """
    md = build_dhfr_md(shape, atoms=atoms, migration_interval=0, seed=seed)
    t3 = run_table3(run_step_pair(md))
    base_us = t3["average"].total_us

    # The home-box slack is a build-time memory-overlap allocation:
    # it is sized once, for the *largest* interval, and held fixed —
    # so longer intervals migrate more atoms per phase, while the
    # per-phase synchronization overhead amortises (the Fig. 12
    # trade-off).
    slack = max(0.25, 3.0 * per_step_sigma * math.sqrt(max(intervals)))
    points = []
    for interval in intervals:
        rng = np.random.default_rng(seed + interval)
        md.decomp.slack = slack
        md.decomp.rehome_all()
        _diffuse_sigma(md.system, per_step_sigma * math.sqrt(interval), rng)
        moves = md.decomp.migration_moves()
        payload = {
            src: [(dst, a) for dst, a in recs] for src, recs in moves.items()
        }
        counts = md.decomp.atom_counts()
        scan = {c: int(counts[md.torus.rank(c)]) for c in md.torus.nodes()}
        result = md.migration.run(payload, scan_atoms=scan)
        md.decomp.apply_moves(moves)
        cost = result.elapsed_us
        points.append(
            Fig12Point(
                migration_interval=interval,
                step_time_us=base_us + cost / interval,
                migration_cost_us=cost,
                atoms_migrated=result.messages_sent,
            )
        )
    return points


def _diffuse_sigma(system: ChemicalSystem, sigma: float, rng) -> None:
    system.positions += rng.normal(scale=sigma, size=system.positions.shape)
    system.wrap()


# ---------------------------------------------------------------------------
# Figure 13 — activity timeline
# ---------------------------------------------------------------------------

def fig13_timeline(pair: StepPair, buckets: int = 80) -> str:
    """The merged activity chart of a step pair (Fig. 13's layout: one
    column per unit class, light-gray stalls shown as dots)."""
    from repro.trace.timeline import render_timeline

    md = pair.md
    group: dict[str, str] = {}
    for unit in md.recorder.units():
        if unit.endswith(":htis"):
            group[unit] = "HTIS"
        elif ":gc" in unit:
            group[unit] = "GC"
        elif ":ts" in unit:
            group[unit] = "TS"
    return render_timeline(
        md.recorder, pair.start_ns, pair.end_ns, buckets=buckets, group_by=group
    )
