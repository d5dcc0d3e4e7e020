"""Synchronization counters are fixed hardware (§III.B, §IV.A).

Every collective and every MD phase counts on counter ids agreed once,
when its communication pattern is established, and resets each counter
right after the poll that consumes it.  A long-lived machine therefore
holds as many counters after its tenth run or step as after its first,
and a reused machine times and sums every run as a fresh one does.
"""

import pytest

from repro.analysis.mdstep import build_dhfr_md
from repro.asic import build_machine
from repro.comm import MigrationProtocol
from repro.comm.collectives import AllReduce, ButterflyAllReduce
from repro.engine import Simulator

RUNS = 10


def _counters(machine) -> dict:
    """Every synchronization counter on the machine, by full name."""
    return {
        ctr.name: ctr
        for node in machine
        for client in node.clients()
        for ctr in client.counters().values()
    }


def _machine():
    return build_machine(Simulator(), 4, 4, 4)


def _allreduce_inputs(machine, i):
    return ({c: float(machine.torus.rank(c) + 100 * i) for c in machine.torus.nodes()},)


def _migration_inputs(machine, i):
    # Every node sends one atom to its +x neighbour, tagged by run.
    torus = machine.torus
    moves = {
        c: [(torus.wrap(c._replace(x=c.x + 1)), (i, torus.rank(c)))]
        for c in torus.nodes()
    }
    return (moves,)


CASES = {
    "allreduce": (
        lambda m: AllReduce(m, payload_bytes=32),
        _allreduce_inputs,
        lambda r: (r.value, r.elapsed_ns, r.per_node_done_ns),
    ),
    "butterfly": (
        lambda m: ButterflyAllReduce(m, payload_bytes=32),
        _allreduce_inputs,
        lambda r: (r.value, r.elapsed_ns, r.per_node_done_ns),
    ),
    "migration": (
        MigrationProtocol,
        _migration_inputs,
        lambda r: (r.received_payloads, r.elapsed_ns, r.per_node_done_ns),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reused_collective_is_flat_and_matches_a_fresh_machine(case):
    build, inputs, observed = CASES[case]
    machine = _machine()
    collective = build(machine)
    after_first = None
    for i in range(RUNS):
        reused = collective.run(*inputs(machine, i))
        fresh_machine = _machine()
        fresh = build(fresh_machine).run(*inputs(fresh_machine, i))
        # Each run's result, relative to its own start, is the fresh
        # machine's.  The clock is absolute float time, so a later
        # start rounds differently in the last bits.
        value, elapsed, done = observed(reused)
        fresh_value, fresh_elapsed, fresh_done = observed(fresh)
        start = machine.sim.now - elapsed
        assert value == fresh_value
        assert elapsed == pytest.approx(fresh_elapsed, rel=1e-12)
        assert {c: t - start for c, t in done.items()} == pytest.approx(
            fresh_done, rel=1e-12
        )
        # The same counter objects, each reset after its poll.
        counters = _counters(machine)
        assert all(c.count == 0 for c in counters.values())
        if after_first is None:
            after_first = counters
        assert counters == after_first


def test_md_counters_are_flat_across_steps_and_bond_phases():
    md = build_dhfr_md(shape=(2, 2, 2), atoms=400)
    htis_buffers = {
        f"{node.coord}:htis:{buf.name}"
        for node in md.machine
        for buf in node.htis.buffers()
    }
    seen = []
    for step in ("range_limited", "long_range", "range_limited", "bond", "bond"):
        if step == "bond":
            md.run_bond_phase_only()
        else:
            md.run_step(step)
        counters = _counters(md.machine)
        # Every counter a phase polled is back at zero; the HTIS
        # position buffers are reset when the next step begins.
        assert {
            name for name, c in counters.items() if c.count
        } <= htis_buffers, step
        seen.append(set(counters))
    # The long-range step adds the FFT's counters; from then on the
    # set never changes.
    assert seen[0] < seen[1]
    assert seen[1] == seen[2] == seen[3] == seen[4]
