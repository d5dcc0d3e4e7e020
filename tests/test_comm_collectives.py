"""Unit tests for global reductions (§IV.B.4, Table 2)."""

import pytest

from repro.asic import build_machine
from repro.comm.collectives import (
    AllReduce,
    ButterflyAllReduce,
    barrier,
    butterfly_hops,
    butterfly_rounds,
    dimension_ordered_hops,
    dimension_ordered_rounds,
)
from repro.engine import Simulator


def test_hop_and_round_counts_match_paper():
    """An N×N×N machine: 3 rounds and 3N/2 hops dimension-ordered,
    3·log2(N) rounds and 3(N−1) hops for the butterfly."""
    shape = (8, 8, 8)
    assert dimension_ordered_rounds(shape) == 3
    assert dimension_ordered_hops(shape) == 12
    assert butterfly_rounds(shape) == 9
    assert butterfly_hops(shape) == 21


def test_butterfly_requires_power_of_two():
    with pytest.raises(ValueError):
        butterfly_hops((6, 8, 8))


def test_allreduce_computes_correct_sum(sim, machine222):
    ar = AllReduce(machine222, payload_bytes=32)
    result = ar.run({c: float(machine222.torus.rank(c)) ** 2 for c in machine222.torus.nodes()})
    assert result.value == sum(r ** 2 for r in range(8))


def test_allreduce_all_nodes_agree(sim, machine444):
    ar = AllReduce(machine444, payload_bytes=32)
    result = ar.run()
    assert result.value == 64 * 63 / 2
    assert len(result.per_node_done_ns) == 64


def test_allreduce_reusable(sim, machine222):
    ar = AllReduce(machine222, payload_bytes=32)
    r1 = ar.run()
    r2 = ar.run({c: 1.0 for c in machine222.torus.nodes()})
    assert r1.value == 28.0
    assert r2.value == 8.0


def test_zero_byte_reduce_faster_than_32_byte(sim):
    sim1, sim2 = Simulator(), Simulator()
    m0 = build_machine(sim1, 4, 4, 4)
    m32 = build_machine(sim2, 4, 4, 4)
    t0 = AllReduce(m0, payload_bytes=0).run().elapsed_ns
    t32 = AllReduce(m32, payload_bytes=32).run().elapsed_ns
    assert t0 < t32


def test_allreduce_scaling_matches_table2_ordering():
    """Bigger machines take longer; the Table 2 ordering must hold."""
    times = {}
    for shape in [(4, 4, 4), (8, 8, 4), (8, 8, 8)]:
        sim = Simulator()
        m = build_machine(sim, *shape)
        times[shape] = AllReduce(m, payload_bytes=32).run().elapsed_ns
    assert times[(4, 4, 4)] < times[(8, 8, 4)] < times[(8, 8, 8)]


def test_allreduce_latency_near_paper_512():
    sim = Simulator()
    m = build_machine(sim, 8, 8, 8)
    t = AllReduce(m, payload_bytes=32).run().elapsed_us
    # Paper: 1.77 µs for a 32-byte reduction on 512 nodes.
    assert t == pytest.approx(1.77, rel=0.15)


def test_butterfly_slower_than_dimension_ordered():
    sim = Simulator()
    m = build_machine(sim, 4, 4, 4)
    t_do = AllReduce(m, payload_bytes=32).run().elapsed_ns
    sim2 = Simulator()
    m2 = build_machine(sim2, 4, 4, 4)
    bf = ButterflyAllReduce(m2, payload_bytes=32)
    r = bf.run()
    assert r.value == 64 * 63 / 2
    assert r.elapsed_ns > t_do


def test_degenerate_axes_skipped(sim):
    m = build_machine(sim, 4, 1, 1)
    ar = AllReduce(m, payload_bytes=32)
    assert ar.active_dims == ["x"]
    assert ar.run().value == 6.0


def test_barrier_is_zero_byte_reduce():
    sim = Simulator()
    m = build_machine(sim, 2, 2, 2)
    t = barrier(m)
    assert t > 0


def test_allreduce_event_ratchet():
    """One 4×4×4 32 B op executes at most 3,840 engine events: each
    leg starts in one event and then runs on counter continuations
    (4,864 when each leg ran as a process)."""
    sim = Simulator()
    m = build_machine(sim, 4, 4, 4)
    AllReduce(m, payload_bytes=32).run()
    assert sim.events_executed <= 3840


def test_allreduce_missing_contribution_raises(sim, machine222):
    ar = AllReduce(machine222, payload_bytes=32)
    with pytest.raises(ValueError, match="missing contributions"):
        ar.run({(0, 0, 0): 1.0})


def test_allreduce_leg_that_never_finishes_raises(sim, machine222, monkeypatch):
    """A lost poll strands its leg: the run reports the deadlock rather
    than returning a partial sum."""
    from repro.asic.slice_ import ProcessingSlice

    stuck = machine222.node((1, 0, 0)).slices[1]
    poll_then = ProcessingSlice.poll_then

    def lossy(self, *args):
        if self is not stuck:
            poll_then(self, *args)

    monkeypatch.setattr(ProcessingSlice, "poll_then", lossy)
    with pytest.raises(RuntimeError, match="deadlock"):
        AllReduce(machine222, payload_bytes=32).run()


@pytest.mark.parametrize("build", [
    lambda m: AllReduce(m, payload_bytes=32),
    lambda m: ButterflyAllReduce(m, payload_bytes=32),
], ids=["allreduce", "butterfly"])
def test_single_node_reduces_to_its_own_value(build):
    """A 1×1×1 machine has no round: every leg finishes at once."""
    sim = Simulator()
    r = build(build_machine(sim, 1, 1, 1)).run({(0, 0, 0): 2.5})
    assert (r.value, r.elapsed_ns) == (2.5, 0.0)


def test_single_node_butterfly_experiment():
    from repro.runner.result import run_experiment
    from repro.runner.spec import ExperimentSpec

    out = run_experiment(ExperimentSpec(
        "allreduce", shape=(1, 1, 1), payload=32,
        extras=(("algorithm", "butterfly"),)))
    assert out.value("butterfly_32B_ns") == 0.0


@pytest.mark.parametrize("cls", [AllReduce, ButterflyAllReduce])
def test_single_contribution_keeps_negative_zero(cls):
    """A round with one contribution adds it as ``v + other``, which
    keeps −0.0 + −0.0 = −0.0 (summing from 0.0 would give 0.0)."""
    import math

    sim = Simulator()
    m = build_machine(sim, 2, 2, 2)
    r = cls(m, payload_bytes=32).run({c: -0.0 for c in m.torus.nodes()})
    assert math.copysign(1.0, r.value) == -1.0


def test_butterfly_event_ratchet():
    """One 4×4×4 32 B butterfly executes at most 3,136 engine events:
    each stage is a round of the all-reduce's legs (3,584 when each
    node ran as a process)."""
    sim = Simulator()
    m = build_machine(sim, 4, 4, 4)
    ButterflyAllReduce(m, payload_bytes=32).run()
    assert sim.events_executed <= 3136
