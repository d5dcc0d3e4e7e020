"""Unit tests for the counted-remote-write gather (§III.B, Fig. 4)."""

import pytest

from repro.asic.slice_ import Join
from repro.comm import CountedGather, GatherSource


def _sources(machine, specs):
    return [
        GatherSource(machine.torus.coord(node), client, packets)
        for node, client, packets in specs
    ]


def test_gather_basic_flow(sim, machine222):
    """Fig. 4's example: two source slices write to one target slice;
    the target learns completion from a single counter."""
    target = machine222.node((0, 0, 0)).slice(0)
    a = machine222.node((1, 0, 0)).slice(0)
    b = machine222.node((0, 1, 0)).slice(0)
    g = CountedGather(target, "gather", _sources(
        machine222, [((1, 0, 0), "slice0", 2), ((0, 1, 0), "slice0", 3)]
    ))
    assert g.expected == 5
    join = Join(sim, 3)
    g.send_from(a, ["a0", "a1"], join.ended, payload_bytes=8)
    sim.schedule(500.0, g.send_from, b, ["b0", "b1", "b2"], join.ended, (), 8)
    g.wait(target, join.ended)
    done = sim.run(until=join.done)
    assert g.gathered() == ["a0", "a1", "b0", "b1", "b2"]
    assert done > 500.0


def test_slot_layout_is_deterministic(sim, machine222):
    target = machine222.node((0, 0, 0)).slice(0)
    g = CountedGather(target, "g", _sources(
        machine222, [((1, 0, 0), "slice0", 2), ((0, 1, 0), "slice1", 1)]
    ))
    assert g.slot((1, 0, 0), "slice0", 0) == 0
    assert g.slot((1, 0, 0), "slice0", 1) == 1
    assert g.slot((0, 1, 0), "slice1", 0) == 2
    with pytest.raises(IndexError):
        g.slot((1, 0, 0), "slice0", 2)
    with pytest.raises(KeyError):
        g.slot((0, 0, 1), "slice0", 0)


def test_fixed_count_contract_enforced(sim, machine222):
    """Sending a different number of packets than declared would hang
    the receiver on real hardware; the model rejects it."""
    target = machine222.node((0, 0, 0)).slice(0)
    a = machine222.node((1, 0, 0)).slice(0)
    g = CountedGather(target, "g", _sources(machine222, [((1, 0, 0), "slice0", 2)]))

    with pytest.raises(ValueError, match="declared 2 packets"):
        g.send_from(a, ["only-one"])
    with pytest.raises(KeyError, match="not a source"):
        g.send_from(machine222.node((0, 1, 0)).slice(0), ["x", "y"])


def test_duplicate_source_rejected(machine222):
    target = machine222.node((0, 0, 0)).slice(0)
    with pytest.raises(ValueError, match="duplicate source"):
        CountedGather(target, "g", _sources(
            machine222,
            [((1, 0, 0), "slice0", 1), ((1, 0, 0), "slice0", 2)],
        ))


def test_empty_sources_rejected(machine222):
    with pytest.raises(ValueError):
        CountedGather(machine222.node(0).slice(0), "g", [])


def test_zero_packet_source_rejected():
    from repro.topology import NodeCoord

    with pytest.raises(ValueError):
        GatherSource(NodeCoord(0, 0, 0), "slice0", 0)


def test_reset_for_next_phase(sim, machine222):
    target = machine222.node((0, 0, 0)).slice(0)
    a = machine222.node((1, 0, 0)).slice(0)
    g = CountedGather(target, "g", _sources(machine222, [((1, 0, 0), "slice0", 1)]))

    def roundtrip(payload):
        join = Join(sim, 2)
        g.send_from(a, [payload], join.ended)
        g.wait(target, join.ended)
        sim.run(until=join.done)

    roundtrip("x")
    g.reset()
    assert g.gathered() == []
    assert target.counter("g").count == 0
    roundtrip("y")
    assert g.gathered() == ["y"]


def test_gather_into_accumulation_memory(sim, machine222):
    """Gathers can target accumulation memories; a slice on the same
    node polls the counter across the ring."""
    node = machine222.node((0, 0, 0))
    target = node.accum[0]
    a = machine222.node((1, 0, 0)).slice(0)
    g = CountedGather(target, "g", _sources(machine222, [((1, 0, 0), "slice0", 1)]))
    join = Join(sim, 2)
    g.send_from(a, [1.0], join.ended, payload_bytes=8)
    g.wait(node.slice(0), join.ended)
    assert sim.run(until=join.done) > 0
    assert g.gathered() == [1.0]
