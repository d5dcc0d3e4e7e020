"""Unit tests for multicast pattern compilation and delivery."""

import pytest

from repro.asic import build_machine
from repro.asic.slice_ import Join, Steps, poll_step, write_step
from repro.constants import MAX_MULTICAST_PATTERNS
from repro.engine import Simulator
from repro.network.multicast import compile_pattern
from repro.topology import NodeCoord, Torus3D


def test_pattern_reaches_exactly_the_destinations():
    torus = Torus3D(4, 4, 4)
    dests = {
        (1, 0, 0): ["htis"],
        (2, 3, 0): ["slice0", "slice1"],
        (0, 0, 2): ["accum1"],
        (0, 0, 0): ["slice3"],  # local delivery at the source
    }
    p = compile_pattern(torus, (0, 0, 0), dests)
    reached = p.reached_clients()
    expected = {
        (torus.coord(n), c) for n, clients in dests.items() for c in clients
    }
    assert reached == expected


def test_tree_has_single_inbound_edge_per_node():
    torus = Torus3D(8, 8, 8)
    dests = {(x, y, z): ["htis"] for x in (0, 1, 7) for y in (0, 1) for z in (0, 7)}
    dests.pop((0, 0, 0))
    p = compile_pattern(torus, (0, 0, 0), dests)
    inbound: dict = {}
    for node, entry in p.entries.items():
        for dim, sign in entry.forward:
            nxt = torus.neighbor(node, dim, sign)
            assert nxt not in inbound, f"{nxt} has two inbound edges"
            inbound[nxt] = node
    assert p.source not in inbound


def test_link_traversals_less_than_unicast_equivalent():
    """Multicast saves bandwidth: one traversal per tree edge rather
    than per destination (§III.A)."""
    torus = Torus3D(8, 8, 8)
    peers = torus.axis_peers((0, 0, 0), "x")
    p = compile_pattern(torus, (0, 0, 0), {n: ["slice0"] for n in peers})
    unicast_total = sum(torus.hops((0, 0, 0), n) for n in peers)
    assert p.total_link_traversals < unicast_total
    # A line broadcast covers the ring with N-1 traversals minimum.
    assert p.total_link_traversals == len(peers)


def test_empty_destination_clients_rejected():
    torus = Torus3D(2, 2, 2)
    with pytest.raises(ValueError):
        compile_pattern(torus, 0, {(1, 0, 0): []})


def test_delivery_times_match_unicast_hop_costs(sim):
    """Multicast delivery to each destination costs about the unicast
    latency (plus table lookups) — latency is per-branch, not summed
    over destinations."""
    m = build_machine(sim, 8, 1, 1)
    torus = m.torus
    src = m.node((0, 0, 0)).slice(0)
    dests = {(k, 0, 0): ["slice0"] for k in (1, 2, 3)}
    tree = compile_pattern(torus, (0, 0, 0), dests)
    pid = m.network.register_pattern(tree)
    for k in (1, 2, 3):
        m.node((k, 0, 0)).slice(0).memory.allocate("mc", 1)
    times = {}
    join = Join(sim, 4)
    Steps(src, [write_step((0, 0, 0), "slice0", counter_id="mc", address=("mc", 0),
                           payload_bytes=0, pattern_id=pid)], join.ended).start()

    def polled(k):
        times[k] = sim.now
        join.ended()

    for k in (1, 2, 3):
        Steps(m.node((k, 0, 0)).slice(0), [poll_step("mc", 1)], polled, (k,)).start()
    sim.run(until=join.done)
    # Marginal per-hop cost between consecutive destinations is the
    # X through-node cost plus the multicast table lookup.
    from repro.constants import HOP_NS, MULTICAST_LOOKUP_NS

    assert times[2] - times[1] == pytest.approx(HOP_NS["x"] + MULTICAST_LOOKUP_NS)
    assert times[3] - times[2] == pytest.approx(HOP_NS["x"] + MULTICAST_LOOKUP_NS)


def test_pattern_limit_enforced(sim):
    m = build_machine(sim, 2, 1, 1)
    torus = m.torus
    dests = {(1, 0, 0): ["slice0"]}
    for _ in range(MAX_MULTICAST_PATTERNS):
        m.network.register_pattern(compile_pattern(torus, 0, dests))
    with pytest.raises(RuntimeError, match="exceeds"):
        m.network.register_pattern(compile_pattern(torus, 0, dests))


def test_injecting_from_wrong_source_rejected(sim):
    m = build_machine(sim, 2, 2, 1)
    tree = compile_pattern(m.torus, (0, 0, 0), {(1, 0, 0): ["slice0"]})
    pid = m.network.register_pattern(tree)
    wrong = m.node((0, 1, 0)).slice(0)
    m.node((1, 0, 0)).slice(0).memory.allocate("mc", 1)

    Steps(wrong, [write_step((0, 1, 0), "slice0", counter_id="mc",
                             payload_bytes=0, pattern_id=pid)]).start()
    with pytest.raises((ValueError, RuntimeError)):
        sim.run()
