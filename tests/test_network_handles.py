"""Multicast table entries and unicast routes hold the hardware they
name: client and link handles resolved once, on first use."""

import pytest

from repro.engine import Simulator
from repro.network.multicast import compile_pattern
from repro.network.network import Network
from repro.network.packet import Packet
from repro.topology import Torus3D


class _Sink:
    """A bare network client that logs what it receives."""

    def __init__(self, node, name, log) -> None:
        self.node = node
        self.name = name
        self.log = log

    def receive(self, packet) -> None:
        self.log.append((self.node, self.name, packet.payload))


def _network(shape=(4, 2, 1)):
    sim = Simulator()
    torus = Torus3D(*shape)
    net = Network(sim, torus)
    log: list = []
    for node in torus.nodes():
        net.attach(_Sink(node, "a", log))
    return sim, torus, net, log


def test_unicast_to_missing_client_raises_naming_it():
    sim, torus, net, _ = _network()
    src, dst = torus.coord((0, 0, 0)), torus.coord((2, 1, 0))
    net.inject(Packet(src, "a", dst, "ghost"))
    with pytest.raises(KeyError, match=r"'ghost'.*\(2,1,0\)"):
        sim.run()


def test_multicast_to_missing_client_raises_naming_it():
    sim, torus, net, _ = _network()
    src = torus.coord((0, 0, 0))
    pid = net.register_pattern(compile_pattern(
        torus, src, {(1, 0, 0): ["a"], (3, 1, 0): ["ghost"]}
    ))
    net.inject(Packet(src, "a", src, "a", pattern_id=pid))
    with pytest.raises(KeyError, match=r"'ghost'.*\(3,1,0\)"):
        sim.run()


def test_pattern_registers_with_one_network_only():
    _, torus, net, _ = _network()
    pattern = compile_pattern(torus, (0, 0, 0), {(1, 0, 0): ["a"]})
    net.register_pattern(pattern)
    with pytest.raises(ValueError, match="already registered"):
        net.register_pattern(pattern)
    with pytest.raises(ValueError, match="already registered"):
        _network()[2].register_pattern(pattern)


def test_visited_entries_hold_the_network_handles():
    sim, torus, net, log = _network()
    src = torus.coord((0, 0, 0))
    pattern = compile_pattern(
        torus, src, {(1, 0, 0): ["a"], (2, 1, 0): ["a", "a"], (3, 0, 0): ["a"]}
    )
    pid = net.register_pattern(pattern)
    net.inject(Packet(src, "a", src, "a", pattern_id=pid, payload=7))
    sim.run()
    assert len(log) == pattern.deliveries == 4
    for node, entry in pattern.entries.items():
        if entry.leaf is not None:
            # A leaf is never visited: the hop into it delivers to the
            # client its parent's resolution filled in.
            assert not entry.forward and entry.local_clients == ("a",)
            assert entry.leaf is net.client(node, "a")
            assert entry.clients is None and entry.children is None
            continue
        assert entry.clients == tuple(
            net.client(node, name) for name in entry.local_clients
        )
        assert entry.children == tuple(
            pattern.entries[torus.neighbor(node, dim, sign)]
            for dim, sign in entry.forward
        )
        for child, (dim, sign) in zip(entry.children, entry.forward):
            assert child.via == (dim, sign)
            assert child.link is net.link(node, dim, sign)
    assert pattern.entries[src].link is None  # the root has no inbound edge
    assert [node for node, e in pattern.entries.items()
            if e.leaf is not None] == [(3, 0, 0)]
    # The handles take no part in comparison.
    assert pattern.entries == compile_pattern(
        torus, src, {(1, 0, 0): ["a"], (2, 1, 0): ["a", "a"], (3, 0, 0): ["a"]}
    ).entries


def test_a_route_holds_the_links_it_crossed():
    sim, torus, net, log = _network()
    src, dst = torus.coord((0, 0, 0)), torus.coord((2, 1, 0))
    for payload in range(3):
        net.inject(Packet(src, "a", dst, "a", payload=payload))
    sim.run()
    assert [p for *_, p in log] == [0, 1, 2]
    route = net._routes[(src, dst)]
    nodes = torus.path_nodes(src, dst)
    assert route == [
        net.link(node, hop.dim, hop.sign)
        for node, hop in zip(nodes, torus.route(src, dst))
    ]
    assert [link.packets_carried for link in route] == [3, 3, 3]
    assert len(list(net.links())) == 3


def test_a_downed_direction_is_created_at_first_use():
    """Resolving a table entry or a route creates none of its links: a
    direction that is down when a packet first reaches it is created
    when the packet re-arms and uses it, after links first used in the
    meantime, so ``Network.links()`` keeps its first-use order."""
    from repro.faults.plan import FaultPlan, LinkDown
    from repro.faults.session import use_fault_plan

    sim = Simulator()
    torus = Torus3D(4, 4, 1)
    plan = FaultPlan(link_downs=(LinkDown(links="y+", start_ns=0.0,
                                          end_ns=500.0),))
    with use_fault_plan(plan):
        net = Network(sim, torus)
    log: list = []
    for node in torus.nodes():
        net.attach(_Sink(node, "a", log))
    src = torus.coord((0, 0, 0))
    pid = net.register_pattern(compile_pattern(torus, src, {(1, 1, 0): ["a"]}))
    net.inject(Packet(src, "a", src, "a", pattern_id=pid, payload="mc"))
    net.inject(Packet(src, "a", torus.coord((0, 1, 0)), "a", payload="up"))
    other = torus.coord((2, 0, 0))
    sim.schedule(200.0, lambda: net.inject(
        Packet(other, "a", torus.coord((3, 0, 0)), "a", payload="uc")))
    sim.run(until=300.0)
    assert [repr(link.link_id) for link in net.links()] == [
        "link((0,0,0)->x+)", "link((2,0,0)->x+)"]
    sim.run()
    assert sorted(p for *_, p in log) == ["mc", "uc", "up"]
    assert [repr(link.link_id) for link in net.links()] == [
        "link((0,0,0)->x+)", "link((2,0,0)->x+)", "link((0,0,0)->y+)",
        "link((1,0,0)->y+)"]
