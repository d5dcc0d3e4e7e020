"""Unit tests for link accounting and network statistics."""

import pytest

from repro.asic import build_machine
from repro.asic.slice_ import Steps, write_step
from repro.engine import Simulator
from repro.network.link import LinkId, TorusLink
from tests.conftest import gc_growth, run_exchange


def test_link_traffic_accounting(sim, machine222):
    src = machine222.node((0, 0, 0)).slice(0)
    dst = machine222.node((1, 0, 0)).slice(0)
    run_exchange(sim, src, dst, payload_bytes=256)
    link = machine222.network.link((0, 0, 0), "x", 1)
    assert link.packets_carried == 1
    assert link.bytes_carried == 288  # header + payload
    assert machine222.network.link_traversals == 1


def test_multi_hop_traverses_each_link_once(sim):
    m = build_machine(sim, 4, 1, 1)
    src = m.node((0, 0, 0)).slice(0)
    dst = m.node((2, 0, 0)).slice(0)
    run_exchange(sim, src, dst)
    assert m.network.link((0, 0, 0), "x", 1).packets_carried == 1
    assert m.network.link((1, 0, 0), "x", 1).packets_carried == 1
    assert m.network.link((2, 0, 0), "x", 1).packets_carried == 0
    assert m.network.packets_injected == 1
    assert m.network.packets_delivered == 1


def test_links_iterates_created_links(sim, machine222):
    src = machine222.node((0, 0, 0)).slice(0)
    dst = machine222.node((0, 1, 0)).slice(0)
    run_exchange(sim, src, dst)
    links = list(machine222.network.links())
    assert len(links) == 1
    assert links[0].link_id.dim == "y"


def test_link_utilization_positive_after_traffic(sim, machine222):
    src = machine222.node((0, 0, 0)).slice(0)
    dst = machine222.node((1, 0, 0)).slice(0)
    run_exchange(sim, src, dst, payload_bytes=256)
    link = machine222.network.link((0, 0, 0), "x", 1)
    assert 0 < link.utilization() <= 1.0


def test_multicast_counts_each_tree_edge(sim):
    m = build_machine(sim, 8, 1, 1)
    from repro.network.multicast import compile_pattern

    src = m.node((0, 0, 0)).slice(0)
    dests = {(k, 0, 0): ["slice0"] for k in (1, 2, 3)}
    pid = m.network.register_pattern(compile_pattern(m.torus, (0, 0, 0), dests))
    for k in (1, 2, 3):
        m.node((k, 0, 0)).slice(0).memory.allocate("mc", 1)

    Steps(src, [write_step((0, 0, 0), "slice0", counter_id="mc",
                           address=("mc", 0), payload_bytes=0,
                           pattern_id=pid)]).start()
    sim.run()
    # 3 chained destinations = 3 link traversals, not 1+2+3=6.
    assert m.network.link_traversals == 3
    assert m.network.packets_injected == 1
    assert m.network.packets_delivered == 3


def _link(sim):
    return TorusLink(sim, LinkId((0, 0, 0), "x", 1), (1, 0, 0))


def test_queue_length_counts_waiters_not_slots(sim):
    link = _link(sim)
    granted = []
    assert link.try_acquire()
    for tag in ("a", "b", "c"):
        link.wait(granted.append, (tag,))
    assert link.queue_length == 3
    assert link.peak_queue_length == 3
    link.release()
    assert link.queue_length == 2
    assert link.peak_queue_length == 3
    sim.run()
    assert granted == ["a"]


def test_wait_tracks_one_object_per_waiter(sim):
    """A waiter is two deque slots, ``fn`` and ``args``: the args tuple
    is the only GC-tracked object it adds (no entry tuple)."""
    n = 2000
    link = _link(sim)
    assert link.try_acquire()

    def granted(_tag):
        pass

    growth = gc_growth(lambda i: link.wait(granted, (i,)), n)
    assert n <= growth < n + 16
    assert link.queue_length == n
