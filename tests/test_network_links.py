"""Unit tests for link accounting and network statistics."""

import pytest

from repro.asic import build_machine
from repro.asic.slice_ import Steps, write_step
from repro.engine import Simulator
from repro.network.link import LinkId, TorusLink
from tests.conftest import gc_growth, one_link_pair, run_exchange


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


def _arrive(link, hold, fn, args):
    """Book a hop arriving now, as the transits do: granted inline when
    the channel is free, else as one event at the booked grant time."""
    sim = link.sim
    grant = link.book(hold)
    if grant == sim.now:
        fn(*args)
    else:
        sim.schedule_at(grant, fn, args)


def test_queue_length_counts_waiters_not_slots(sim):
    """Packets booked but not yet granted are the queue; the packet
    holding the channel is not."""
    link = _link(sim)
    granted = []

    def grant(tag):
        granted.append((tag, sim.now))
        link.packets_carried += 1  # the transit counts its grants

    for tag in ("a", "b", "c", "d"):
        _arrive(link, 4.0, grant, (tag,))
    assert granted == [("a", 0.0)]
    assert link.queue_length == 3
    assert link.peak_queue_length == 3
    sim.run(until=4.5)
    assert link.queue_length == 2
    assert link.peak_queue_length == 3
    sim.run()
    assert granted == [("a", 0.0), ("b", 4.0), ("c", 8.0), ("d", 12.0)]
    assert link.queue_length == 0
    # No release event: the run ends with the last grant, and the busy
    # time counts up to the clock until the channel frees.
    assert sim.now == link.busy_ns == 12.0
    sim.run(until=20.0)
    assert link.free_at == link.busy_ns == 16.0


def test_wait_tracks_one_object_per_waiter(sim):
    """Booking keeps no waiter: it tracks no object.  A queued hop's
    grant is one calendar entry, its args tuple, in a new bucket at its
    own instant."""
    n = 2000
    link = _link(sim)
    hold = 3.0
    assert gc_growth(lambda i: link.book(hold), n) < 16
    assert link.booked == n and link.free_at == n * hold

    def granted(_tag):
        pass

    growth = gc_growth(lambda i: _arrive(link, hold, granted, (i,)), n)
    assert 2 * n <= growth < 2 * n + 16
    assert sim.pending == n
    assert link.queue_length == 2 * n


def test_arrival_at_free_at_is_granted_at_once(sim):
    """A hop arriving at the very time the channel frees takes it on
    arrival: no wait, no queue sample, no grant event."""
    from repro.constants import SRC_RING_NS
    from repro.trace.flight import FlightRecorder, use_flight

    fl = FlightRecorder()
    with use_flight(fl):
        # The first hop arrives at SRC_RING_NS and holds the link for
        # ser; the second, injected ser later, arrives exactly as it
        # frees.
        net, first, _ = one_link_pair(sim)
    ser = first.serialization_ns
    sim.run()
    [a], [b] = (f.hops for f in fl.packets())
    assert b.enqueue_ns == b.grant_ns == a.release_ns == SRC_RING_NS + ser
    assert b.wait_ns == 0.0
    assert fl.contended_hops() == 0
    assert fl.queue_depth_series == {}
    link = net.link((0, 0, 0), "x", 1)
    assert link.peak_queue_length == 0
    assert link.busy_ns == pytest.approx(2 * ser)
