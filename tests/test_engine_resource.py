"""Unit tests for the FCFS booking slot, occupied through ``hold``."""

import pytest

from repro.engine import Resource


def test_resource_grants_one_holder_at_a_time(sim):
    r = Resource(sim)
    log = []
    r.hold(10.0, log.append, ("a",))
    r.hold(10.0, log.append, ("b",))
    assert r.in_use
    assert r.queue_length == 1
    assert r.peak_queue_length == 1
    assert r.free_at == 20.0
    sim.run(until=10.0)
    assert log == ["a"]
    # The second hold is granted at 10, so a read there counts it served.
    assert r.in_use and r.queue_length == 0
    assert r.packets_carried == 2


def test_queued_holds_end_in_fifo_order(sim):
    r = Resource(sim)
    log = []
    for name in ("a", "b", "c", "d"):
        r.hold(5.0, log.append, (name,))
    assert r.queue_length == 3
    # Each queued hold is granted when the one before it ends, and its
    # continuation was scheduled at booking for its own end.
    for t, expected, waiting in ((5.5, "a", 2), (10.5, "ab", 1),
                                 (15.5, "abc", 0)):
        sim.run(until=t)
        assert "".join(log) == expected
        assert r.queue_length == waiting
    sim.run()
    assert log == ["a", "b", "c", "d"]
    assert not r.in_use


def test_hold_serialises_holders(sim):
    r = Resource(sim)
    log = []
    for name in ("a", "b"):
        r.hold(10.0, lambda name=name: log.append((sim.now, name)), ())
    sim.run()
    assert log == [(10.0, "a"), (20.0, "b")]
    assert not r.in_use


def test_idle_unit_grants_on_arrival(sim):
    r = Resource(sim)
    assert r.book(4.0, 0) == 0.0 and r.packets_carried == 1
    # A hold arriving at a held unit is granted when it frees.
    assert r.grant_time() == 4.0
    log = []
    r.hold(3.0, lambda: log.append(sim.now), ())
    assert r.queue_length == 1
    sim.run()
    assert log == [7.0]
    # Once the unit has idled, a hold is granted at its arrival.
    sim.schedule(2.0, r.hold, 1.0, lambda: log.append(sim.now), ())
    sim.run()
    assert log == [7.0, 10.0]
    assert r.busy_ns == 8.0


def test_utilization_accounting(sim):
    r = Resource(sim)
    # Held for 30 ns, then idle until a last event at 100 ns.
    r.hold(30.0, sim.schedule, (70.0, lambda: None))
    sim.run()
    assert r.busy_ns == 30.0
    assert r.utilization() == pytest.approx(0.3)
