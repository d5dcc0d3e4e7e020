"""Unit tests for FCFS resources, occupied through ``hold``."""

import pytest

from repro.asic.slice_ import hold
from repro.engine import Resource


def test_resource_grants_one_holder_at_a_time(sim):
    r = Resource(sim)
    log = []
    hold(r, 10.0, log.append, ("a",))
    hold(r, 10.0, log.append, ("b",))
    assert r.in_use
    assert r.queue_length == 1
    assert r.peak_queue_length == 1
    sim.run(until=10.0)
    assert log == ["a"]
    assert r.in_use and r.queue_length == 0


def test_release_wakes_fifo_order(sim):
    r = Resource(sim)
    log = []
    for name in ("a", "b", "c", "d"):
        hold(r, 5.0, log.append, (name,))
    assert r.queue_length == 3
    # Each release starts the head waiter's hold in an event of its
    # own at the releasing instant.
    for t, expected, waiting in ((5.0, "a", 2), (10.0, "ab", 1),
                                 (15.0, "abc", 0)):
        sim.run(until=t)
        assert "".join(log) == expected
        assert r.queue_length == waiting
    sim.run()
    assert log == ["a", "b", "c", "d"]
    assert not r.in_use


def test_release_without_request_raises(sim):
    r = Resource(sim)
    with pytest.raises(RuntimeError):
        r.release()


def test_hold_serialises_holders(sim):
    r = Resource(sim)
    log = []
    for name in ("a", "b"):
        hold(r, 10.0, lambda name=name: log.append((sim.now, name)), ())
    sim.run()
    assert log == [(10.0, "a"), (20.0, "b")]
    assert not r.in_use


def test_try_acquire_fast_path(sim):
    r = Resource(sim)
    assert r.try_acquire()
    assert not r.try_acquire()
    r.release()
    assert r.try_acquire()
    # A hold arriving at a held unit waits for the release.
    log = []
    hold(r, 3.0, lambda: log.append(sim.now), ())
    assert r.queue_length == 1
    sim.schedule(2.0, r.release)
    sim.run()
    assert log == [5.0]


def test_utilization_accounting(sim):
    r = Resource(sim)
    # Held for 30 ns, then idle until a last event at 100 ns.
    hold(r, 30.0, sim.schedule, (70.0, lambda: None))
    sim.run()
    assert r.utilization() == pytest.approx(0.3)
