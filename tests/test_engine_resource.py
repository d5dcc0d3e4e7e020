"""Unit tests for FCFS resources."""

import pytest

from repro.asic.slice_ import hold
from repro.engine import Resource


def test_resource_grants_one_holder_at_a_time(sim):
    r = Resource(sim)
    e1, e2 = r.request(), r.request()
    assert e1.triggered
    assert not e2.triggered
    assert r.in_use
    assert r.queue_length == 1


def test_release_wakes_fifo_order(sim):
    r = Resource(sim)
    first = r.request()
    waiters = [r.request() for _ in range(3)]
    assert first.triggered
    r.release()
    assert waiters[0].triggered and not waiters[1].triggered
    r.release()
    assert waiters[1].triggered and not waiters[2].triggered


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


def test_utilization_accounting(sim):
    r = Resource(sim)
    # Held for 30 ns, then idle until a last event at 100 ns.
    hold(r, 30.0, sim.schedule, (70.0, lambda: None))
    sim.run()
    assert r.utilization() == pytest.approx(0.3)
