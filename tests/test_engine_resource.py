"""Unit tests for FCFS resources."""

import pytest

from repro.engine import Resource


def test_resource_grants_up_to_capacity(sim):
    r = Resource(sim, capacity=2)
    e1, e2, e3 = r.request(), r.request(), r.request()
    assert e1.triggered and e2.triggered
    assert not e3.triggered
    assert r.in_use == 2
    assert r.queue_length == 1


def test_release_wakes_fifo_order(sim):
    r = Resource(sim, capacity=1)
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


def test_invalid_capacity(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_use_serialises_processes(sim):
    r = Resource(sim, capacity=1)
    log = []

    def worker(name):
        yield from r.use(10.0)
        log.append((sim.now, name))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert log == [(10.0, "a"), (20.0, "b")]


def test_try_acquire_fast_path(sim):
    r = Resource(sim, capacity=1)
    assert r.try_acquire()
    assert not r.try_acquire()
    r.release()
    assert r.try_acquire()


def test_utilization_accounting(sim):
    r = Resource(sim, capacity=1)

    def worker():
        yield from r.use(30.0)
        yield sim.timeout(70.0)

    sim.process(worker())
    sim.run()
    assert r.utilization() == pytest.approx(0.3)
