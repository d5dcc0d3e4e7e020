"""Unit tests for the event primitives."""

import pytest

from repro.engine import AllOf, Event, Simulator, Timeout


def test_event_starts_pending(sim):
    ev = sim.event()
    assert not ev.triggered
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_succeed_carries_value(sim):
    ev = sim.event()
    ev.succeed(42)
    assert ev.triggered and ev.ok
    assert ev.value == 42


def test_double_trigger_rejected(sim):
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_fail_requires_exception(sim):
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callback_runs_at_trigger_time(sim):
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(sim.now))
    sim.schedule(10.0, ev.succeed)
    sim.run()
    assert seen == [10.0]


def test_callback_on_already_triggered_event_still_runs(sim):
    ev = sim.event()
    ev.succeed(7)
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [7]


def test_timeout_fires_after_delay(sim):
    t = sim.timeout(25.0, value="done")
    sim.run()
    assert t.triggered
    assert t.value == "done"
    assert sim.now == 25.0


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_name_and_repr_show_the_delay(sim):
    t = sim.timeout(12.5)
    assert t.name == "timeout(12.5)"
    assert "timeout(12.5)" in repr(t)
    sim.run()
    with pytest.raises(RuntimeError, match=r"timeout\(12\.5\)"):
        t.succeed()


def test_all_of_waits_for_every_child(sim):
    a, b = sim.event(), sim.event()
    both = sim.all_of([a, b])
    sim.schedule(5.0, a.succeed, 1)
    sim.schedule(9.0, b.succeed, 2)
    sim.run()
    assert both.triggered
    assert both.value == {a: 1, b: 2}
    assert sim.now == 9.0


def test_all_of_already_triggered_children(sim):
    a, b = sim.event(), sim.event()
    a.succeed("x")
    b.succeed("y")
    both = sim.all_of([a, b])
    assert both.triggered


def test_all_of_propagates_failure(sim):
    a, b = sim.event(), sim.event()
    both = sim.all_of([a, b])
    boom = ValueError("boom")
    sim.schedule(1.0, a.fail, boom)

    def waiter():
        with pytest.raises(ValueError):
            yield both

    sim.process(waiter())
    sim.run()
    assert both.triggered and not both.ok


def test_cross_simulator_events_rejected():
    s1, s2 = Simulator(), Simulator()
    e1 = s1.event()
    e2 = s2.event()
    with pytest.raises(ValueError):
        s1.all_of([e1, e2])
