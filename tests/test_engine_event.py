"""Unit tests for the event primitives."""

import pytest


def test_event_starts_pending(sim):
    ev = sim.event()
    assert not ev.triggered
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_succeed_carries_value(sim):
    ev = sim.event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.value == 42


def test_double_trigger_rejected(sim):
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


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
