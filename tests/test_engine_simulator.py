"""Unit tests for the simulator core."""

import pytest

from repro.engine import Event, Simulator
from repro.profile.profiler import EngineProfiler
from tests.conftest import gc_growth

#: How to equip a fresh simulator so :meth:`Simulator.run` takes each
#: of its loop bodies: bare, observed by the profiler, and observed by
#: a no-op monitor hook on a grid finer than the tests' instants.
BODIES = {
    "bare": lambda sim: None,
    "profiled": lambda sim: EngineProfiler().attach(sim),
    "monitored": lambda sim: sim.set_monitor_hook(lambda t: None, 0.5),
}


def bodies():
    """Yield ``(name, sim)``: one fresh simulator per loop body."""
    for name, equip in BODIES.items():
        sim = Simulator()
        equip(sim)
        yield name, sim


def snapshot(sim, seen):
    """What every loop body must leave identical."""
    return list(seen), sim.pending, sim.events_executed, sim.now


def test_schedule_runs_in_time_order(sim):
    seen = []
    sim.schedule(5.0, seen.append, "b")
    sim.schedule(2.0, seen.append, "a")
    sim.schedule(9.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_preserves_scheduling_order(sim):
    seen = []
    for tag in range(20):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(20))


def test_schedule_into_past_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_time_stops_clock_exactly():
    for body, sim in bodies():
        seen = []
        sim.schedule(10.0, seen.append, "late")
        sim.run(until=4.0)
        assert snapshot(sim, seen) == ([], 1, 0, 4.0), body
        sim.run()
        assert snapshot(sim, seen) == (["late"], 0, 1, 10.0), body


def test_run_until_past_time_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event(sim):
    ev = Event()
    sim.schedule(3.0, ev.succeed, "payload")
    sim.schedule(99.0, lambda: None)
    assert sim.run(until=ev) == "payload"
    assert sim.now == 3.0


def test_run_until_never_triggered_event_is_deadlock(sim):
    ev = Event()
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(until=ev)


def test_empty_run_is_noop(sim):
    sim.run()
    assert sim.now == 0.0


def test_determinism_across_runs():
    def build_and_run():
        s = Simulator()
        seen = []

        def tick(name, i):
            seen.append((s.now, name, i))
            if i < 4:
                s.schedule(1.5 * (i + 2), tick, name, i + 1)

        for n in ("x", "y", "z"):
            s.schedule(1.5, tick, n, 0)
        s.run()
        return seen

    assert build_and_run() == build_and_run()


def test_run_until_fired_event_returns_before_running_anything():
    """A stop event that already fired yields its value at once,
    leaving the queue and the clock untouched."""
    for body, sim in bodies():
        seen = []
        done = Event()
        sim.schedule(1.0, done.succeed, "value")
        sim.run()
        sim.schedule(2.0, seen.append, "unrelated")
        # Succeeded and drained.
        assert sim.run(until=done) == "value", body
        assert snapshot(sim, seen) == ([], 1, 1, 1.0), body
        # Succeeded as it is built, never queued.
        built = Event()
        built.succeed("built")
        assert sim.run(until=built) == "built", body
        assert snapshot(sim, seen) == ([], 1, 1, 1.0), body
        sim.run()
        assert snapshot(sim, seen) == (["unrelated"], 0, 2, 3.0), body


def test_stop_event_mid_bucket_resumes_the_instant_in_order():
    for body, sim in bodies():
        seen = []
        ev = Event()
        sim.schedule(1.0, seen.append, "a")
        # Appends "e" behind the bucket while it drains.
        sim.schedule(1.0, sim.schedule, 0.0, seen.append, "e")
        sim.schedule(1.0, ev.succeed, "stop")
        sim.schedule(1.0, seen.append, "b")
        sim.schedule(1.0, lambda: seen.append("c"))
        sim.schedule(2.0, seen.append, "later")
        assert sim.run(until=ev) == "stop", body
        assert snapshot(sim, seen) == (["a"], 4, 3, 1.0), body
        # A same-instant schedule between runs queues behind the remainder.
        sim.schedule(0.0, seen.append, "d")
        assert sim.pending == 5, body
        sim.run()
        assert snapshot(sim, seen) == (
            ["a", "b", "c", "e", "d", "later"], 0, 8, 2.0), body


def test_crash_mid_bucket_leaves_the_remainder_pending():
    """An action appended while the run's first instant drains raises:
    the run stops there, and the rest of the instant runs next time."""
    def crash():
        raise ValueError("boom")

    for body, sim in bodies():
        seen = []
        sim.schedule(0.0, seen.append, "a")
        sim.schedule(0.0, sim.schedule, 0.0, crash)
        sim.schedule(0.0, seen.append, "b")
        sim.schedule(0.0, lambda: seen.append("c"))
        sim.schedule(0.0, sim.schedule, 0.0, seen.append, "e")
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert snapshot(sim, seen) == (["a", "b", "c"], 1, 6, 0.0), body
        sim.run()
        assert snapshot(sim, seen) == (
            ["a", "b", "c", "e"], 0, 7, 0.0), body


def test_exception_mid_bucket_leaves_the_remainder_pending():
    def fail():
        raise KeyError("escaped")

    for body, sim in bodies():
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(1.0, sim.schedule, 0.0, seen.append, "e")
        sim.schedule(1.0, fail)
        sim.schedule(1.0, seen.append, "b")
        sim.schedule(1.0, lambda: seen.append("c"))
        with pytest.raises(KeyError):
            sim.run()
        assert snapshot(sim, seen) == (["a"], 3, 3, 1.0), body
        sim.run()
        assert snapshot(sim, seen) == (
            ["a", "b", "c", "e"], 0, 6, 1.0), body


def test_monitor_hook_samples_each_grid_time_between_instants(sim):
    """The hook runs once per grid time ``k·Δ`` crossed, idle gaps
    included, with the clock on that grid time, every event at or
    before it executed and every later one pending; a run that stops
    mid-bucket and is resumed changes none of that."""
    observed = []

    def hook(t):
        observed.append((t, sim.now, sim.pending, sim.events_executed))

    stop = Event()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.schedule(2.0, stop.succeed)
    sim.schedule(2.0, sim.schedule, 0.0, lambda: None)  # appended at t=2
    sim.schedule(2.0, lambda: None)
    sim.schedule(7.5, lambda: None)  # after an idle gap over t=4 and t=6
    sim.set_monitor_hook(hook, 2.0)
    sim.run(until=stop)
    assert observed == [(0.0, 0.0, 6, 0)]
    sim.run()
    assert observed[1:] == [
        (2.0, 2.0, 1, 6),  # the whole t=2 instant, appended event included
        (4.0, 4.0, 1, 6),
        (6.0, 6.0, 1, 6),
    ]
    assert (sim.now, sim.pending, sim.events_executed) == (7.5, 0, 7)
    # A reinstalled grid starts at the first grid time at or after now.
    sim.set_monitor_hook(hook, 2.0)
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert observed[4:] == [(8.0, 8.0, 1, 7), (10.0, 10.0, 1, 7)]
    with pytest.raises(ValueError, match="interval_ns"):
        sim.set_monitor_hook(hook, 0.0)


def test_schedule_tracks_one_object_per_event(sim):
    """A bucket holds ``fn`` and ``args`` as two slots: the args tuple
    is the only GC-tracked object an event adds (no entry tuple)."""
    n = 2000

    def action(_ev):  # a plain function: no bound method either
        pass

    growth = gc_growth(lambda i: sim.schedule(1.0, action, i), n)
    assert n <= growth < n + 16
    assert sim.pending == n
    sim.run()
    assert sim.events_executed == n
