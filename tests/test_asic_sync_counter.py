"""Unit tests for synchronization counters."""

import pytest

from repro.asic import SyncCounter


def test_increment_and_count(sim):
    c = SyncCounter(sim)
    c.increment()
    c.increment(3)
    assert c.count == 4
    assert c.total_increments == 4


def test_increment_must_be_positive(sim):
    c = SyncCounter(sim)
    with pytest.raises(ValueError):
        c.increment(0)


def test_wait_for_fires_at_threshold(sim):
    c = SyncCounter(sim)
    ev = c.wait_for(3)
    c.increment(2)
    assert not ev.triggered
    c.increment()
    assert ev.triggered


def test_wait_for_already_reached(sim):
    c = SyncCounter(sim)
    c.increment(5)
    assert c.wait_for(5).triggered
    assert c.wait_for(2).triggered


def test_waiters_share_one_event(sim):
    c = SyncCounter(sim)
    assert c.wait_for(4) is c.wait_for(4)


def test_multiple_thresholds_fire_in_order(sim):
    c = SyncCounter(sim)
    fired = []
    for target in (2, 5, 3):
        c.wait_for(target).add_callback(lambda e, t=target: fired.append(t))
    c.increment(5)
    sim.run()
    assert fired == [2, 3, 5]


def test_negative_target_rejected(sim):
    c = SyncCounter(sim)
    with pytest.raises(ValueError):
        c.wait_for(-1)


def test_reset_for_reuse(sim):
    c = SyncCounter(sim)
    c.increment(7)
    c.reset()
    assert c.count == 0
    assert c.epoch == 1
    ev = c.wait_for(1)
    c.increment()
    assert ev.triggered


def test_reset_with_pending_waiters_raises(sim):
    """Resetting while a phase still expects packets is a software bug
    the model surfaces immediately."""
    c = SyncCounter(sim)
    c.wait_for(10)
    with pytest.raises(RuntimeError, match="waiters pending"):
        c.reset()


def test_reused_counter_fires_each_phase_in_order(sim):
    """Reset after the consuming poll, a counter serves phase after
    phase: each epoch's thresholds fire in ascending order, and the
    running total keeps every increment."""
    c = SyncCounter(sim)
    fired = []
    for phase in range(3):
        for target in (3, 1, 2):
            c.wait_for(target).add_callback(
                lambda e, p=phase, t=target: fired.append((p, t))
            )
        c.increment(3)
        sim.run()
        c.reset()
    assert fired == [(p, t) for p in range(3) for t in (1, 2, 3)]
    assert (c.count, c.epoch, c.total_increments) == (0, 3, 9)


def test_overshoot_counts_are_kept(sim):
    c = SyncCounter(sim)
    ev = c.wait_for(2)
    c.increment(10)
    assert ev.triggered
    assert c.count == 10


def test_on_target_runs_inside_the_increment(sim):
    """The continuation runs in the reaching increment's own call: no
    event is scheduled for it."""
    c = SyncCounter(sim)
    fired = []
    c.on_target(3, fired.append, ("go",))
    c.increment(2)
    assert fired == []
    c.increment()
    assert fired == ["go"]
    assert sim.pending == 0
    assert c.pending_targets() == []


def test_on_target_already_reached_runs_at_once(sim):
    c = SyncCounter(sim)
    c.increment(2)
    fired = []
    c.on_target(2, fired.append, (1,))
    assert fired == [1]


def test_on_target_runs_after_the_increments_waiter_events(sim):
    c = SyncCounter(sim)
    ev = c.wait_for(1)
    seen = []
    c.on_target(1, lambda: seen.append(ev.triggered), ())
    c.increment()
    assert seen == [True]


def test_on_target_has_one_slot(sim):
    c = SyncCounter(sim)
    c.on_target(2, print, ())
    with pytest.raises(RuntimeError, match="already continues"):
        c.on_target(3, print, ())


def test_on_target_may_fill_the_next_slot(sim):
    """A continuation may register the next one on the same counter."""
    c = SyncCounter(sim)
    fired = []

    def step(n):
        fired.append(n)
        c.on_target(n + 1, step, (n + 1,))

    c.on_target(1, step, (1,))
    c.increment(2)
    assert fired == [1, 2]
    assert c.pending_targets() == [3]
    c.increment()
    assert fired == [1, 2, 3]


def test_reset_with_pending_continuation_raises(sim):
    c = SyncCounter(sim)
    c.wait_for(4)
    c.on_target(2, print, ())
    assert c.pending_targets() == [2, 4]
    with pytest.raises(RuntimeError, match=r"waiters pending at thresholds \[2, 4\]"):
        c.reset()
