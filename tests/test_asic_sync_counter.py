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


def test_negative_target_rejected(sim):
    c = SyncCounter(sim)
    with pytest.raises(ValueError):
        c.on_target(-1, print, ())


def test_reset_for_reuse(sim):
    c = SyncCounter(sim)
    c.increment(7)
    c.reset()
    assert c.count == 0
    assert c.epoch == 1
    fired = []
    c.on_target(1, fired.append, (1,))
    assert fired == []
    c.increment()
    assert fired == [1]


def test_reset_with_pending_waiters_raises(sim):
    """Resetting while a phase still expects packets is a software bug
    the model surfaces immediately."""
    c = SyncCounter(sim)
    c.on_target(10, print, ())
    with pytest.raises(RuntimeError, match="waiters pending"):
        c.reset()


def test_reused_counter_fires_each_phase_in_order(sim):
    """Reset after the consuming poll, a counter serves phase after
    phase: within each epoch, a continuation that fills the slot again
    fires at each target in ascending order, and the running total
    keeps every increment."""
    c = SyncCounter(sim)
    fired = []

    def step(phase, target):
        fired.append((phase, target, c.count))
        if target < 3:
            c.on_target(target + 1, step, (phase, target + 1))

    for phase in range(3):
        c.on_target(1, step, (phase, 1))
        for _ in range(3):
            c.increment()
        c.reset()
    assert fired == [(p, t, t) for p in range(3) for t in (1, 2, 3)]
    assert (c.count, c.epoch, c.total_increments) == (0, 3, 9)


def test_overshoot_counts_are_kept(sim):
    c = SyncCounter(sim)
    fired = []
    c.on_target(2, fired.append, (2,))
    c.increment(10)
    assert fired == [2]
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
    c.on_target(2, print, ())
    assert c.pending_targets() == [2]
    with pytest.raises(RuntimeError, match=r"waiters pending at thresholds \[2\]"):
        c.reset()
