"""Unit tests for the stop marker."""

import pytest

from repro.engine import Event


def test_event_starts_pending():
    ev = Event()
    assert not ev.triggered
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_succeed_carries_value():
    ev = Event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.value == 42


def test_double_trigger_rejected():
    ev = Event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
