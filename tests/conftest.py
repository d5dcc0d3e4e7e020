"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc

import pytest

from repro.asic import build_machine
from repro.asic.slice_ import poll_step, run_programs, write_step
from repro.engine import Simulator


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the ambient observatory ledger at a per-test temp file so
    tests that drive ``main()`` never write ``.repro-ledger.jsonl``
    into the developer's working directory.  Tests that want a
    specific ledger still override via ``--ledger``/``--no-ledger`` or
    their own ``REPRO_LEDGER``."""
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "test-ledger.jsonl"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def machine222(sim):
    """A small 2x2x2 Anton machine (8 nodes)."""
    return build_machine(sim, 2, 2, 2)


@pytest.fixture
def machine444(sim):
    """A 4x4x4 Anton machine (64 nodes)."""
    return build_machine(sim, 4, 4, 4)


def run_exchange(sim, src_slice, dst_slice, *, payload_bytes=0, payload=None,
                 buffer="rx", counter="c", slot=0, expected=1):
    """Send one counted remote write and poll for it; returns the
    receiver's completion time in ns."""
    if not dst_slice.memory.has_buffer(buffer):
        dst_slice.memory.allocate(buffer, max(expected, slot + 1))
    return run_programs(sim, [
        (src_slice, [write_step(dst_slice.node, dst_slice.name,
                                counter_id=counter, address=(buffer, slot),
                                payload=payload, payload_bytes=payload_bytes)]),
        (dst_slice, [poll_step(counter, expected)]),
    ])


def gc_growth(action, n):
    """Growth of the GC-tracked object count over ``n`` calls of
    ``action(i)``, with the collector off so nothing is reclaimed."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(n):
            action(i)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()
