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


class _DropSink:
    """A bare network client that drops what it receives."""

    def __init__(self, node, name) -> None:
        self.node = node
        self.name = name

    def receive(self, packet) -> None:
        pass


def one_link_pair(sim, second_after=None):
    """Two 256-byte packets from (0,0,0) to a dropping sink at (1,0,0)
    over the x+ link of a bare 4x1x1 network, built under the ambient
    instrument slots.  The first is injected now and the second
    ``second_after`` ns later (default: one serialization later, so its
    hop arrives just as the first frees the link).  Returns (network,
    first, second)."""
    from repro.network.network import Network
    from repro.network.packet import Packet
    from repro.topology.torus import Torus3D

    net = Network(sim, Torus3D(4, 1, 1))
    src, dst = net.torus.coord((0, 0, 0)), net.torus.coord((1, 0, 0))
    net.attach(_DropSink(dst, "rx"))
    first = Packet(src, "tx", dst, "rx", payload_bytes=256)
    second = Packet(src, "tx", dst, "rx", payload_bytes=256)
    if second_after is None:
        second_after = first.serialization_ns
    net.inject(first)
    sim.schedule(second_after, net.inject, second)
    return net, first, second
