"""Property-based tests for synchronization counters and the FIFO."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import MessageFifo, SyncCounter
from repro.engine import Simulator
from repro.network.packet import FifoPacket
from repro.topology import NodeCoord


@given(st.lists(st.integers(1, 10), min_size=1, max_size=30), st.data())
@settings(max_examples=120, deadline=None)
def test_counter_thresholds_fire_iff_reached(increments, data):
    """A continuation fires iff its target is reached, once, at the
    increment that reaches it."""
    sim = Simulator()
    c = SyncCounter(sim)
    total = sum(increments)
    target = data.draw(st.integers(0, total + 5))
    fired = []
    c.on_target(target, lambda: fired.append(c.count), ())
    count = 0
    for inc in increments:
        before = count
        count += inc
        c.increment(inc)
        if before < target <= count:
            assert fired == [count]
    assert len(fired) == (1 if target <= total else 0)
    assert c.count == total


@given(st.lists(st.integers(1, 5), min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_counter_firing_order_is_threshold_order(increments):
    """A continuation that fills the slot again with the next target
    sees every target in ascending order, each at a count reaching
    it."""
    sim = Simulator()
    c = SyncCounter(sim)
    fired = []
    total = sum(increments)

    def step(t):
        fired.append(t)
        assert c.count >= t
        if t < total:
            c.on_target(t + 1, step, (t + 1,))

    c.on_target(1, step, (1,))
    for inc in increments:
        c.increment(inc)
    assert fired == list(range(1, total + 1))
    assert sim.pending == 0


@given(st.integers(1, 16), st.lists(st.integers(0, 1000), max_size=40))
@settings(max_examples=100, deadline=None)
def test_fifo_never_loses_or_reorders(capacity, payloads):
    """Whatever the capacity and arrival pattern, draining the FIFO
    yields every message in arrival order (backpressure parks
    overflow, §III.C)."""
    f = MessageFifo(capacity=capacity)
    a, b = NodeCoord(0, 0, 0), NodeCoord(1, 0, 0)
    for p in payloads:
        f.push(FifoPacket(src_node=a, src_client="slice0", dst_node=b,
                          dst_client="slice0", payload=p, payload_bytes=8))
    out = []
    while (pkt := f.try_poll()) is not None:
        out.append(pkt.payload)
    assert out == payloads
    assert f.total_received == len(payloads)
    assert f.total_consumed == len(payloads)


_counter_ops = st.lists(
    st.one_of(
        st.tuples(st.just("wait"), st.integers(-2, 6)),
        st.tuples(st.just("inc"), st.integers(1, 4)),
        st.tuples(st.just("reset"), st.just(0)),
    ),
    max_size=40,
)


@given(_counter_ops)
@settings(max_examples=200, deadline=None)
def test_interleaved_thresholds_fire_once_at_their_count(ops):
    """Against a plain reference model, over interleaved ``on_target``
    (at, below or above the count), ``increment`` and ``reset``: a
    continuation runs exactly once, inside the increment that reaches
    its target (or at once, if already reached); filling a full slot
    raises, and so does a reset with the slot full."""
    sim = Simulator()
    c = SyncCounter(sim)
    fired = []  # (target, count when its continuation ran)
    expected = []
    count = 0
    pending = None  # the target in the slot
    for op, arg in ops:
        if op == "wait":
            target = max(0, count + arg)
            if target <= count:
                c.on_target(target, lambda t=target: fired.append((t, c.count)), ())
                expected.append((target, count))
            elif pending is not None:
                with pytest.raises(RuntimeError, match="already continues"):
                    c.on_target(target, print, ())
            else:
                c.on_target(target, lambda t=target: fired.append((t, c.count)), ())
                pending = target
        elif op == "inc":
            c.increment(arg)
            count += arg
            if pending is not None and pending <= count:
                expected.append((pending, count))
                pending = None
        elif pending is not None:
            with pytest.raises(RuntimeError):
                c.reset()
        else:
            c.reset()
            count = 0
        assert sim.pending == 0
        assert c.count == count
        assert c.pending_targets() == ([] if pending is None else [pending])
        assert fired == expected
