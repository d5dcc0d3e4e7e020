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
    sim = Simulator()
    c = SyncCounter(sim)
    total = sum(increments)
    targets = data.draw(
        st.lists(st.integers(0, total + 5), min_size=1, max_size=8, unique=True)
    )
    events = {t: c.wait_for(t) for t in targets}
    for inc in increments:
        c.increment(inc)
    for t, ev in events.items():
        assert ev.triggered == (t <= total)
    assert c.count == total


@given(st.lists(st.integers(1, 5), min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_counter_firing_order_is_threshold_order(increments):
    sim = Simulator()
    c = SyncCounter(sim)
    fired = []
    total = sum(increments)
    for t in range(1, total + 1):
        c.wait_for(t).add_callback(lambda e, t=t: fired.append(t))
    for inc in increments:
        c.increment(inc)
    sim.run()
    assert fired == sorted(fired) == list(range(1, total + 1))


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
    """Against a plain reference model, over interleaved ``wait_for``
    (at, below or above the count), ``increment`` and ``reset``: every
    threshold fires exactly once, right after the increment that
    reaches it (or at once, if already reached), in target order, and
    a reset with waiters pending raises."""
    sim = Simulator()
    c = SyncCounter(sim)
    fired = []  # (target, count when its callback ran)
    expected = []
    count = 0
    pending: dict = {}  # target -> the shared event
    for op, arg in ops:
        if op == "wait":
            target = max(0, count + arg)
            ev = c.wait_for(target)
            if target <= count:
                assert ev.triggered
                expected.append((target, count))
                ev.add_callback(lambda e, t=target: fired.append((t, c.count)))
            elif target in pending:
                assert ev is pending[target]
            else:
                assert not ev.triggered
                pending[target] = ev
                ev.add_callback(lambda e, t=target: fired.append((t, c.count)))
        elif op == "inc":
            c.increment(arg)
            count += arg
            for t in sorted(t for t in pending if t <= count):
                del pending[t]
                expected.append((t, count))
        elif pending:
            with pytest.raises(RuntimeError):
                c.reset()
        else:
            c.reset()
            count = 0
        sim.run()
        assert c.count == count
        assert c.pending_targets() == sorted(pending)
        assert fired == expected
