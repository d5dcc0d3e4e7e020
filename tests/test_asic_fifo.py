"""Unit tests for the hardware message FIFO (§III.C)."""

import pytest

from repro.asic import MessageFifo
from repro.network.packet import FifoPacket
from repro.topology import NodeCoord

A, B = NodeCoord(0, 0, 0), NodeCoord(1, 0, 0)


def pkt(i=0):
    return FifoPacket(
        src_node=A, src_client="slice0", dst_node=B, dst_client="slice0",
        payload=i, payload_bytes=8,
    )


def test_fifo_order_preserved():
    f = MessageFifo(capacity=8)
    for i in range(5):
        f.push(pkt(i))
    out = [f.try_poll().payload for _ in range(5)]
    assert out == [0, 1, 2, 3, 4]
    assert f.try_poll() is None


def test_slot_hands_over_inside_push(sim):
    """The continuation runs inside the event of the push that brings
    the message, which never enters the ring."""
    f = MessageFifo(capacity=4)
    got = []
    f.on_message(lambda tag, p: got.append((tag, sim.now, p.payload)), ("a",))
    sim.schedule(50.0, f.push, pkt(7))
    sim.run()
    assert got == [("a", 50.0, 7)]
    assert sim.events_executed == 1  # the push alone
    assert (f.occupancy, f.high_watermark) == (0, 0)
    assert (f.total_received, f.total_consumed) == (1, 1)
    # The slot is empty again: the next message goes to the ring.
    f.push(pkt(8))
    assert got == [("a", 50.0, 7)] and f.occupancy == 1


def test_slot_runs_at_once_on_a_queued_message():
    f = MessageFifo(capacity=4)
    f.push(pkt(1))
    f.push(pkt(2))
    got = []
    f.on_message(got.append, ())
    assert [p.payload for p in got] == [1]
    assert f.occupancy == 1 and f.total_consumed == 1
    # Nothing is left in the slot.
    f.push(pkt(3))
    assert [p.payload for p in got] == [1]


def test_second_registration_raises():
    f = MessageFifo(capacity=4, name="s0")
    f.on_message(print, ())
    with pytest.raises(RuntimeError, match="already continues"):
        f.on_message(print, ())


def test_clear_slot_withdraws_the_continuation():
    f = MessageFifo(capacity=4)
    got = []
    f.on_message(got.append, ())
    f.clear_slot()
    f.push(pkt(1))
    # The withdrawn continuation must not have consumed the message.
    assert got == []
    assert f.try_poll().payload == 1
    # An empty slot clears too, and can be filled again.
    f.clear_slot()
    f.on_message(got.append, ())
    f.push(pkt(2))
    assert [p.payload for p in got] == [2]


def test_backpressure_overflow_and_drain():
    f = MessageFifo(capacity=2)
    for i in range(5):
        f.push(pkt(i))
    assert f.occupancy == 2
    assert f.backpressure_stalls == 3
    out = []
    while (p := f.try_poll()) is not None:
        out.append(p.payload)
    assert out == [0, 1, 2, 3, 4]  # parked packets admitted in order


def test_high_watermark():
    f = MessageFifo(capacity=8)
    for i in range(6):
        f.push(pkt(i))
    f.try_poll()
    assert f.high_watermark == 6


def test_counters():
    f = MessageFifo(capacity=4)
    f.push(pkt())
    f.push(pkt())
    f.try_poll()
    assert f.total_received == 2
    assert f.total_consumed == 1
    assert len(f) == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        MessageFifo(capacity=0)
