"""Unit tests for accumulation memories."""

import numpy as np
import pytest

from repro.asic.slice_ import Join, Steps, accum_step, poll_accum_step
from repro.constants import ACCUM_POLL_NS, POLL_SUCCESS_NS


def _send_accums(sim, machine, values, address="f"):
    src = machine.node((0, 0, 0)).slice(0)
    accum = machine.node((1, 0, 0)).accum[0]

    Steps(src, [
        accum_step((1, 0, 0), "accum0", counter_id="c", address=address,
                   payload=v, payload_bytes=8)
        for v in values
    ]).start()
    sim.run()
    return accum


def test_scalar_accumulation(sim, machine222):
    accum = _send_accums(sim, machine222, [1.5, 2.5, -1.0])
    assert accum.value("f") == pytest.approx(3.0)
    assert accum.accum_packets == 3
    assert accum.counter("c").count == 3


def test_array_accumulation(sim, machine222):
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, 0.5, 0.5])
    accum = _send_accums(sim, machine222, [a, b])
    np.testing.assert_allclose(accum.value("f"), [1.5, 2.5, 3.5])


def test_packed_item_accumulation(sim, machine222):
    """A packed packet accumulates each (key, quantity) pair at its own
    fine-grained address (the 4-byte-quantity semantics of §III.A)."""
    payload = [(0, np.array([1.0, 0.0, 0.0])), (3, np.array([0.0, 2.0, 0.0]))]
    accum = _send_accums(sim, machine222, [payload, payload], address="pack")
    np.testing.assert_allclose(accum.value(("item", 0)), [2.0, 0.0, 0.0])
    np.testing.assert_allclose(accum.value(("item", 3)), [0.0, 4.0, 0.0])


def test_untouched_address_reads_zero(sim, machine222):
    accum = machine222.node((0, 0, 0)).accum[1]
    assert accum.value("nothing") == 0.0


def test_clear(sim, machine222):
    accum = _send_accums(sim, machine222, [5.0])
    accum.clear("f")
    assert accum.value("f") == 0.0
    accum2 = _send_accums(sim, machine222, [5.0], address="g")


def test_accum_counter_polled_across_ring_costs_more(sim, machine222):
    """Accumulation-memory counters are polled by a slice over the
    on-chip network — noticeably slower than a local poll (§III.B)."""
    assert ACCUM_POLL_NS > POLL_SUCCESS_NS
    node = machine222.node((1, 0, 0))
    src = machine222.node((0, 0, 0)).slice(0)
    poller = node.slice(0)
    join = Join(sim, 2)
    Steps(src, [accum_step((1, 0, 0), "accum0", counter_id="c", address="f",
                           payload=1.0, payload_bytes=8)], join.ended).start()
    sim.schedule(5_000.0, Steps.start, Steps(
        poller, [poll_accum_step(node.accum[0], "c", 1)], join.ended))
    assert sim.run(until=join.done) == pytest.approx(5_000.0 + ACCUM_POLL_NS)


def test_remote_slice_cannot_poll_accum(sim, machine222):
    remote = machine222.node((0, 0, 0)).slice(0)
    accum = machine222.node((1, 0, 0)).accum[0]

    with pytest.raises(ValueError, match="same node"):
        remote.poll_accum_then(accum, "c", 1, print, ())


def test_accum_packet_without_address_rejected(sim, machine222):
    src = machine222.node((0, 0, 0)).slice(0)

    Steps(src, [accum_step((1, 0, 0), "accum0", counter_id="c", address=None,
                           payload_bytes=4)]).start()
    with pytest.raises(ValueError, match="without a target address"):
        sim.run()


def test_accumulation_memories_cannot_send():
    """The paper: accumulation memories cannot send packets — the model
    gives them no send continuation."""
    from repro.asic import AccumulationMemory

    assert not hasattr(AccumulationMemory, "send_then")
    assert not hasattr(AccumulationMemory, "packet")
