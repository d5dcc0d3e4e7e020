"""Unit tests for processing slices."""

import pytest

from repro.asic.slice_ import (
    Join, Steps, accum_step, hold, poll_step, work_step, write_step,
)
from repro.constants import POLL_SUCCESS_NS, SLICE_SEND_NS
from tests.conftest import run_exchange


def test_slice_layout(machine222):
    node = machine222.node((0, 0, 0))
    assert len(node.slices) == 4
    s = node.slice(0)
    assert s.name == "slice0"
    assert len(s.geometry) == 2


def test_invalid_slice_index(sim, machine222):
    from repro.asic.slice_ import ProcessingSlice

    with pytest.raises(ValueError):
        ProcessingSlice(sim, machine222.network, (0, 0, 0), 4)


def test_send_write_delivers_payload(sim, machine222):
    a = machine222.node((0, 0, 0)).slice(0)
    b = machine222.node((1, 0, 0)).slice(2)
    run_exchange(sim, a, b, payload=123.25, payload_bytes=8)
    assert b.memory.read(("rx", 0)) == 123.25
    assert a.packets_sent == 1
    assert b.packets_received == 1


def test_sends_serialise_on_tensilica(sim, machine222):
    """Back-to-back sends from one slice are spaced by the 36 ns
    packet-assembly cost."""
    a = machine222.node((0, 0, 0)).slice(0)
    b = machine222.node((1, 0, 0)).slice(0)
    b.memory.allocate("rx", 2)
    times = {}
    Steps(a, [
        write_step((1, 0, 0), "slice0", counter_id="c0", address=("rx", 0),
                   payload_bytes=0),
        write_step((1, 0, 0), "slice0", counter_id="c1", address=("rx", 1),
                   payload_bytes=0),
    ]).start()
    # Observe raw arrival times via the counters' continuations so the
    # receiver's own poll cost does not obscure the send spacing.
    for i in (0, 1):
        b.counter(f"c{i}").on_target(1, lambda i=i: times.__setitem__(i, sim.now), ())
    sim.run()
    assert times[1] - times[0] == pytest.approx(SLICE_SEND_NS)


def test_poll_costs_42ns_after_arrival(sim, machine222):
    """Polling an already-satisfied counter still pays the successful
    poll cost."""
    a = machine222.node((0, 0, 0)).slice(0)
    b = machine222.node((1, 0, 0)).slice(0)
    b.memory.allocate("rx", 1)
    join = Join(sim, 2)
    Steps(a, [write_step((1, 0, 0), "slice0", counter_id="c",
                         address=("rx", 0), payload_bytes=0)], join.ended).start()
    sim.schedule(10_000.0, Steps.start, Steps(b, [poll_step("c", 1)], join.ended))
    assert sim.run(until=join.done) == pytest.approx(10_000.0 + POLL_SUCCESS_NS)


def test_geometry_cores_run_concurrently(sim, machine222):
    s = machine222.node((0, 0, 0)).slice(0)
    done = []
    for core in (0, 1):
        hold(s.geometry[core], 100.0, lambda c: done.append((c, sim.now)), (core,))
    sim.run()
    assert [t for _, t in done] == [100.0, 100.0]
    assert [core.total_busy_ns for core in s.geometry] == [100.0, 100.0]


def test_same_core_serialises(sim, machine222):
    s = machine222.node((0, 0, 0)).slice(0)
    done = []
    for _ in range(2):
        hold(s.geometry[0], 100.0, lambda: done.append(sim.now), ())
    sim.run()
    assert done == [100.0, 200.0]


def test_send_with_mismatched_source_rejected(sim, machine222):
    from repro.network.packet import WritePacket

    a = machine222.node((0, 0, 0)).slice(0)
    forged = WritePacket(
        src_node=machine222.torus.coord((1, 0, 0)),  # wrong source
        src_client="slice0",
        dst_node=machine222.torus.coord((0, 0, 0)),
        dst_client="slice1",
    )
    with pytest.raises(ValueError, match="does not match"):
        a.inject(forged)


def test_accum_rejects_fifo_and_slices_reject_accum(sim, machine222):
    node = machine222.node((0, 0, 0))
    a = node.slice(0)
    peer = machine222.node((1, 0, 0))

    Steps(a, [accum_step((1, 0, 0), "slice0", counter_id="c", address="x",
                         payload_bytes=4)]).start()
    with pytest.raises((TypeError, RuntimeError)):
        sim.run()


def test_hold_queues_fcfs_behind_a_busy_core(sim, machine222):
    """A hold takes the Tensilica in request order: one that finds the
    core busy starts when the earlier holder releases it."""
    s = machine222.node((0, 0, 0)).slice(0)
    done = {}

    def note(label):
        done[label] = sim.now

    s.hold(50.0, note, ("first",))
    s.hold(20.0, note, ("second",))
    Steps(s, [work_step(30.0)], note, ("work",)).start()
    sim.run()
    assert done == {"first": 50.0, "second": 70.0, "work": 100.0}
    assert s.tensilica.in_use == 0
    assert s.tensilica.total_busy_ns == 100.0


def test_continuation_send_and_poll_time_the_generator_forms(sim, machine222):
    """``send_then``/``poll_then`` charge the 36 ns send and 42 ns poll
    that the removed generator helpers charged: one X hop still costs
    162 ns."""
    from repro.constants import ONE_HOP_X_NS
    from repro.network.packet import PacketKind

    a = machine222.node((0, 0, 0)).slice(0)
    b = machine222.node((1, 0, 0)).slice(0)
    b.memory.allocate("rx", 1)
    done = {}
    packet = a.packet(PacketKind.WRITE, b.node, b.name, 7.0, 0,
                      counter_id="c", address=("rx", 0))
    a.send_then(packet, done.__setitem__, ("sent", True))
    b.poll_then("c", 1, lambda: done.__setitem__("t", sim.now), ())
    sim.run()
    assert done == {"sent": True, "t": ONE_HOP_X_NS}
    assert b.memory.read(("rx", 0)) == 7.0
