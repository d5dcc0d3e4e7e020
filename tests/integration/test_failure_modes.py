"""Failure-injection tests: the model must surface software bugs the
way the real machine would (hangs, counter mismatches, overflow), not
silently absorb them."""

import pytest

from repro.asic import build_machine
from repro.asic.slice_ import Join, Steps, poll_step, run_programs, write_step
from repro.comm import CountedGather, GatherSource
from repro.engine import Simulator
from repro.network.packet import PacketKind


def test_undersent_counted_write_deadlocks_visibly(sim, machine222):
    """A receiver expecting more packets than are ever sent must hang —
    and the simulator must report the deadlock instead of returning a
    bogus completion."""
    target = machine222.node((0, 0, 0)).slice(0)
    src = machine222.node((1, 0, 0)).slice(0)
    target.memory.allocate("g", 4)
    Steps(src, [write_step((0, 0, 0), "slice0", counter_id="g",
                           address=("g", 0), payload_bytes=0)]).start()
    waiter = Join(sim, 1)
    # Expects 3, only 1 arrives.
    Steps(target, [poll_step("g", 3)], waiter.ended).start()
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(until=waiter.done)


def test_oversent_packets_detected_by_counter_state(sim, machine222):
    """Sending more packets than the fixed count leaves the counter
    over target — observable state for debugging tools."""
    target = machine222.node((0, 0, 0)).slice(0)
    src = machine222.node((1, 0, 0)).slice(0)
    target.memory.allocate("g", 4)

    run_programs(sim, [
        (src, [write_step((0, 0, 0), "slice0", counter_id="g",
                          address=("g", i), payload_bytes=0)
               for i in range(4)]),
        (target, [poll_step("g", 2)]),
    ])
    sim.run()  # drain in-flight packets
    assert target.counter("g").count == 4  # overshoot is visible


def test_write_to_wrong_slot_is_a_hard_error(sim, machine222):
    """Mis-programmed remote-write addresses fail loudly (pre-allocated
    receive storage, §IV.A)."""
    src = machine222.node((1, 0, 0)).slice(0)
    machine222.node((0, 0, 0)).slice(0).memory.allocate("buf", 2)

    Steps(src, [write_step((0, 0, 0), "slice0", counter_id="c",
                           address=("buf", 7), payload_bytes=0)]).start()
    with pytest.raises(IndexError, match="out of\\s+bounds"):
        sim.run()


def test_fifo_overflow_backpressure_never_drops():
    """A burst far beyond FIFO capacity parks in the overflow queue
    (backpressure) and drains completely, in order."""
    sim = Simulator()
    m = build_machine(sim, 2, 1, 1, fifo_capacity=4)
    src = m.node((0, 0, 0)).slice(0)
    dst = m.node((1, 0, 0)).slice(0)

    def send(i):
        if i < 40:
            src.send_then(
                src.packet(PacketKind.FIFO, (1, 0, 0), "slice0", i, 8),
                send, (i + 1,))

    send(0)
    sim.run()
    assert dst.fifo.backpressure_stalls > 0
    out = []
    while (pkt := dst.fifo.try_poll()) is not None:
        out.append(pkt.payload)
    assert out == list(range(40))


def test_reset_mid_phase_raises(sim, machine222):
    """Resetting HTIS buffers while a wait is outstanding is a phase-
    sequencing bug and must raise."""
    htis = machine222.node((0, 0, 0)).htis
    htis.define_buffer("b", (1, 0, 0), 2)
    htis.buffer("b").counter.on_target(2, print, ())  # registers a waiter
    with pytest.raises(RuntimeError, match="waiters pending"):
        htis.reset_buffers()


def test_gather_reset_before_completion_raises(sim, machine222):
    target = machine222.node((0, 0, 0)).slice(0)
    g = CountedGather(
        target, "g",
        [GatherSource(machine222.torus.coord((1, 0, 0)), "slice0", 2)],
    )
    g.wait(target, print)  # someone is waiting
    with pytest.raises(RuntimeError, match="waiters pending"):
        g.reset()
