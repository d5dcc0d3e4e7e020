"""Tests for packet-ordering semantics and link contention.

The network does not, in general, preserve packet ordering, but the
in-order header flag restores order between a fixed source-destination
pair (§III.A) — the property the migration protocol stands on.
"""

import pytest

from repro.asic import build_machine
from repro.engine import Simulator
from repro.network.packet import PacketKind


def _machine(jitter=0.0, seed=0):
    sim = Simulator()
    m = build_machine(sim, 4, 1, 1)
    if jitter:
        m.network.reorder_jitter_ns = jitter
    return sim, m


def _send_burst(sim, m, in_order, count=20):
    """Send `count` FIFO messages 0..count-1 from node 0 to node 3, each
    after the last, as the migration sends its atoms."""
    src = m.node((0, 0, 0)).slice(0)
    dst = m.node((3, 0, 0)).slice(0)

    def send(i):
        if i < count:
            src.send_then(
                src._packet(PacketKind.FIFO, (3, 0, 0), "slice0", i, 8,
                            in_order=in_order),
                send, (i + 1,))

    send(0)
    sim.run()
    out = []
    while True:
        pkt = dst.fifo.try_poll()
        if pkt is None:
            break
        out.append(pkt.payload)
    return out


def test_no_jitter_network_is_fifo_anyway():
    sim, m = _machine(jitter=0.0)
    assert _send_burst(sim, m, in_order=False) == list(range(20))


def test_jitter_reorders_unflagged_packets():
    reordered = False
    for seed in range(5):
        sim, m = _machine(jitter=400.0, seed=seed)
        m.network._rng.seed(seed)
        out = _send_burst(sim, m, in_order=False)
        assert sorted(out) == list(range(20))  # nothing lost
        if out != list(range(20)):
            reordered = True
    assert reordered, "jitter never produced a reordering across 5 seeds"


def test_in_order_flag_survives_jitter():
    for seed in range(5):
        sim, m = _machine(jitter=400.0, seed=seed)
        m.network._rng.seed(seed)
        assert _send_burst(sim, m, in_order=True) == list(range(20))


def test_link_contention_delays_second_packet():
    """Two 256-byte packets injected back-to-back share one link
    direction; the second is delayed by the serialization time."""
    sim = Simulator()
    m = build_machine(sim, 2, 1, 1)
    a0 = m.node((0, 0, 0)).slice(0)
    a1 = m.node((0, 0, 0)).slice(1)
    dst = m.node((1, 0, 0)).slice(0)
    dst.memory.allocate("rx", 2)
    times = {}

    def sender(s, slot):
        yield from s.send_write(
            (1, 0, 0), "slice0", counter_id=f"c{slot}", address=("rx", slot),
            payload_bytes=256,
        )

    def receiver(slot):
        times[slot] = yield from dst.poll(f"c{slot}", 1)

    procs = [
        sim.process(sender(a0, 0)),
        sim.process(sender(a1, 1)),
        sim.process(receiver(0)),
        sim.process(receiver(1)),
    ]
    sim.run(until=sim.all_of(procs))
    from repro.network.packet import Packet
    gap = abs(times[1] - times[0])
    # Serialization of a 288-byte wire packet at 36.8 Gbit/s ≈ 62.6 ns.
    assert gap == pytest.approx(288 * 8 / 36.8, rel=0.2)


def test_opposite_link_directions_are_independent():
    """The torus links are full duplex: simultaneous opposite-direction
    transfers do not contend."""
    sim = Simulator()
    m = build_machine(sim, 2, 1, 1)
    a = m.node((0, 0, 0)).slice(0)
    b = m.node((1, 0, 0)).slice(0)
    a.memory.allocate("rx", 1)
    b.memory.allocate("rx", 1)
    times = {}

    def sender(s, d, key):
        yield from s.send_write(
            d.node, d.name, counter_id="c", address=("rx", 0), payload_bytes=0
        )

    def receiver(r, key):
        times[key] = yield from r.poll("c", 1)

    procs = [
        sim.process(sender(a, b, "ab")),
        sim.process(sender(b, a, "ba")),
        sim.process(receiver(b, "ab")),
        sim.process(receiver(a, "ba")),
    ]
    sim.run(until=sim.all_of(procs))
    assert times["ab"] == pytest.approx(162.0)
    assert times["ba"] == pytest.approx(162.0)
