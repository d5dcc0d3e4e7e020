"""Unit tests for the HTIS model (§IV.B.1, Fig. 9)."""

import pytest

from repro.asic.htis import HTIS_PAIRS_PER_NS, HTIS_SEND_NS


def _load_buffer(sim, machine, origin, name, packets):
    """Deliver `packets` position packets from `origin` to node (0,0,0)'s HTIS."""
    src = machine.node(origin).slice(0)

    def sender():
        for _ in range(packets):
            yield from src.send_write(
                (0, 0, 0), "htis", counter_id=name, payload_bytes=32
            )

    return sim.process(sender())


def test_buffer_definition_and_counting(sim, machine222):
    htis = machine222.node((0, 0, 0)).htis
    buf = htis.define_buffer("pos-a", (1, 0, 0), expected_packets=3)
    _load_buffer(sim, machine222, (1, 0, 0), "pos-a", 3)
    sim.run()
    assert buf.received == 3
    assert buf.complete


def test_duplicate_buffer_rejected(sim, machine222):
    htis = machine222.node((0, 0, 0)).htis
    htis.define_buffer("b", (1, 0, 0), 1)
    with pytest.raises(ValueError):
        htis.define_buffer("b", (1, 0, 0), 1)


def _consume(htis, order, realised):
    """Run the controller over ``order``; ``realised`` receives each
    buffer's name as it finishes, then ``"end"``."""
    htis.consume_buffers(order, 10.0, lambda buf: realised.append(buf.name),
                         realised.append, ("end",))


def test_processing_order_respects_software_order(sim, machine222):
    htis = machine222.node((0, 0, 0)).htis
    for i, origin in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        htis.define_buffer(f"b{i}", origin, expected_packets=1)
    for i, origin in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        _load_buffer(sim, machine222, origin, f"b{i}", 1)
    realised = []
    _consume(htis, ["b2", "b0", "b1"], realised)
    sim.run()
    assert realised == ["b2", "b0", "b1", "end"]


def test_priority_buffer_jumps_queue_when_complete(sim, machine222):
    """The high-priority queue processes a buffer as soon as all of its
    packets have arrived, ahead of the software order."""
    htis = machine222.node((0, 0, 0)).htis
    htis.define_buffer("slow", (1, 0, 0), expected_packets=1)
    htis.define_buffer("fast-pri", (0, 1, 0), expected_packets=1, priority=True)

    src_slow = machine222.node((1, 0, 0)).slice(0)
    src_pri = machine222.node((0, 1, 0)).slice(0)

    def slow_sender():
        yield sim.timeout(5_000.0)
        yield from src_slow.send_write((0, 0, 0), "htis", counter_id="slow",
                                       payload_bytes=32)

    def pri_sender():
        yield from src_pri.send_write((0, 0, 0), "htis", counter_id="fast-pri",
                                      payload_bytes=32)

    realised = []
    sim.process(slow_sender())
    sim.process(pri_sender())
    _consume(htis, ["slow", "fast-pri"], realised)
    sim.run()
    assert realised == ["fast-pri", "slow", "end"]


def test_priority_buffer_completing_in_the_same_instant_wins(sim, machine222):
    """The controller looks at its buffers in an event of its own after
    the write that completes the head of its order, so a priority
    buffer completed later in that instant still goes first."""
    from repro.network.packet import WritePacket

    htis = machine222.node((0, 0, 0)).htis
    htis.define_buffer("head", (1, 0, 0), expected_packets=1)
    htis.define_buffer("pri", (0, 1, 0), expected_packets=1, priority=True)
    realised = []
    _consume(htis, ["head", "pri"], realised)
    for origin, name in (((1, 0, 0), "head"), ((0, 1, 0), "pri")):
        packet = WritePacket(
            src_node=machine222.torus.coord(origin), src_client="slice0",
            dst_node=machine222.torus.coord((0, 0, 0)), dst_client="htis",
            counter_id=name,
        )
        sim.schedule(5.0, htis.receive, packet)
    sim.run()
    assert realised == ["pri", "head", "end"]


def test_order_must_cover_all_buffers(sim, machine222):
    htis = machine222.node((0, 0, 0)).htis
    htis.define_buffer("a", (1, 0, 0), 1)
    with pytest.raises(ValueError, match="missing"):
        _consume(htis, [], [])


def test_pipeline_throughput(sim, machine222):
    htis = machine222.node((0, 0, 0)).htis
    assert htis.pairs_duration_ns(25_600) == pytest.approx(25_600 / HTIS_PAIRS_PER_NS)
    with pytest.raises(ValueError):
        htis.pairs_duration_ns(-1)


def test_reset_buffers_for_next_step(sim, machine222):
    htis = machine222.node((0, 0, 0)).htis
    buf = htis.define_buffer("a", (1, 0, 0), 1)
    _load_buffer(sim, machine222, (1, 0, 0), "a", 1)
    sim.run()
    assert buf.complete
    htis.reset_buffers()
    assert not buf.complete
    assert htis.counter("a").count == 0


def test_force_return_stream(sim, machine222):
    """Fig. 9: computed forces return to an accumulation memory."""
    htis = machine222.node((0, 0, 0)).htis
    accum = machine222.node((1, 0, 0)).accum[0]
    ended = []
    htis.send_results((1, 0, 0), "accum0", 5, "f", 240,
                      fn=lambda: ended.append(sim.now))
    sim.run()
    assert accum.counter("f").count == 5
    assert accum.accum_packets == 5
    # The output stage forms one packet every HTIS_SEND_NS.
    assert ended == [5 * HTIS_SEND_NS]
