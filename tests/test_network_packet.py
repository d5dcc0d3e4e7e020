"""Unit tests for packet formats and the wire model."""

import re

import numpy as np
import pytest

from repro.constants import (
    HEADER_BYTES,
    INLINE_PAYLOAD_BYTES,
    MAX_PAYLOAD_BYTES,
    TORUS_LINK_EFFECTIVE_GBPS,
)
from repro.network.network import Network
from repro.network.packet import (
    AccumPacket,
    FifoPacket,
    Packet,
    PacketKind,
    WritePacket,
    payload_bytes_of,
)
from repro.topology import NodeCoord

A = NodeCoord(0, 0, 0)
B = NodeCoord(1, 0, 0)


def mk(**kw):
    kw.setdefault("src_node", A)
    kw.setdefault("src_client", "slice0")
    kw.setdefault("dst_node", B)
    kw.setdefault("dst_client", "slice0")
    return Packet(**kw)


def test_payload_bounds_enforced():
    mk(payload_bytes=0)
    mk(payload_bytes=256)
    with pytest.raises(ValueError,
                       match=re.escape("payload must be 0..256 bytes, got 257")):
        mk(payload_bytes=257)
    with pytest.raises(ValueError,
                       match=re.escape("payload must be 0..256 bytes, got -1")):
        mk(payload_bytes=-1)


def test_wire_model_is_the_constants_formula_exactly():
    """The per-size table holds, bit for bit, what the wire model's
    formula gives for every payload size."""
    for size in range(MAX_PAYLOAD_BYTES + 1):
        wire = (HEADER_BYTES if size <= INLINE_PAYLOAD_BYTES
                else HEADER_BYTES + size)
        p = mk(payload_bytes=size)
        assert p.wire_bytes == wire, size
        assert p.serialization_ns == wire * 8.0 / TORUS_LINK_EFFECTIVE_GBPS, size
        assert p.inline is (size <= INLINE_PAYLOAD_BYTES), size


def test_inline_payload_rides_in_header():
    small = mk(payload_bytes=8)
    assert small.inline
    assert small.wire_bytes == HEADER_BYTES
    big = mk(payload_bytes=9)
    assert not big.inline
    assert big.wire_bytes == HEADER_BYTES + 9


def test_serialization_time_matches_effective_bandwidth():
    p = mk(payload_bytes=256)
    expected = (HEADER_BYTES + 256) * 8.0 / TORUS_LINK_EFFECTIVE_GBPS
    assert p.serialization_ns == pytest.approx(expected)


def test_accum_packet_payload_granularity():
    AccumPacket(src_node=A, src_client="htis", dst_node=B,
                dst_client="accum0", payload_bytes=8)
    with pytest.raises(ValueError, match=re.escape(
            "accumulation packets add their payload in 4-byte quantities; "
            "got 7 bytes")):
        AccumPacket(src_node=A, src_client="htis", dst_node=B,
                    dst_client="accum0", payload_bytes=7)
    # The rule is the accumulation kind's alone.
    mk(payload_bytes=7)
    FifoPacket(src_node=A, src_client="s", dst_node=B, dst_client="d",
               payload_bytes=7)


def test_kind_constructors():
    assert WritePacket(src_node=A, src_client="s", dst_node=B,
                       dst_client="d").kind is PacketKind.WRITE
    assert FifoPacket(src_node=A, src_client="s", dst_node=B,
                      dst_client="d").kind is PacketKind.FIFO


def test_packet_ids_unique():
    ids = {mk().packet_id for _ in range(100)}
    assert len(ids) == 100


def test_packet_ids_rise_across_every_constructor(sim, machine222, monkeypatch):
    """Every way a packet is born draws the next id of the one count:
    the class, its kind helpers, a slice's send and an HTIS result
    stream."""
    streamed = []
    inject = Network.inject

    def recording(net, packet):
        streamed.append(packet.packet_id)
        inject(net, packet)

    monkeypatch.setattr(Network, "inject", recording)
    ids = [mk().packet_id,
           AccumPacket(src_node=A, src_client="htis", dst_node=B,
                       dst_client="accum0", payload_bytes=8).packet_id,
           machine222.node(A).slice(0).packet(
               PacketKind.WRITE, B, "slice0", None, 8).packet_id]
    machine222.node(A).htis.send_results(B, "accum0", 3, "f", 8)
    sim.run()
    ids += streamed
    ids.append(WritePacket(src_node=A, src_client="s", dst_node=B,
                           dst_client="d").packet_id)
    assert len(ids) == 7
    assert all(a < b for a, b in zip(ids, ids[1:]))


def test_multicast_flag():
    assert not mk().is_multicast
    assert mk(pattern_id=3).is_multicast
    assert mk(pattern_id=0).is_multicast


def test_slice_packet_matches_the_keyword_build(machine222):
    """A slice's positional birth fills every field as the keyword
    constructor does."""
    s = machine222.node(A).slice(0)
    fields = ("src_node", "src_client", "dst_node", "dst_client", "kind",
              "payload_bytes", "payload", "counter_id", "address",
              "in_order", "pattern_id", "wire_bytes", "serialization_ns")
    got = s.packet(PacketKind.ACCUM, (1, 0, 0), "accum0", 2.5, 12,
                   counter_id="c", address=("a", 1), in_order=True,
                   pattern_id=4)
    want = Packet(src_node=A, src_client="slice0", dst_node=B,
                  dst_client="accum0", kind=PacketKind.ACCUM,
                  payload_bytes=12, payload=2.5, counter_id="c",
                  address=("a", 1), in_order=True, pattern_id=4)
    assert ([getattr(got, f) for f in fields]
            == [getattr(want, f) for f in fields])


def test_payload_bytes_of():
    assert payload_bytes_of(None) == 0
    assert payload_bytes_of(np.zeros(3)) == 24
    assert payload_bytes_of(b"abcd") == 4
    assert payload_bytes_of(1.5) == 8
    with pytest.raises(TypeError):
        payload_bytes_of(object())
