"""Closed-form oracles for the uncontended dimension-ordered all-reduce
(§IV.B.4, Table 2) and the radix-2 butterfly it is compared with,
independent of the DES.

The oracle reads :mod:`repro.constants` alone.  Every node runs the
same timeline, so the reduction ends when one node's does.  Each
active axis of extent ``n`` costs the send, the source ring, the first
multicast hop (with the payload's serialization beyond the header),
``n // 2 - 1`` through hops to the farthest peer, the destination ring,
the successful poll and the software sum of the ``n - 1``
contributions.  Each axis but the last adds a local hand-off to the
next round's slice (send, ring, poll), and sharing the global sum with
the other three slices adds three sends, a ring and a poll.  It uses
neither the transport nor ``attribution.hop_split``, which the DES
analyses share.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import build_machine
from repro.comm.collectives import AllReduce, ButterflyAllReduce
from repro.constants import (
    DST_RING_NS,
    HEADER_BYTES,
    INLINE_PAYLOAD_BYTES,
    LINK_COST_NS,
    MULTICAST_LOOKUP_NS,
    POLL_SUCCESS_NS,
    REDUCE_SUM_NS_PER_WORD,
    SLICE_SEND_NS,
    SRC_RING_NS,
    THROUGH_RING_NS,
    TORUS_LINK_EFFECTIVE_GBPS,
)
from repro.engine import Simulator
from tests.test_model_pins import PINS, SHAPE


def oracle_ns(shape: tuple[int, int, int], payload_bytes: int,
              share_locally: bool) -> float:
    """Latency of an uncontended dimension-ordered all-reduce."""
    if payload_bytes <= INLINE_PAYLOAD_BYTES:
        extra_ns = 0.0  # the payload rides in the header
    else:
        extra_ns = payload_bytes * 8.0 / TORUS_LINK_EFFECTIVE_GBPS
    words = max(1, payload_bytes // 4)
    local_write_ns = SLICE_SEND_NS + SRC_RING_NS + POLL_SUCCESS_NS
    axes = [(dim, n) for dim, n in zip("xyz", shape) if n > 1]
    total = 0.0
    for i, (dim, n) in enumerate(axes):
        hop_ns = LINK_COST_NS[dim] + MULTICAST_LOOKUP_NS
        total += SLICE_SEND_NS + SRC_RING_NS + hop_ns + extra_ns
        total += (n // 2 - 1) * (hop_ns + THROUGH_RING_NS[dim])
        total += DST_RING_NS + POLL_SUCCESS_NS
        total += REDUCE_SUM_NS_PER_WORD * words * (n - 1)
        if i + 1 < len(axes):
            total += local_write_ns
    if axes and share_locally:
        total += 2 * SLICE_SEND_NS + local_write_ns
    return total


def test_oracle_gives_the_pinned_table2_row():
    """The exact Table 2 pin (32 B on 4×4×4) follows from the constants."""
    assert abs(oracle_ns(SHAPE, 32, True)
               - PINS["allreduce/dimension_ordered_32B_ns"]) <= 1e-6


extents = st.integers(1, 8)


@given(st.tuples(extents, extents, extents), st.sampled_from([0, 32]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_allreduce_matches_closed_form(shape, payload_bytes, share_locally):
    """Exact to 1e-6 ns on every shape with extents 1–8 at Table 2's
    payloads.  No shape is excluded: none queues a hop, which is
    asserted, because the oracle holds only without queueing."""
    sim = Simulator()
    machine = build_machine(sim, *shape)
    result = AllReduce(machine, payload_bytes=payload_bytes,
                       share_locally=share_locally).run()
    assert not any(link.peak_queue_length for link in machine.network.links())
    assert abs(result.elapsed_ns - oracle_ns(shape, payload_bytes, share_locally)) <= 1e-6


def butterfly_oracle_ns(shape: tuple[int, int, int], payload_bytes: int) -> float:
    """Latency of an uncontended radix-2 butterfly all-reduce.

    Stages run one after another along X, then Y, then Z.  A stage at
    distance ``d`` on an axis of extent ``n`` is a unicast write to a
    partner ``h = min(d, n - d)`` hops away: the send, the source ring,
    the first hop (with the payload's serialization beyond the header),
    ``h - 1`` through hops, the destination ring, the successful poll
    and the software sum of the one contribution.
    """
    if payload_bytes <= INLINE_PAYLOAD_BYTES:
        extra_ns = 0.0
    else:
        extra_ns = payload_bytes * 8.0 / TORUS_LINK_EFFECTIVE_GBPS
    words = max(1, payload_bytes // 4)
    total = 0.0
    for dim, n in zip("xyz", shape):
        d = 1
        while d < n:
            h = min(d, n - d)
            total += SLICE_SEND_NS + SRC_RING_NS + LINK_COST_NS[dim] + extra_ns
            total += (h - 1) * (LINK_COST_NS[dim] + THROUGH_RING_NS[dim])
            total += DST_RING_NS + POLL_SUCCESS_NS
            total += REDUCE_SUM_NS_PER_WORD * words
            d *= 2
    return total


def test_butterfly_oracle_gives_the_pinned_row():
    """The butterfly pin (32 B on 4×4×4) follows from the constants."""
    assert abs(butterfly_oracle_ns(SHAPE, 32)
               - PINS["allreduce/butterfly_32B_ns"]) <= 1e-6


pow2 = st.sampled_from([1, 2, 4, 8])


@given(st.tuples(pow2, pow2, pow2), st.sampled_from([0, 32]))
@settings(max_examples=40, deadline=None)
def test_butterfly_matches_closed_form(shape, payload_bytes):
    """Exact to 1e-6 ns on every power-of-two shape with extents 1–8
    at Table 2's payloads, 1×1×1 (no stage, 0 ns) included; no hop
    queues, which is asserted."""
    sim = Simulator()
    machine = build_machine(sim, *shape)
    result = ButterflyAllReduce(machine, payload_bytes=payload_bytes).run()
    assert not any(link.peak_queue_length for link in machine.network.links())
    assert abs(result.elapsed_ns - butterfly_oracle_ns(shape, payload_bytes)) <= 1e-6
