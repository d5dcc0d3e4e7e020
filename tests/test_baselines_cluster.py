"""Unit tests for the commodity-cluster baseline."""

import pytest

from repro.baselines import ClusterNetwork, MpiContext
from repro.constants import DDR2_INFINIBAND
from repro.engine import Simulator


def _mpi(nodes=2, params=DDR2_INFINIBAND):
    sim = Simulator()
    return MpiContext(ClusterNetwork(sim, nodes, params))


def test_ping_pong_near_published_latency():
    """One-way 0-byte latency lands in the DDR2 IB class (~2–4 µs):
    base latency plus per-message CPU costs."""
    t = _mpi().ping_pong_ns(0)
    assert 2_000 < t < 5_000


def test_latency_grows_with_size():
    mpi = _mpi()
    t0 = mpi.ping_pong_ns(0)
    t64k = mpi.ping_pong_ns(65536)
    assert t64k > t0 + 65536 * 8 / DDR2_INFINIBAND.bandwidth_gbps * 0.9


def test_transfer_time_grows_with_message_count():
    """The commodity-cluster property the paper contrasts with Anton:
    many small messages are much slower than one large one (Fig. 7)."""
    mpi = _mpi()
    t1 = mpi.transfer_ns(2048, 1)
    t64 = mpi.transfer_ns(2048, 64)
    assert t64 / t1 > 5.0  # Fig. 7b: roughly 7-8x on InfiniBand


def test_allreduce_512_near_paper():
    """§IV.B.4: 35.5 µs for a 32-byte all-reduce on 512 IB nodes."""
    mpi = _mpi(nodes=512)
    t = mpi.allreduce_ns(32) / 1000.0
    assert t == pytest.approx(35.5, rel=0.15)


def test_allreduce_requires_power_of_two():
    mpi = _mpi(nodes=6)
    with pytest.raises(ValueError):
        mpi.allreduce_ns(32)


def test_message_counting():
    sim = Simulator()
    net = ClusterNetwork(sim, 2)
    mpi = MpiContext(net)
    mpi.transfer_ns(1000, 5)
    assert net.messages_total == 5
    assert net.node(0).messages_sent == 5
    assert net.node(1).messages_received == 5


def test_self_send_rejected():
    net = ClusterNetwork(Simulator(), 2)
    with pytest.raises(ValueError):
        net.node(0).send_then(0, 10, "t", lambda: None, ())


def test_empty_cluster_rejected():
    with pytest.raises(ValueError):
        ClusterNetwork(Simulator(), 0)
