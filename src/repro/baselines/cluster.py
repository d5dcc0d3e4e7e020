"""Commodity cluster interconnect model.

A deliberately conventional cluster network: every message pays

* sender CPU overhead (marshalling + posting the send),
* a NIC injection gap (message-rate limit),
* base network latency plus payload serialization at link bandwidth,
* receiver CPU overhead (completion processing).

This is the classical LogGP shape, parameterised with the DDR2
InfiniBand numbers the paper compares against (Table 1's 2.16 µs
Roadrunner/IB entry, Fig. 7's DDR2 IB cluster).  The contrast the
paper draws — "latencies grow rapidly as a function of the number of
messages, driving software for such clusters to be carefully
structured so as to minimize the total message count" — falls directly
out of the per-message overhead and injection gap.

The node software runs on continuations, as an Anton slice's does
(:mod:`repro.asic.slice_`): :meth:`ClusterNode.send_then`,
:meth:`~ClusterNode.recv_then`, :meth:`~ClusterNode.work_then` and
:meth:`~ClusterNode.wait_then` each run a continuation when done, so a
node program is a :class:`~repro.asic.slice_.Steps` list of them
(the ``*_step`` constructors below), run by
:func:`~repro.asic.slice_.run_programs`.  A node's CPU and NIC are
booking slots (:class:`repro.engine.Resource`), so a hold schedules its
own continuation at its end, and a message's flight is scheduled by
the event that frees the NIC: the model keeps no event only for
same-instant order.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.asic.slice_ import Step
from repro.constants import DDR2_INFINIBAND, ClusterParams
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator


class ClusterNode:
    """One cluster node: a CPU (for messaging overheads) and a NIC."""

    def __init__(self, network: "ClusterNetwork", rank: int) -> None:
        self.network = network
        self.sim = network.sim
        self.rank = rank
        self.cpu = Resource(self.sim, name=f"node{rank}.cpu")
        self.nic = Resource(self.sim, name=f"node{rank}.nic")
        self.messages_sent = 0
        self.messages_received = 0
        self._recv_counters: dict[str, int] = {}
        self._recv_waiters: dict[tuple[str, int], list[tuple[Callable[..., None], tuple]]] = {}

    # -- continuation forms ---------------------------------------------------
    def send_then(self, dst: int, nbytes: int, tag: str,
                  fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Send one message to node ``dst``, then run ``fn(*args)``.

        Occupies this node's CPU for the send overhead, then its NIC
        for the injection gap; the message leaves, and ``fn(*args)``
        runs, in the event that frees the NIC.
        """
        if dst == self.rank:
            raise ValueError("cluster model is for inter-node messages only")
        params = self.network.params
        self.cpu.hold(params.send_overhead_ns, Resource.hold,
                      (self.nic, params.inter_message_gap_ns, ClusterNode._sent,
                       (self, dst, nbytes, tag, fn, args)))

    def _sent(self, dst: int, nbytes: int, tag: str,
              fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.messages_sent += 1
        network = self.network
        network.messages_total += 1
        # The message crosses the wire, then occupies the receiver's
        # CPU for completion processing (polling the CQ, copying)
        # before it counts as received.
        receiver = network.nodes[dst]
        self.sim.schedule(network.wire_ns(nbytes), Resource.hold,
                          receiver.cpu, network.params.recv_overhead_ns,
                          ClusterNode._received, (receiver, tag))
        fn(*args)

    def recv_then(self, tag: str, count: int,
                  fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Run ``fn(*args)`` once ``count`` messages tagged ``tag`` have
        been received (their receive overhead already charged), in an
        event of its own at the back of the instant the count is reached
        (or of this one, if it already has been)."""
        if self._recv_counters.get(tag, 0) >= count:
            self.sim.schedule_now(fn, args)
        else:
            self._recv_waiters.setdefault((tag, count), []).append((fn, args))

    def work_then(self, duration_ns: float,
                  fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Occupy the CPU for ``duration_ns`` (packing, unpacking), then
        run ``fn(*args)``."""
        self.cpu.hold(duration_ns, fn, args)

    def wait_then(self, duration_ns: float,
                  fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Run ``fn(*args)`` ``duration_ns`` from now, holding nothing
        (local arithmetic, a forwarding dependency's latency)."""
        self.sim.schedule(duration_ns, fn, *args)

    # -- receive-side matching ------------------------------------------------
    def _received(self, tag: str) -> None:
        """A message's receive overhead has been charged: count it and
        wake the programs waiting for this count."""
        self.messages_received += 1
        count = self._recv_counters.get(tag, 0) + 1
        self._recv_counters[tag] = count
        for fn, args in self._recv_waiters.pop((tag, count), ()):
            self.sim.schedule_now(fn, args)


def send_step(dst: int, nbytes: int, tag: str) -> Step:
    """Send one message to node ``dst`` (:meth:`ClusterNode.send_then`)."""
    return (ClusterNode.send_then, (dst, nbytes, tag))


def recv_step(tag: str, count: int) -> Step:
    """Wait for ``count`` messages tagged ``tag`` (:meth:`ClusterNode.recv_then`)."""
    return (ClusterNode.recv_then, (tag, count))


def work_step(duration_ns: float) -> Step:
    """Occupy the CPU for ``duration_ns`` (:meth:`ClusterNode.work_then`)."""
    return (ClusterNode.work_then, (duration_ns,))


def wait_step(duration_ns: float) -> Step:
    """Let ``duration_ns`` pass, holding nothing (:meth:`ClusterNode.wait_then`)."""
    return (ClusterNode.wait_then, (duration_ns,))


class ClusterNetwork:
    """A flat cluster network of ``num_nodes`` nodes.

    The fabric itself is modelled as full bisection (no topology
    contention): for the message counts in the paper's comparisons the
    commodity cluster is overhead- and latency-bound, not
    topology-bound, and published IB cluster measurements (which the
    parameters come from) already include fabric effects.
    """

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        params: ClusterParams = DDR2_INFINIBAND,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.sim = sim
        self.params = params
        self.nodes = [ClusterNode(self, r) for r in range(num_nodes)]
        self.messages_total = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, rank: int) -> ClusterNode:
        return self.nodes[rank]

    # -- messaging ------------------------------------------------------------
    def wire_ns(self, nbytes: int) -> float:
        """In-flight time: base latency + payload at link bandwidth.

        The base latency already contains the zero-byte software-to-
        software cost; overheads below model the *additional* per-
        message CPU/NIC cost that limits message rate.
        """
        return self.params.latency_ns + nbytes * 8.0 / self.params.bandwidth_gbps
