"""MPI-style operations on the cluster model.

Provides the small set of operations the paper's comparisons need:
ping-pong latency, multi-message transfers (Fig. 7), and a
recursive-doubling all-reduce (§IV.B.4's 512-node InfiniBand cluster
measurement of 35.5 µs for a 32-byte reduction).
"""

from __future__ import annotations

import math

from repro.asic.slice_ import run_programs
from repro.baselines.cluster import ClusterNetwork, recv_step, send_step, wait_step


class MpiContext:
    """Collective and point-to-point helpers over a ClusterNetwork."""

    def __init__(self, network: ClusterNetwork) -> None:
        self.network = network
        self.sim = network.sim
        self._op_seq = 0

    @property
    def size(self) -> int:
        return len(self.network)

    # -- point to point measurements -------------------------------------------
    def ping_pong_ns(self, nbytes: int = 0, src: int = 0, dst: int = 1) -> float:
        """Half-round-trip (one-way) software-to-software latency."""
        tag = self._tag("pp")
        ping, pong = tag + "-ping", tag + "-pong"
        net = self.network
        start = self.sim.now
        # The pinger ends last, when the pong has been received.
        end = run_programs(self.sim, [
            (net.node(src), [send_step(dst, nbytes, ping), recv_step(pong, 1)]),
            (net.node(dst), [recv_step(ping, 1), send_step(src, nbytes, pong)]),
        ])
        return (end - start) / 2.0

    def transfer_ns(self, total_bytes: int, num_messages: int,
                    src: int = 0, dst: int = 1) -> float:
        """Time to move ``total_bytes`` as ``num_messages`` messages.

        Measures from the first send until the receiver has processed
        the last message — the Fig. 7 experiment.
        """
        if num_messages < 1:
            raise ValueError("num_messages must be >= 1")
        tag = self._tag("xfer")
        net = self.network
        start = self.sim.now
        sends = [send_step(dst, sz, tag) for sz in _split_bytes(total_bytes, num_messages)]
        # The receiver ends last, when the last message has been received.
        end = run_programs(self.sim, [
            (net.node(dst), [recv_step(tag, num_messages)]),
            (net.node(src), sends),
        ])
        return end - start

    # -- collectives ---------------------------------------------------------------
    def allreduce_ns(self, nbytes: int = 32, compute_ns_per_round: float = 100.0) -> float:
        """Recursive-doubling all-reduce across all nodes.

        Requires a power-of-two node count.  Every round, node *r*
        exchanges its partial with ``r ^ 2**k`` and reduces locally.
        Returns the completion time of the slowest node.
        """
        n = self.size
        if n & (n - 1):
            raise ValueError(f"recursive doubling needs power-of-two nodes, got {n}")
        rounds = int(math.log2(n))
        tag = self._tag("ar")
        start = self.sim.now

        def node_program(rank: int) -> list:
            steps = []
            for k in range(rounds):
                rtag = f"{tag}-r{k}"
                steps += [send_step(rank ^ (1 << k), nbytes, rtag),
                          recv_step(rtag, 1),
                          wait_step(compute_ns_per_round)]
            return steps

        end = run_programs(self.sim, [(self.network.node(r), node_program(r))
                                      for r in range(n)])
        return end - start

    def _tag(self, prefix: str) -> str:
        self._op_seq += 1
        return f"{prefix}{self._op_seq}"


def _split_bytes(total: int, parts: int) -> list[int]:
    """Split ``total`` bytes into ``parts`` near-equal message sizes."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]
