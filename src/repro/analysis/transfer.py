"""Message-granularity experiments (Fig. 7, §III.D).

Fig. 7 measures the total time to transfer 2 KB between two nodes as
the transfer is divided into 1–64 messages, on Anton (1 hop and
4 hops) and on a DDR2 InfiniBand cluster.  §III.D additionally reports
that 28-byte messages reach 50% of Anton's maximum data bandwidth.

Note on "1 message" for Anton: packets carry at most 256 bytes of
payload, so an n-message transfer is sent as n logical messages each
split into ⌈(2048/n)/256⌉ packets — exactly what Anton software would
do.  The InfiniBand side has no such limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.asic.node import build_machine
from repro.asic.slice_ import poll_step, run_programs, write_step
from repro.baselines.cluster import ClusterNetwork
from repro.baselines.mpi import MpiContext
from repro.constants import MAX_PAYLOAD_BYTES, TORUS_LINK_EFFECTIVE_GBPS
from repro.engine.simulator import Simulator


def anton_transfer_ns(
    total_bytes: int,
    num_messages: int,
    hops: int = 1,
    shape: tuple[int, int, int] = (8, 8, 8),
) -> float:
    """Time to move ``total_bytes`` as ``num_messages`` messages on Anton.

    Measured from the first send initiation until the receiver's
    synchronization counter poll succeeds for the final packet.
    """
    if num_messages < 1:
        raise ValueError("num_messages must be >= 1")
    if not 1 <= hops <= shape[0] // 2:
        raise ValueError(f"hops must fit in the X dimension of {shape}")
    sim = Simulator()
    machine = build_machine(sim, *shape)
    src = machine.node((0, 0, 0)).slice(0)
    dst_coord = (hops, 0, 0)
    dst = machine.node(dst_coord).slice(0)

    # Message sizes (near-equal), each further split into packets.
    base, rem = divmod(total_bytes, num_messages)
    sizes = [base + (1 if i < rem else 0) for i in range(num_messages)]
    packets = []
    for size in sizes:
        while size > MAX_PAYLOAD_BYTES:
            packets.append(MAX_PAYLOAD_BYTES)
            size -= MAX_PAYLOAD_BYTES
        packets.append(size)
    dst.memory.allocate("xfer", len(packets))
    start = sim.now
    return run_programs(sim, [
        (src, [write_step(dst_coord, "slice0", counter_id="xfer",
                          address=("xfer", i), payload_bytes=size)
               for i, size in enumerate(packets)]),
        (dst, [poll_step("xfer", len(packets))]),
    ]) - start


def infiniband_transfer_ns(total_bytes: int, num_messages: int) -> float:
    """The same experiment on the DDR2 InfiniBand model."""
    sim = Simulator()
    net = ClusterNetwork(sim, 2)
    return MpiContext(net).transfer_ns(total_bytes, num_messages)


@dataclass
class TransferPoint:
    """One x-position of Fig. 7."""

    num_messages: int
    anton_1hop_ns: float
    anton_4hop_ns: float
    infiniband_ns: float


def transfer_split_series(
    total_bytes: int = 2048,
    message_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32, 48, 64),
) -> list[TransferPoint]:
    """Regenerate both panels of Fig. 7 (normalize for panel b)."""
    out = []
    for n in message_counts:
        out.append(
            TransferPoint(
                num_messages=n,
                anton_1hop_ns=anton_transfer_ns(total_bytes, n, hops=1),
                anton_4hop_ns=anton_transfer_ns(total_bytes, n, hops=4),
                infiniband_ns=infiniband_transfer_ns(total_bytes, n),
            )
        )
    return out


def bandwidth_efficiency(payload_bytes: int) -> float:
    """Fraction of the maximum data bandwidth achieved by a stream of
    ``payload_bytes`` packets (§III.D's 50%-at-28-bytes claim).

    The maximum possible data bandwidth is what 256-byte payloads
    achieve; efficiency is payload ÷ (payload + header) normalised to
    that ceiling.
    """
    if not 1 <= payload_bytes <= MAX_PAYLOAD_BYTES:
        raise ValueError("payload must be 1..256 bytes")

    def goodput(p: int) -> float:
        from repro.constants import HEADER_BYTES, INLINE_PAYLOAD_BYTES

        wire = HEADER_BYTES if p <= INLINE_PAYLOAD_BYTES else HEADER_BYTES + p
        return p / wire

    return goodput(payload_bytes) / goodput(MAX_PAYLOAD_BYTES)


def half_bandwidth_payload() -> int:
    """Smallest payload achieving ≥50% of max data bandwidth (§III.D)."""
    for p in range(1, MAX_PAYLOAD_BYTES + 1):
        if bandwidth_efficiency(p) >= 0.5:
            return p
    raise AssertionError("unreachable: 256B is 100% by definition")
