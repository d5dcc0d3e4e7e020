"""All-reduce measurement harness (Table 2, §IV.B.4).

Thin wrappers that build a fresh machine per configuration and measure
the dimension-ordered collective — the same procedure the Table 2
benchmark uses, exposed as a library API.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asic.node import build_machine
from repro.comm.collectives import AllReduce, ButterflyAllReduce
from repro.engine.simulator import Simulator


@dataclass
class ReductionPoint:
    """Measured all-reduce latencies for one machine configuration."""

    shape: tuple[int, int, int]
    reduce0_us: float
    reduce32_us: float

    @property
    def nodes(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]


def measure_allreduce(shape: tuple[int, int, int]) -> ReductionPoint:
    """0-byte and 32-byte dimension-ordered all-reduce on ``shape``."""
    sim = Simulator()
    machine = build_machine(sim, *shape)
    r0 = AllReduce(machine, payload_bytes=0).run().elapsed_us
    r32 = AllReduce(machine, payload_bytes=32).run().elapsed_us
    return ReductionPoint(shape=shape, reduce0_us=r0, reduce32_us=r32)


def butterfly_vs_dimension_ordered(
    shape: tuple[int, int, int] = (8, 8, 8), payload_bytes: int = 32
) -> tuple[float, float]:
    """(dimension-ordered µs, butterfly µs) on the same machine shape."""
    sim = Simulator()
    t_do = AllReduce(
        build_machine(sim, *shape), payload_bytes=payload_bytes
    ).run().elapsed_us
    sim2 = Simulator()
    t_bf = ButterflyAllReduce(
        build_machine(sim2, *shape), payload_bytes=payload_bytes
    ).run().elapsed_us
    return t_do, t_bf
