"""repro — a reproduction of "Exploiting 162-Nanosecond End-to-End
Communication Latency on Anton" (SC 2010).

A calibrated discrete-event simulation of Anton's communication
architecture (3-D torus, counted remote writes, multicast,
synchronization counters, HTIS / accumulation-memory clients), a real
NumPy molecular-dynamics engine mapped onto it, commodity-cluster
baselines, and measurement harnesses that regenerate every table and
figure of the paper's evaluation.

Quick start::

    from repro import Simulator, build_machine
    from repro.asic import poll_step, run_programs, write_step

    sim = Simulator()
    machine = build_machine(sim, 8, 8, 8)          # a 512-node Anton
    a = machine.node((0, 0, 0)).slice(0)
    b = machine.node((1, 0, 0)).slice(0)
    b.memory.allocate("inbox", 1)

    t = run_programs(sim, [                         # until both end
        (a, [write_step((1, 0, 0), "slice0", counter_id="c",
                        address=("inbox", 0), payload_bytes=0)]),
        (b, [poll_step("c", 1)]),
    ])
    print(f"end-to-end latency: {t} ns")            # 162.0

See README.md for the architecture overview and DESIGN.md /
EXPERIMENTS.md for the paper-reproduction index.
"""

from repro.asic import (
    AccumulationMemory,
    AntonNode,
    HTIS,
    Machine,
    MessageFifo,
    ProcessingSlice,
    SyncCounter,
    build_machine,
)
from repro.comm import AllReduce, CountedGather, GatherSource, MigrationProtocol
from repro.engine import Simulator
from repro.network import Network, compile_pattern
from repro.topology import NodeCoord, Torus3D

__version__ = "1.0.0"

__all__ = [
    "AccumulationMemory",
    "AllReduce",
    "AntonNode",
    "CountedGather",
    "GatherSource",
    "HTIS",
    "Machine",
    "MessageFifo",
    "MigrationProtocol",
    "Network",
    "NodeCoord",
    "ProcessingSlice",
    "Simulator",
    "SyncCounter",
    "Torus3D",
    "build_machine",
    "compile_pattern",
    "__version__",
]
