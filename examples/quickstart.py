#!/usr/bin/env python
"""Quickstart: the 162-nanosecond counted remote write.

Builds a 512-node simulated Anton, sends one 0-byte counted remote
write between X-neighbours, and shows the gather pattern of Fig. 4:
two source slices writing into one target with a single
synchronization counter.  Each slice runs a fixed program of sends and
polls; the next step starts when the last one ends, with no handshake.

Run:  python examples/quickstart.py
"""

from repro import CountedGather, GatherSource, Simulator, build_machine
from repro.asic import Join, poll_step, run_programs, write_step


def headline_latency() -> None:
    sim = Simulator()
    machine = build_machine(sim, 8, 8, 8)  # the paper's 512-node Anton
    src = machine.node((0, 0, 0)).slice(0)
    dst = machine.node((1, 0, 0)).slice(0)
    dst.memory.allocate("inbox", 1)

    # Runs until both programs have ended.
    t = run_programs(sim, [
        (src, [write_step((1, 0, 0), "slice0", counter_id="hello",
                          address=("inbox", 0), payload_bytes=0)]),
        (dst, [poll_step("hello", 1)]),
    ])
    print(f"0-byte write, one X hop, send to successful poll: "
          f"{t:.0f} ns   (paper: 162 ns)")


def counted_gather() -> None:
    """Fig. 4: sources push directly; the target polls one counter."""
    sim = Simulator()
    machine = build_machine(sim, 8, 8, 8)
    target = machine.node((2, 2, 0)).slice(0)
    a = machine.node((1, 2, 0)).slice(0)
    b = machine.node((2, 3, 0)).slice(0)
    gather = CountedGather(
        target,
        "positions",
        [
            GatherSource(a.node, a.name, packets=3),
            GatherSource(b.node, b.name, packets=2),
        ],
    )

    join = Join(sim, 3)
    gather.send_from(a, ["a0", "a1", "a2"], join.ended, payload_bytes=32)
    # b's data is ready later — no handshake.
    sim.schedule(400.0, gather.send_from, b, ["b0", "b1"], join.ended, (), 32)
    gather.wait(target, join.ended)
    t = sim.run(until=join.done)
    print(f"counted gather of {gather.expected} packets from 2 nodes "
          f"complete at {t:.0f} ns; data: {gather.gathered()}")


if __name__ == "__main__":
    headline_latency()
    counted_gather()
