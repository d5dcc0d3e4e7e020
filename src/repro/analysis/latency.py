"""Ping-pong latency measurements (Figs. 5 & 6, Table 1).

The paper measures one-way counted-remote-write latency with
unidirectional and bidirectional ping-pong tests between processing
slices.  The harness below runs the same tests on the simulated
machine:

* *unidirectional*: A sends to B, B polls, B sends back, A polls;
  one-way latency = round trip / 2 (averaged over ``rounds``);
* *bidirectional*: A and B send simultaneously each round, so each
  slice's Tensilica core handles a send and a poll per round — the
  small extra cost visible in Fig. 5's bidirectional curves emerges
  from that resource contention, not from an explicit model term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asic.node import Machine, build_machine
from repro.asic.slice_ import poll_step, run_programs, write_step
from repro.constants import (
    DST_RING_NS,
    LINK_ADAPTER_NS,
    POLL_SUCCESS_NS,
    SLICE_SEND_NS,
    SRC_RING_NS,
)
from repro.engine.simulator import Simulator
from repro.topology.torus import NodeCoord


_measure_seq = 0


def _fresh_pair(shape: tuple[int, int, int], dst: tuple[int, int, int],
                machine=None):
    """A (machine, src slice, dst slice, tag) tuple for one measurement.

    Passing a pre-built machine reuses it (building a 512-node machine
    costs far more than the measurement itself); buffers and counters
    get sequence-unique names so measurements never collide.  The
    caller must hold the machine while it uses the slices: it owns the
    network, which a client refers to only weakly.
    """
    global _measure_seq
    _measure_seq += 1
    if machine is None:
        machine = build_machine(Simulator(), *shape)
    a = machine.node((0, 0, 0)).slice(0)
    # The zero-hop case of Fig. 5 sends between processing slices on
    # the same node; remote cases use slice 0 on both ends.
    b = machine.node(dst).slice(1 if dst == (0, 0, 0) else 0)
    tag = f"pp{_measure_seq}"
    a.memory.allocate(tag, 4)
    b.memory.allocate(tag, 4)
    return machine, a, b, tag


def ping_pong_ns(
    shape: tuple[int, int, int],
    dst: tuple[int, int, int],
    payload_bytes: int = 0,
    rounds: int = 4,
    bidirectional: bool = False,
    machine=None,
) -> float:
    """One-way latency between slice 0 of node (0,0,0) and of ``dst``."""
    machine, a, b, tag = _fresh_pair(shape, dst, machine)
    sim = machine.sim
    if bidirectional:
        # Both ends send each round, then poll.
        ctr_a, ctr_b = tag + "ba", tag + "ab"
    else:
        ctr_a, ctr_b = tag + "pong", tag + "ping"
    to_b = write_step(b.node, b.name, counter_id=ctr_b, address=(tag, 0),
                      payload_bytes=payload_bytes)
    to_a = write_step(a.node, a.name, counter_id=ctr_a, address=(tag, 0),
                      payload_bytes=payload_bytes)
    a_steps, b_steps = [], []
    for r in range(1, rounds + 1):
        a_steps += (to_b, poll_step(ctr_a, r))
        b_steps += (to_a, poll_step(ctr_b, r)) if bidirectional else (
            poll_step(ctr_b, r), to_a)
    start = sim.now
    per_round = (run_programs(sim, [(a, a_steps), (b, b_steps)]) - start) / rounds
    # Unidirectional: a round is a round trip; bidirectional: the later
    # side's round is one crossing.
    return per_round if bidirectional else per_round / 2.0


@dataclass
class HopPoint:
    """One point of Fig. 5."""

    hops: int
    destination: tuple[int, int, int]
    uni_0b: float
    uni_256b: float
    bi_0b: float
    bi_256b: float


def _destination_for_hops(shape: tuple[int, int, int], hops: int) -> tuple[int, int, int]:
    """Fig. 5's path: hops 1–4 along X, 5–8 add Y, 9–12 add Z."""
    nx, ny, nz = shape
    x = min(hops, nx // 2)
    rest = hops - x
    y = min(rest, ny // 2)
    z = rest - y
    if z > nz // 2:
        raise ValueError(f"{hops} hops unreachable on a {shape} torus")
    return (x, y, z)


def latency_vs_hops(
    shape: tuple[int, int, int] = (8, 8, 8),
    max_hops: int | None = None,
    rounds: int = 4,
) -> list[HopPoint]:
    """Regenerate Fig. 5: latency vs network hops, four curves."""
    from repro.topology.torus import Torus3D

    torus = Torus3D(*shape)
    if max_hops is None:
        max_hops = torus.max_hops()
    sim = Simulator()
    machine = build_machine(sim, *shape)
    points = []
    for hops in range(0, max_hops + 1):
        dst = _destination_for_hops(shape, hops)
        points.append(
            HopPoint(
                hops=hops,
                destination=dst,
                uni_0b=ping_pong_ns(shape, dst, 0, rounds, False, machine),
                uni_256b=ping_pong_ns(shape, dst, 256, rounds, False, machine),
                bi_0b=ping_pong_ns(shape, dst, 0, rounds, True, machine),
                bi_256b=ping_pong_ns(shape, dst, 256, rounds, True, machine),
            )
        )
    return points


def breakdown_162ns() -> list[tuple[str, float]]:
    """Fig. 6: the component breakdown of the single-X-hop write.

    Returns the labelled components in path order; they sum to the
    one-hop latency the simulator reproduces exactly.
    """
    return [
        ("write packet send initiated in processing slice", SLICE_SEND_NS),
        ("2 on-chip router hops (source)", SRC_RING_NS),
        ("X+ link adapter (incl. wire)", LINK_ADAPTER_NS),
        ("X- link adapter (incl. wire)", LINK_ADAPTER_NS),
        ("3 on-chip router hops (destination)", DST_RING_NS),
        ("successful poll of synchronization counter", POLL_SUCCESS_NS),
    ]
