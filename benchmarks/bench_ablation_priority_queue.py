"""Ablation — the HTIS high-priority queue (§IV.B.1).

The HTIS processes position buffers in a software order, except that
buffers flagged high-priority are consumed as soon as they complete —
used for the origins whose force results must travel farthest, so the
long sends hide behind the remaining computation.  This ablation
measures the time until the *farthest* origin's forces have been
accumulated, with and without the priority flag.
"""

from conftest import get_scale, once

from repro.analysis import render_table
from repro.asic import build_machine
from repro.engine import Simulator

ORIGINS = 8
PACKETS = 12
WORK_NS = 600.0


def _run(priority_on: bool, shape):
    sim = Simulator()
    machine = build_machine(sim, *shape)
    torus = machine.torus
    centre = torus.coord((0, 0, 0))
    htis = machine.node(centre).htis
    # Origins at growing distance; the farthest one gets the priority
    # flag (its results travel the longest way back).
    origins = [torus.coord((min(i, torus.nx // 2), i % 2, 0)) for i in range(ORIGINS)]
    far = max(origins, key=lambda c: torus.hops(centre, c))
    for i, o in enumerate(origins):
        htis.define_buffer(
            f"b{i}", o, expected_packets=PACKETS,
            priority=(priority_on and o == far),
        )

    def feed(i, origin):
        s = machine.node(origin).slices[0]
        # The farthest origin's data arrives *early*; near ones trickle.
        delay = 0.0 if origin == far else 200.0 * (i + 1)
        yield sim.timeout(delay)
        for _ in range(PACKETS):
            yield from s.send_write(centre, "htis", counter_id=f"b{i}",
                                    payload_bytes=32)

    def on_done(buf):
        # Each buffer's result stream starts in one event of its own.
        sim.schedule_now(htis.send_results, (buf.origin, "accum0", 2, "forces", 240))

    far_wait = machine.node(far).accum[0].counter("forces").wait_for(2)
    procs = [sim.process(feed(i, o)) for i, o in enumerate(origins)]
    consumed = sim.event()
    sim.schedule_now(htis.consume_buffers, (
        [f"b{i}" for i in range(ORIGINS)], WORK_NS, on_done, consumed.succeed, ()))
    sim.run(until=sim.all_of(procs + [consumed, far_wait]))
    return far_wait.value  # time the farthest origin's forces landed


def bench_ablation_priority_queue(benchmark, publish, record):
    shape = (4, 4, 4) if get_scale() == "quick" else (8, 8, 8)

    def run():
        return _run(True, shape), _run(False, shape)

    with_pri, without_pri = once(benchmark, run)
    text = render_table(
        "Ablation — HTIS high-priority queue: time until the farthest "
        "origin's forces are accumulated (µs)",
        ["configuration", "µs"],
        [
            ["priority queue on (paper)", with_pri / 1000],
            ["software order only", without_pri / 1000],
        ],
    )
    text += (
        f"\n\nthe priority queue hides {without_pri - with_pri:.0f} ns of "
        "long-haul send latency behind the remaining HTIS computation"
    )
    publish("ablation_priority_queue", text)
    record("ablation_priority_queue", "priority_on_ns", with_pri, "ns",
           shape=list(shape), origins=ORIGINS, packets=PACKETS)
    record("ablation_priority_queue", "priority_off_ns", without_pri, "ns",
           shape=list(shape), origins=ORIGINS, packets=PACKETS)
    assert with_pri < without_pri
