"""Ablation — all-reduce partial sums: slices vs accumulation memories.

§IV.B.4: "One could, in principle, perform the partial sums within the
accumulation memories, but the overhead of polling the accumulation
memory synchronization counters is much larger than the cost of
performing the sums in software within the processing slices."  This
ablation measures one reduction round both ways.
"""

from conftest import get_scale, once

from repro.analysis import render_table
from repro.asic import build_machine
from repro.asic.slice_ import (
    accum_step, poll_accum_step, poll_step, run_programs, work_step, write_step,
)
from repro.constants import (
    ACCUM_POLL_NS, ACCUM_READ_NS, POLL_SUCCESS_NS, REDUCE_SUM_NS_PER_WORD,
)
from repro.engine import Simulator

SOURCES = 7  # one X-axis round on an 8-ring
WORDS = 8    # a 32-byte payload


def _round(via_accum: bool, shape):
    """One node's receive side of a 1-D all-reduce round."""
    sim = Simulator()
    machine = build_machine(sim, *shape)
    torus = machine.torus
    centre = torus.coord((0, 0, 0))
    node = machine.node(centre)
    sources = torus.axis_peers(centre, "x")[:SOURCES]
    target_client = "accum0" if via_accum else "slice0"
    if not via_accum:
        node.slices[0].memory.allocate("rx", len(sources))

    programs = []
    for i, origin in enumerate(sources):
        if via_accum:
            step = accum_step(centre, "accum0", counter_id="r", address="sum",
                              payload=1.0, payload_bytes=4 * WORDS)
        else:
            step = write_step(centre, "slice0", counter_id="r",
                              address=("rx", i), payload=1.0,
                              payload_bytes=4 * WORDS)
        programs.append((machine.node(origin).slices[0], [step]))
    if via_accum:
        # Poll the accumulation-memory counter across the ring; the
        # memory already holds the sum, read back as one line.
        receive = [poll_accum_step(node.accum[0], "r", len(sources)),
                   work_step(ACCUM_READ_NS)]
    else:
        # Software sum on the Tensilica.
        receive = [poll_step("r", len(sources)),
                   work_step(REDUCE_SUM_NS_PER_WORD * WORDS * len(sources))]
    return run_programs(sim, programs + [(node.slices[0], receive)])


def bench_ablation_accum_reduce(benchmark, publish, record):
    shape = (4, 4, 4) if get_scale() == "quick" else (8, 8, 8)

    def run():
        return _round(False, shape), _round(True, shape)

    via_slice, via_accum = once(benchmark, run)
    text = render_table(
        "Ablation — one all-reduce round: software sums in slices vs "
        "hardware sums in accumulation memories (ns)",
        ["scheme", "round ns"],
        [
            ["slice software sum (paper's choice)", via_slice],
            ["accumulation-memory sum", via_accum],
        ],
        float_format="{:.0f}",
    )
    text += (
        f"\n\nlocal poll {POLL_SUCCESS_NS:.0f} ns + "
        f"{REDUCE_SUM_NS_PER_WORD * WORDS * SOURCES:.0f} ns of adds beats the "
        f"{ACCUM_POLL_NS:.0f} ns cross-ring accumulation-counter poll + readback"
    )
    publish("ablation_accum_reduce", text)
    record("ablation_accum_reduce", "slice_sum_round_ns", via_slice, "ns",
           shape=list(shape), sources=SOURCES, words=WORDS)
    record("ablation_accum_reduce", "accum_sum_round_ns", via_accum, "ns",
           shape=list(shape), sources=SOURCES, words=WORDS)
    assert via_slice < via_accum, "the paper's design choice must win"
