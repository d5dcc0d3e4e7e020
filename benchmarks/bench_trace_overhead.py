"""Telemetry overhead: tracing must be free when off, cheap when on.

Runs the yardstick workload, the ``mdstep`` step pair on
``md_shape()``, bare (the null flight recorder, the default) and with a
flight capture (``Captures(flight=True)``: the flight recorder, whose
``net.*`` metrics are derived from its logs after the run), in
interleaved bare/captured pairs.  Each run is
timed in thread CPU seconds, so a busy host's other processes do not
count.  Asserts that the capture never perturbs the simulated results,
publishes the cost of each mode, and gates the captured/bare ratio.
"""

import gc
import time

from conftest import md_shape, once

from repro.analysis import render_table
from repro.runner import Captures, ExperimentSpec, run_experiment

#: Interleaved bare/captured pairs.
PAIRS = 2

#: Ceiling on captured CPU time over bare CPU time, summed over pairs.
MAX_OVERHEAD_X = 1.6


def _timed(spec: ExperimentSpec, captures) -> tuple[float, tuple, int]:
    """One run: (thread CPU seconds, measurements, packets recorded).
    Garbage left by earlier runs is collected first, outside the timed
    region, and the run's result is dropped before the next run."""
    gc.collect()
    start = time.thread_time()
    result = run_experiment(spec, captures)
    seconds = time.thread_time() - start
    recorded = 0 if result.flight is None else len(result.flight)
    return seconds, result.measurements, recorded


def _pairs(spec: ExperimentSpec) -> list:
    return [
        (_timed(spec, None), _timed(spec, Captures(flight=True)))
        for _ in range(PAIRS)
    ]


def bench_trace_overhead(benchmark, publish, record):
    shape = md_shape()
    spec = ExperimentSpec("mdstep", shape=shape)
    pairs = once(benchmark, lambda: _pairs(spec))
    rows = []
    for i, ((bare_s, bare, _), (flight_s, traced, recorded)) in enumerate(
        pairs
    ):
        # Telemetry observes the simulation; it must never change it.
        assert traced == bare
        assert recorded > 0, "the capture must actually record"
        rows.append([i, f"{bare_s:.2f}", f"{flight_s:.2f}",
                     f"{flight_s / bare_s:.2f}x", recorded])
    bare_total = sum(bare[0] for bare, _ in pairs)
    flight_total = sum(traced[0] for _, traced in pairs)
    ratio = flight_total / bare_total
    rows.append(["all", f"{bare_total:.2f}", f"{flight_total:.2f}",
                 f"{ratio:.2f}x", ""])
    publish("trace_overhead", render_table(
        f"Telemetry overhead — mdstep {'x'.join(map(str, shape))}, "
        "thread CPU s",
        ["pair", "bare", "flight", "flight/bare", "packets recorded"],
        rows,
    ))
    record("trace_overhead", "flight_overhead_ratio", ratio, "x",
           shape=list(shape))
    record("trace_overhead", "packets_recorded", float(pairs[0][1][2]),
           "packets", shape=list(shape))
    assert ratio <= MAX_OVERHEAD_X, (
        f"flight capture costs {ratio:.2f}x a bare run "
        f"(gate {MAX_OVERHEAD_X}x)"
    )
