"""Continuous-monitoring overhead — always-on must stay cheap.

Runs one range-limited MD step in alternated pairs: bare, then with
the health monitor attached (time-series sampler over every link
direction plus invariant watchdogs at the default 500 ns cadence).
Asserts the monitored runs' *simulated* results are bit-identical to
the bare runs — monitoring is a passive observer — and that its
wall-clock cost stays within the 15% overhead budget an always-on
layer must respect.  The gate reads the median of the per-pair
monitored/bare ratios: alternating the modes exposes both to the same
host drift, and one slow run on a shared host cannot move a median of
five.  The published ratio is recorded through the ``repro-bench/1``
pipeline (the deterministic perturbation gate is the
``monitor/sim_time_delta_ns == 0.0`` pin in
``tests/test_model_pins.py``).
"""

import statistics
import time

from conftest import once

from repro.analysis import render_table
from repro.analysis.mdstep import build_dhfr_md
from repro.monitor.health import use_monitoring

#: Wall-clock budget for always-on monitoring (fraction over bare).
OVERHEAD_BUDGET = 0.15

#: Alternated bare/monitored pairs; the gate reads their median ratio.
PAIRS = 5

_SHAPE = (4, 4, 4)
_ATOMS = 2944  # DHFR scaled to 64 nodes (23,558 * 64 / 512)


def _one_step(monitored: bool):
    """One range-limited step; returns (seconds, results, monitor)."""
    start = time.perf_counter()
    if monitored:
        with use_monitoring() as session:
            md = build_dhfr_md(_SHAPE, atoms=_ATOMS)
        report = md.run_step("range_limited")
        verdicts = session.finalize()
        assert all(v.healthy for v in verdicts), "MD step must be healthy"
        monitor = session.monitors[0]
    else:
        md = build_dhfr_md(_SHAPE, atoms=_ATOMS)
        report = md.run_step("range_limited")
        monitor = None
    secs = time.perf_counter() - start
    net = md.machine.network
    results = (
        report.total_ns,
        md.sim.now,
        net.packets_injected,
        net.packets_delivered,
        net.packets_completed,
    )
    return secs, results, monitor


def bench_monitor_overhead(benchmark, publish, record):
    def measure():
        return [(_one_step(monitored=False), _one_step(monitored=True))
                for _ in range(PAIRS)]

    pairs = once(benchmark, measure)
    bare_results = pairs[0][0][1]
    for bare, mon in pairs:
        assert bare[1] == bare_results, "bare run is nondeterministic"
        # The monitor observes the simulation; it must never change it.
        assert mon[1] == bare_results, (
            f"monitoring perturbed the simulation: {mon[1]} != {bare_results}"
        )
    ratio = statistics.median(mon[0] / bare[0] for bare, mon in pairs)
    bare_s = statistics.median(bare[0] for bare, _ in pairs)
    mon_s = statistics.median(mon[0] for _, mon in pairs)
    monitor = pairs[-1][1][2]
    samples = monitor.sampler.samples_recorded

    publish("monitor_overhead", render_table(
        "Continuous-monitoring overhead — range-limited MD step "
        f"({_SHAPE[0]}x{_SHAPE[1]}x{_SHAPE[2]}, {_ATOMS} atoms), wall clock, "
        f"medians of {PAIRS} alternated pairs",
        ["mode", "ms", "vs bare", "samples", "series"],
        [
            ["bare", f"{bare_s * 1e3:.0f}", "1.00x", 0, 0],
            ["monitored", f"{mon_s * 1e3:.0f}", f"{ratio:.2f}x",
             samples, len(monitor.sampler)],
        ],
    ))
    # The ratio is host-dependent (informational in the JSON results);
    # the budget assertion is the hard gate.
    record("monitor_overhead", "overhead_ratio", ratio, "x",
           shape=list(_SHAPE), atoms=_ATOMS)
    record("monitor_overhead", "samples_recorded", float(samples),
           "samples", shape=list(_SHAPE), atoms=_ATOMS)
    assert samples > 0, "the sampler must actually sample"
    assert monitor.sampler.ticks > 0
    assert ratio <= 1.0 + OVERHEAD_BUDGET, (
        f"monitoring overhead {ratio:.2f}x exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
