"""Exact pins on the model's headline numbers — the regression gate.

The simulator is deterministic, so every row below is asserted with
``==``: any change to a number the paper reports (the 162 ns write,
the Fig. 5 per-hop slope, the 28 B half-bandwidth point, the Table 2
all-reduce) fails tier-1 until the pin is deliberately moved.  Each
row is produced through :func:`repro.runner.result.run_experiment` or
the public call that owns it (migration sync, the bandwidth model,
the health monitor).

Rows that have a paper value for the same configuration also assert
it in :class:`TestPaperValues`, with the tolerance the matching
``benchmarks/bench_*.py`` figure uses.
"""

import pytest

from repro.analysis.transfer import bandwidth_efficiency, half_bandwidth_payload
from repro.asic.node import build_machine
from repro.comm.collectives import AllReduce
from repro.comm.migration import MigrationProtocol
from repro.constants import PAPER_TABLE2_US
from repro.engine.simulator import Simulator
from repro.monitor.health import use_monitoring
from repro.runner.result import run_experiment
from repro.runner.spec import ExperimentSpec

#: Machine shape of the pinned rows: large enough for 3 network hops
#: and a non-trivial collective, small enough to run in well under 2 s.
SHAPE = (4, 4, 4)

#: ``benchmark/metric`` -> committed value.
PINS = {
    "latency/one_way_0hop_ns": 97.0,
    "latency/one_way_1hop_ns": 162.0,
    "latency/one_way_2hop_ns": 238.0,
    "latency/one_way_3hop_ns": 292.0,
    "allreduce/dimension_ordered_32B_ns": 1231.8695652173913,
    "allreduce/butterfly_32B_ns": 1313.7391304347827,
    "transfer/split_2048B_8msg_ns": 655.913043478261,
    "migration/sync_only_ns": 302.8695652173913,
    "bandwidth/efficiency_28B": 0.525,
    "bandwidth/half_bandwidth_payload_bytes": 26.0,
    # Monitoring at a 100 ns interval must not move simulated time by
    # even a nanosecond, and its watchdogs must stay green.
    "monitor/sim_time_delta_ns": 0.0,
    "monitor/invariant_violations": 0.0,
    "monitor/sampler_ticks": 13.0,
    # Fig. 5's diameter point, on the paper's 8x8x8 machine.
    "fig5/one_way_12hop_ns": 822.0,
}


def _run(spec: ExperimentSpec, metric: str) -> float:
    return run_experiment(spec).value(metric)


def _monitor_rows() -> dict:
    """The dimension-ordered all-reduce run bare, then monitored."""

    def all_reduce_ns(machine) -> float:
        return AllReduce(machine, payload_bytes=32).run().elapsed_ns

    bare_ns = all_reduce_ns(build_machine(Simulator(), *SHAPE))
    sim = Simulator()
    with use_monitoring(interval_ns=100.0) as session:
        machine = build_machine(sim, *SHAPE)
    monitored_ns = all_reduce_ns(machine)
    monitor = session.monitors[0]
    verdict = monitor.finalize()
    return {
        "monitor/sim_time_delta_ns": abs(monitored_ns - bare_ns),
        "monitor/invariant_violations": float(
            sum(1 for c in verdict.checks if c.status == "error")
        ),
        "monitor/sampler_ticks": float(monitor.sampler.ticks),
    }


def _measure() -> dict:
    rows = {}
    for hops in range(4):
        rows[f"latency/one_way_{hops}hop_ns"] = _run(
            ExperimentSpec("latency", shape=SHAPE, hops=hops),
            f"one_way_{hops}hop_ns",
        )
    for algorithm in ("dimension_ordered", "butterfly"):
        rows[f"allreduce/{algorithm}_32B_ns"] = _run(
            ExperimentSpec("allreduce", shape=SHAPE, payload=32,
                           extras=(("algorithm", algorithm),)),
            f"{algorithm}_32B_ns",
        )
    rows["transfer/split_2048B_8msg_ns"] = _run(
        ExperimentSpec("transfer", shape=SHAPE,
                       extras=(("messages", 8), ("total_bytes", 2048))),
        "split_2048B_8msg_ns",
    )
    rows["migration/sync_only_ns"] = MigrationProtocol(
        build_machine(Simulator(), *SHAPE)
    ).run().elapsed_ns
    rows["bandwidth/efficiency_28B"] = bandwidth_efficiency(28)
    rows["bandwidth/half_bandwidth_payload_bytes"] = float(
        half_bandwidth_payload()
    )
    rows.update(_monitor_rows())
    rows["fig5/one_way_12hop_ns"] = _run(
        ExperimentSpec("latency", shape=(8, 8, 8), hops=12),
        "one_way_12hop_ns",
    )
    return rows


@pytest.fixture(scope="module")
def measured() -> dict:
    return _measure()


def test_every_pinned_row_is_measured(measured):
    assert sorted(measured) == sorted(PINS)


@pytest.mark.parametrize("key", sorted(PINS))
def test_pinned_value(measured, key):
    assert measured[key] == PINS[key]


class TestPaperValues:
    def test_fig6_one_hop_write_is_exactly_162ns(self, measured):
        # bench_fig6_breakdown.py, bench_fig5_latency_vs_hops.py
        assert measured["latency/one_way_1hop_ns"] == 162.0

    def test_fig5_twelve_hops_is_five_times_one_hop(self, measured):
        # bench_fig5_latency_vs_hops.py: 822 ns at the 8x8x8 diameter,
        # "five times higher" than one hop.
        twelve = measured["fig5/one_way_12hop_ns"]
        assert twelve == 822.0
        assert 4.5 < twelve / measured["latency/one_way_1hop_ns"] < 5.5

    def test_half_bandwidth_payload_near_28B(self, measured):
        # bench_bandwidth_efficiency.py (paper: 28 B)
        assert 24 <= measured["bandwidth/half_bandwidth_payload_bytes"] <= 32

    def test_table2_64_node_32B_allreduce(self, measured):
        # bench_table2_allreduce.py
        us = measured["allreduce/dimension_ordered_32B_ns"] / 1000.0
        assert us == pytest.approx(
            PAPER_TABLE2_US[SHAPE]["reduce32"], rel=0.20
        )

    def test_butterfly_slower_than_dimension_ordered(self, measured):
        # bench_allreduce_comparison.py (§IV.B.4)
        assert (measured["allreduce/butterfly_32B_ns"]
                > measured["allreduce/dimension_ordered_32B_ns"])
