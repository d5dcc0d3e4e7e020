"""Exact pins on the model's headline numbers — the regression gate.

The simulator is deterministic, so every row below is asserted with
``==``: any change to a number the paper reports (the 162 ns write,
the Fig. 5 per-hop slope, the 28 B half-bandwidth point, the Table 2
all-reduce) fails tier-1 until the pin is deliberately moved.  Each
row is produced through :func:`repro.runner.result.run_experiment` or
the public call that owns it (migration sync, the bandwidth model,
the health monitor).  The commodity-cluster rows (Table 1's DDR2
InfiniBand ping-pong, Fig. 7, §IV.B.4's 512-node all-reduce, the fault
study's incast, Table 3's Desmond column and the Fig. 8 ablation's
cluster half) pin the cluster model the same way.

Rows that have a paper value for the same configuration also assert
it in :class:`TestPaperValues`, with the tolerance the matching
``benchmarks/bench_*.py`` figure uses.
"""

import importlib
import pathlib
import sys

import pytest

from repro.analysis.transfer import bandwidth_efficiency, half_bandwidth_payload
from repro.asic.node import build_machine
from repro.baselines import ClusterNetwork, DesmondModel, MpiContext
from repro.comm.collectives import AllReduce
from repro.comm.migration import MigrationProtocol
from repro.constants import PAPER_TABLE2_US
from repro.engine.simulator import Simulator
from repro.faults.study import cluster_incast_ns
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
    "allreduce/dimension_ordered_0B_ns": 1085.0,
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
    "monitor/sampler_ticks": 14.0,
    # Fig. 5's diameter point, on the paper's 8x8x8 machine.
    "fig5/one_way_12hop_ns": 822.0,
    # The DDR2 InfiniBand cluster model.
    "cluster/ping_pong_0B_ns": 3760.0,
    "cluster/transfer_2048B_64msg_ns": 66779.69230769231,
    "cluster/allreduce_512node_32B_ns": 34917.23076923077,
    "cluster/incast_26to1_2rounds_ns": 34517.53846153846,
    "desmond/average_comm_ns": 265872.69699272595,
    "desmond/average_total_ns": 580887.7193199382,
    "desmond/range_limited_comm_ns": 128115.62006964901,
    "desmond/range_limited_total_ns": 383050.64239686134,
    "desmond/long_range_comm_ns": 403629.7739158028,
    "desmond/long_range_total_ns": 778724.7962430152,
    "desmond/fft_convolution_comm_ns": 205679.6923076923,
    "desmond/fft_convolution_total_ns": 265839.6923076923,
    "desmond/thermostat_comm_ns": 69834.46153846153,
    "desmond/thermostat_total_ns": 89834.46153846153,
    "ablation/cluster_direct_ns": 26000.0,
    "ablation/cluster_staged_ns": 16328.0,
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


def _bench_module(name: str):
    """Import ``benchmarks/<name>.py``, which imports its own
    ``conftest`` helpers from its directory."""
    bench_dir = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(bench_dir)


def _cluster_rows() -> dict:
    def mpi(nodes: int) -> MpiContext:
        return MpiContext(ClusterNetwork(Simulator(), nodes))

    rows = {
        "cluster/ping_pong_0B_ns": mpi(2).ping_pong_ns(0),
        "cluster/transfer_2048B_64msg_ns": mpi(2).transfer_ns(2048, 64),
        "cluster/allreduce_512node_32B_ns": mpi(512).allreduce_ns(32),
        "cluster/incast_26to1_2rounds_ns": cluster_incast_ns(26, 2),
    }
    for name, row in DesmondModel().table3().items():
        rows[f"desmond/{name}_comm_ns"] = row.communication_ns
        rows[f"desmond/{name}_total_ns"] = row.total_ns
    ablation = _bench_module("bench_ablation_direct_vs_staged")
    rows["ablation/cluster_direct_ns"] = ablation._cluster(True)
    rows["ablation/cluster_staged_ns"] = ablation._cluster(False)
    return rows


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
    rows["allreduce/dimension_ordered_0B_ns"] = _run(
        ExperimentSpec("allreduce", shape=SHAPE, payload=0),
        "dimension_ordered_0B_ns",
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
    rows.update(_cluster_rows())
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

    def test_table2_0B_allreduce_faster_than_32B(self, measured):
        # bench_table2_allreduce.py: no payload to serialize.
        assert (0 < measured["allreduce/dimension_ordered_0B_ns"]
                < measured["allreduce/dimension_ordered_32B_ns"])

    def test_butterfly_slower_than_dimension_ordered(self, measured):
        # bench_allreduce_comparison.py (§IV.B.4)
        assert (measured["allreduce/butterfly_32B_ns"]
                > measured["allreduce/dimension_ordered_32B_ns"])
