"""Checks of the host-time benchmark itself, on its ``--quick`` shapes.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q

The full benchmark never runs here: nothing in this directory is named
``bench_*.py``, so ``pytest benchmarks/`` collects only these checks.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
QUICK_PINS = json.loads((HERE / "expected.json").read_text())["quick"]


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_metric_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    printed = {tuple(line.split()[::2]) for line in lines if line[:2] == "  "}
    for metric in BENCHMARK[section]:
        assert run.unit_of(metric["name"]) == metric["unit"]
        assert (metric["name"], metric["unit"]) in printed
        for workload in run.WORKLOAD_NAMES:
            key = f"{workload}/{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"]


def test_yardstick_is_gc_neutral_and_a_full_cycle():
    ys = yardstick.Yardstick()
    before = gc.get_count()[0]
    for _ in range(50):
        ys.sample()
    assert gc.get_count()[0] - before <= 2
    n = yardstick.CHASE_ENTRIES
    assert list(yardstick._lcg_cycle(n)) == [(5 * i + 1) % n for i in range(n)]


def test_bare_ops_exclude_the_probe_and_are_rescaled():
    result = harness.measure(
        workloads.make("allreduce", 0, quick=True), 3,
        pins=QUICK_PINS["allreduce"],
    )
    assert result.setup_s > 0 and result.probe_spent_ns > 0
    for op in result.ops:
        assert 0 < op.cpu_ns < op.wall_ns + yardstick.PERIOD_S * 1e9
        assert op.yardstick_ns > 0 and op.scaled_ms > 0


def test_tampered_pin_fails_every_op():
    pins = dict(QUICK_PINS["incast"], elapsed_ns=1.0)
    result = harness.measure(
        workloads.make("incast", 0, quick=True), 3, pins=pins
    )
    summary = harness.bare_summary(result)
    setup = {"setup_s": result.setup_s, "setup_wall_s": 1.0}
    _metrics, extras = harness.end_to_end([summary], [setup])
    assert extras["failed_frac"] == 1.0
    assert all("elapsed_ns" in op.problems[0] for op in result.ops)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_ops_tile_exactly(name):
    result = harness.measure(
        workloads.make(name, 0, quick=True), run.QUICK_OPS, trace=True,
        pins=QUICK_PINS[name],
    )
    assert not any(op.problems for op in result.ops)
    assert [op.traced for op in result.ops] == [False, True, True, False]
    spans = result.tracer.spans
    assert all(own >= 0 for own in harness.self_times(spans))
    for op in result.traced:
        profile = op.profile
        assert (
            sum(profile["component_totals_ns"].values())
            == profile["loop_wall_ns"]
        )
        assert profile["loop_wall_ns"] <= op.loop_ns
        assert sum(op.layers.values()) == op.wall_ns
    metrics, _extras = harness.per_layer(result)
    assert metrics["engine.loop_s"] * 1e9 == pytest.approx(
        sum(op.loop_ns for op in result.traced) / len(result.traced)
    )
