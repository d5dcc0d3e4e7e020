"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper and

* prints it (visible with ``pytest -s``),
* writes it to ``benchmarks/results/<name>.txt``,
* records its headline numbers as machine-readable ``repro-bench/1``
  JSON in ``benchmarks/results/<name>.json`` (the ``record`` fixture),

so `bench_output.txt` plus the results directory together hold the
whole reproduced evaluation, and CI merges the JSON into one
``repro-bench/1`` document for the observatory.  The exact regression
gate on the model's numbers is ``tests/test_model_pins.py``.  Set
``REPRO_BENCH_SCALE=quick`` to run the MD benchmarks on a reduced
machine (4×4×4) when iterating.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def get_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "paper")


def md_shape() -> tuple[int, int, int]:
    """Machine shape for the MD benchmarks (paper: 8×8×8 = 512 nodes)."""
    return (4, 4, 4) if get_scale() == "quick" else (8, 8, 8)


def md_atoms() -> int:
    from repro.constants import DHFR_ATOMS

    return DHFR_ATOMS // 8 if get_scale() == "quick" else DHFR_ATOMS


@pytest.fixture
def record(request):
    """Record machine-readable metrics for the regression pipeline.

    ``record(benchmark, metric, value, units, better="lower",
    **config)`` — at test teardown all records are grouped by benchmark
    name and written as ``repro-bench/1`` ResultSet JSON to
    ``results/<benchmark>.json``.  The scale (quick vs paper) is folded
    into every config so reduced-scale CI runs never collide with a
    full-scale baseline.
    """
    from repro.bench.results import BenchResult, ResultSet

    collected: list[BenchResult] = []

    def _record(benchmark, metric, value, units, better="lower", **config):
        config.setdefault("scale", get_scale())
        collected.append(
            BenchResult(
                benchmark=benchmark,
                metric=metric,
                value=value,
                units=units,
                better=better,
                config=config,
            )
        )

    yield _record
    if not collected:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    by_name: dict[str, list[BenchResult]] = {}
    for r in collected:
        by_name.setdefault(r.benchmark, []).append(r)
    for name, results in by_name.items():
        ResultSet(results).write(str(RESULTS_DIR / f"{name}.json"))


@pytest.fixture
def publish(request):
    """Print a regenerated artifact and persist it under results/."""

    def _publish(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _publish


def once(benchmark, fn):
    """Run a heavy harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
