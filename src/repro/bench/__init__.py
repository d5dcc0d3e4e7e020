"""The ``repro-bench/1`` results schema.

:mod:`repro.bench.results` defines :class:`BenchResult` records and
deterministic, diffable :class:`ResultSet` JSON files keyed by
(benchmark, metric, config hash).  Sweeps persist their measurements
in it, the result cache and the observatory ledger read it, and the
pytest benchmarks under ``benchmarks/`` publish through it.
"""

from repro.bench.results import (
    SCHEMA,
    BenchResult,
    ResultSet,
    canonical_json,
    config_hash,
)

__all__ = [
    "BenchResult",
    "ResultSet",
    "SCHEMA",
    "canonical_json",
    "config_hash",
]
