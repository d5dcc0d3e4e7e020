"""Machine-readable benchmark results (the ``repro-bench/1`` schema).

Every machine-readable measurement in this repo — the pytest-driven
figures under ``benchmarks/``, sweep artifacts (``results.json``), and
the result cache — is a :class:`BenchResult` record, persisted as a
:class:`ResultSet` JSON document:

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "results": [
        {
          "benchmark": "latency",
          "metric": "one_way_1hop_ns",
          "value": 162.0,
          "units": "ns",
          "better": "lower",
          "config": {"shape": [4, 4, 4], "hops": 1, "payload_bytes": 0},
          "config_hash": "f3b0c4429a1e"
        }
      ]
    }

Two rules make the files diffable and mergeable:

* **Identity** — a result is keyed by ``(benchmark, metric,
  config_hash)`` where the hash covers the *configuration that defines
  the measurement* (shape, payload, rounds…), never the measured
  value.  Two runs measured the same thing iff their keys match.
* **Determinism** — serialization is canonical (sorted keys, fixed
  separators, results ordered by key, trailing newline, no
  timestamps), so identical measurements produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

#: Current schema identifier; bump on incompatible format changes.
SCHEMA = "repro-bench/1"

_BETTER = ("lower", "higher")


def canonical_json(doc: Any) -> str:
    """The one true serialization: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """12-hex-digit digest identifying a benchmark configuration."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


@dataclass
class BenchResult:
    """One measured metric of one benchmark configuration."""

    benchmark: str
    metric: str
    value: float
    units: str
    better: str = "lower"
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.better not in _BETTER:
            raise ValueError(
                f"better must be one of {_BETTER}, got {self.better!r}"
            )
        self.value = float(self.value)
        if not math.isfinite(self.value):
            raise ValueError(
                f"{self.benchmark}/{self.metric}: value must be finite, "
                f"got {self.value!r}"
            )
        if not self.benchmark or not self.metric or not self.units:
            raise ValueError("benchmark, metric and units must be non-empty")

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity across runs: (benchmark, metric, config hash)."""
        return (self.benchmark, self.metric, self.config_hash)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "value": self.value,
            "units": self.units,
            "better": self.better,
            "config": self.config,
            "config_hash": self.config_hash,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchResult":
        missing = {"benchmark", "metric", "value", "units", "better"} - set(doc)
        if missing:
            raise ValueError(f"result record missing fields: {sorted(missing)}")
        result = cls(
            benchmark=doc["benchmark"],
            metric=doc["metric"],
            value=doc["value"],
            units=doc["units"],
            better=doc["better"],
            config=doc.get("config", {}),
        )
        stored = doc.get("config_hash")
        if stored is not None and stored != result.config_hash:
            raise ValueError(
                f"{result.benchmark}/{result.metric}: stored config_hash "
                f"{stored} does not match config (expected "
                f"{result.config_hash}); the record was edited inconsistently"
            )
        return result


class ResultSet:
    """An ordered, duplicate-free collection of benchmark results."""

    def __init__(self, results: Optional[Iterable[BenchResult]] = None) -> None:
        self._by_key: dict[tuple[str, str, str], BenchResult] = {}
        for r in results or ():
            self.add(r)

    def add(self, result: BenchResult) -> None:
        if result.key in self._by_key:
            raise ValueError(
                f"duplicate result for {result.benchmark}/{result.metric} "
                f"(config {result.config_hash})"
            )
        self._by_key[result.key] = result

    def __iter__(self) -> Iterator[BenchResult]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self._by_key)

    def sorted(self) -> list[BenchResult]:
        """Results in canonical (key) order."""
        return [self._by_key[k] for k in sorted(self._by_key)]

    def get(self, key: tuple[str, str, str]) -> Optional[BenchResult]:
        return self._by_key.get(key)

    def keys(self) -> set[tuple[str, str, str]]:
        return set(self._by_key)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "results": [r.to_dict() for r in self.sorted()],
        }

    def dumps(self) -> str:
        """Canonical, human-diffable JSON (byte-identical for identical
        measurements: sorted keys and results, no timestamps)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultSet":
        if not isinstance(doc, dict):
            raise ValueError(f"result document must be an object, got {type(doc)}")
        schema = doc.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported results schema {schema!r} (expected {SCHEMA!r})"
            )
        records = doc.get("results")
        if not isinstance(records, list):
            raise ValueError("result document missing 'results' list")
        return cls(BenchResult.from_dict(r) for r in records)

    @classmethod
    def loads(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def read(cls, path: str) -> "ResultSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())

    @classmethod
    def read_many(cls, paths: Iterable[str]) -> "ResultSet":
        """Merge several result files (e.g. one per benchmark module)
        into one set; duplicate keys are an error."""
        merged = cls()
        for path in paths:
            for result in cls.read(path):
                merged.add(result)
        return merged
