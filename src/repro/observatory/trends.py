"""Trend and regression detection over the run ledger.

The tier-1 pins answer "does this revision still produce the committed
numbers?".  This module answers the longitudinal question: "is the
*latest* value of each metric consistent with its own recent history?"
— using a robust location/scale estimate (median + MAD over a sliding
window), direction-aware through each row's declared ``better``
(``lower`` vs ``higher``).

Detection rule, per metric series:

* baseline = the window of values *before* the latest;
* ``worsening`` = relative change of the latest vs the window median,
  signed so that positive always means "worse" for this metric;
* the threshold adapts to the series' own noise:
  ``max(min_worsening, mad_mult * MAD / |median|)`` — a deterministic
  flat series gets the tight floor, a jittery series earns slack
  proportional to its observed spread, so jitter alone never pages
  anyone but a genuine shift (the injected 3x latency regression of
  the acceptance test) always does.

A zero median is special-cased: any nonzero latest value is an
infinite change in its direction, so a series that has always been
exactly zero flags the first nonzero value.

The same detector also runs over ``BENCH_TRAJECTORY.json``, the
committed CI trajectory artifact: one ``repro-trajectory/1`` document
holding an ordered list of points, each a set of ``repro-bench/1``
rows plus provenance.  CI appends a point per run and runs the
detector as a non-blocking annotation step.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

from repro.bench.results import ResultSet

#: Trajectory document schema; bump on layout changes.
TRAJECTORY_SCHEMA = "repro-trajectory/1"

#: Trend verdict document schema (``repro obs trends --json``).
TRENDS_SCHEMA = "repro-obs-trends/1"

#: Default sliding-window length (baseline points before the latest).
DEFAULT_WINDOW = 20

#: Minimum series length before a verdict is attempted.
DEFAULT_MIN_POINTS = 4

#: Floor on the worsening threshold (fraction); a flat deterministic
#: series regresses at >10%, mirroring the single-baseline gate's
#: spirit while leaving room for intentional small retunings.
DEFAULT_MIN_WORSENING = 0.10

#: Noise multiplier: the threshold grows to ``mad_mult`` robust
#: standard-deviations-worth of the series' own MAD.
DEFAULT_MAD_MULT = 5.0

Key = tuple[str, str, str]


@dataclass
class MetricSeries:
    """One metric's trajectory, in ledger/trajectory order."""

    benchmark: str
    metric: str
    config_hash: str
    units: str = ""
    better: str = "lower"
    values: list = field(default_factory=list)
    #: One provenance tag per value (ledger record id / trajectory seq).
    tags: list = field(default_factory=list)

    @property
    def key(self) -> Key:
        return (self.benchmark, self.metric, self.config_hash)

    @property
    def name(self) -> str:
        return f"{self.benchmark}/{self.metric}"

    def add(self, value: float, tag: str = "") -> None:
        self.values.append(float(value))
        self.tags.append(tag)


def _collect_rows(out: dict, rows, tag: str) -> None:
    for result in rows:
        series = out.get(result.key)
        if series is None:
            series = out[result.key] = MetricSeries(
                benchmark=result.benchmark,
                metric=result.metric,
                config_hash=result.config_hash,
                units=result.units,
                better=result.better,
            )
        series.add(result.value, tag)


def series_from_records(records) -> dict[Key, MetricSeries]:
    """Per-metric series from ledger records, keyed like the bench
    compare pipeline: ``(benchmark, metric, config_hash)`` — a changed
    configuration starts a new series rather than polluting an old one."""
    out: dict[Key, MetricSeries] = {}
    for record in records:
        _collect_rows(out, record.bench_results(), record.id)
    return out


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

@dataclass
class TrendVerdict:
    """The detector's judgement of one metric series."""

    series: MetricSeries
    #: ``ok`` | ``regression`` | ``improvement`` | ``insufficient``
    status: str
    latest: float = 0.0
    median: float = 0.0
    mad: float = 0.0
    #: Direction-signed relative change of the latest vs the window
    #: median (positive = worse); ``inf`` on a zero-median shift.
    worsening: float = 0.0
    threshold: float = 0.0
    window: int = 0

    @property
    def is_regression(self) -> bool:
        return self.status == "regression"

    def detail(self) -> str:
        if self.status == "insufficient":
            return (
                f"{len(self.series.values)} point(s); need more history"
            )
        pct = (
            "inf" if math.isinf(self.worsening)
            else f"{self.worsening * 100.0:+.1f}%"
        )
        return (
            f"latest {self.latest:g} vs median {self.median:g} "
            f"over {self.window} point(s): worsening {pct} "
            f"(threshold {self.threshold * 100.0:.1f}%, "
            f"MAD {self.mad:g})"
        )

    def to_dict(self) -> dict:
        return {
            "benchmark": self.series.benchmark,
            "metric": self.series.metric,
            "config_hash": self.series.config_hash,
            "units": self.series.units,
            "better": self.series.better,
            "status": self.status,
            "points": len(self.series.values),
            "latest": self.latest,
            "median": self.median,
            "mad": self.mad,
            "worsening": (
                None if math.isinf(self.worsening) else self.worsening
            ),
            "threshold": self.threshold,
            "window": self.window,
        }


def detect(
    series: MetricSeries,
    window: int = DEFAULT_WINDOW,
    min_points: int = DEFAULT_MIN_POINTS,
    min_worsening: float = DEFAULT_MIN_WORSENING,
    mad_mult: float = DEFAULT_MAD_MULT,
) -> TrendVerdict:
    """Judge a series' latest value against its own recent history."""
    values = series.values
    if len(values) < max(min_points, 2):
        return TrendVerdict(series=series, status="insufficient")
    latest = values[-1]
    baseline = values[:-1][-window:]
    med = median(baseline)
    mad = median(abs(v - med) for v in baseline)
    if med == 0.0:
        # Mirror compare.py's zero-baseline rule: any nonzero latest
        # is an infinite change in its direction.
        change = (
            0.0 if latest == 0.0
            else math.copysign(math.inf, latest)
        )
        mad_rel = 0.0
    else:
        change = (latest - med) / abs(med)
        mad_rel = mad / abs(med)
    worsening = change if series.better == "lower" else -change
    threshold = max(min_worsening, mad_mult * mad_rel)
    if worsening > threshold:
        status = "regression"
    elif worsening < -threshold:
        status = "improvement"
    else:
        status = "ok"
    return TrendVerdict(
        series=series,
        status=status,
        latest=latest,
        median=med,
        mad=mad,
        worsening=worsening,
        threshold=threshold,
        window=len(baseline),
    )


@dataclass
class TrendReport:
    """All per-metric verdicts of one detection pass."""

    verdicts: list[TrendVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> list[TrendVerdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def improvements(self) -> list[TrendVerdict]:
        return [v for v in self.verdicts if v.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_doc(self) -> dict:
        return {
            "schema": TRENDS_SCHEMA,
            "ok": self.ok,
            "metrics": len(self.verdicts),
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render_text(self) -> str:
        from repro.analysis.report import render_table

        rows = []
        for v in sorted(
            self.verdicts,
            key=lambda v: (v.status != "regression", v.series.key),
        ):
            flag = {
                "regression": "REGRESSION",
                "improvement": "improved",
                "insufficient": "(insufficient history)",
            }.get(v.status, "")
            pct = (
                "-" if v.status == "insufficient"
                else "inf" if math.isinf(v.worsening)
                else f"{v.worsening * 100.0:+.1f}%"
            )
            rows.append([
                v.series.benchmark,
                v.series.metric,
                len(v.series.values),
                v.median if v.window else float("nan"),
                v.latest if v.window else float("nan"),
                pct,
                flag,
            ])
        lines = [render_table(
            "Trend detection over the ledger window",
            ["benchmark", "metric", "n", "median", "latest",
             "worsening", ""],
            rows,
            float_format="{:.2f}",
        )]
        lines.append(
            "OK: no metric drifted outside its window"
            if self.ok
            else f"TREND ALERT: {len(self.regressions)} metric(s) "
                 "regressed vs their own history"
        )
        return "\n".join(lines)


def trend_report(
    series_map: dict[Key, MetricSeries],
    window: int = DEFAULT_WINDOW,
    min_points: int = DEFAULT_MIN_POINTS,
    min_worsening: float = DEFAULT_MIN_WORSENING,
    mad_mult: float = DEFAULT_MAD_MULT,
) -> TrendReport:
    """Run :func:`detect` over every series, in deterministic order."""
    return TrendReport(verdicts=[
        detect(
            series_map[key],
            window=window,
            min_points=min_points,
            min_worsening=min_worsening,
            mad_mult=mad_mult,
        )
        for key in sorted(series_map)
    ])


# ---------------------------------------------------------------------------
# The committed trajectory artifact (CI's longitudinal record)
# ---------------------------------------------------------------------------

def read_trajectory(path: str) -> dict:
    """The trajectory document at ``path`` (an empty one if the file
    does not exist yet); raises ``ValueError`` on schema mismatch."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {"schema": TRAJECTORY_SCHEMA, "points": []}
    if not isinstance(doc, dict) or doc.get("schema") != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{path} is not a {TRAJECTORY_SCHEMA} document"
        )
    if not isinstance(doc.get("points"), list):
        raise ValueError(f"{path} has no points list")
    return doc


def append_trajectory(
    path: str,
    results: ResultSet,
    provenance: Optional[dict] = None,
    ts: Optional[float] = None,
) -> dict:
    """Append one trajectory point (read-modify-write, atomic) and
    return the updated document."""
    from repro.runner.cache import atomic_write_json

    doc = read_trajectory(path)
    points = doc["points"]
    points.append({
        "seq": (points[-1]["seq"] + 1) if points else 0,
        "ts": float(ts) if ts is not None else time.time(),
        "provenance": provenance if provenance is not None else {},
        "results": [r.to_dict() for r in results],
    })
    atomic_write_json(path, doc)
    return doc


def series_from_trajectory(doc: dict) -> dict[Key, MetricSeries]:
    """Per-metric series from a trajectory document, same keying as
    :func:`series_from_records`."""
    out: dict[Key, MetricSeries] = {}
    for point in doc.get("points", ()):
        rows = []
        for raw in point.get("results", ()):
            from repro.bench.results import BenchResult

            try:
                rows.append(BenchResult.from_dict(raw))
            except (TypeError, ValueError):
                continue
        _collect_rows(out, rows, f"seq {point.get('seq', '?')}")
    return out
