"""The performance observatory: the longitudinal layer over bench,
profile, and sweep.

Three pieces, each usable alone:

* :mod:`repro.observatory.ledger` — the append-only, hash-chained JSONL
  run ledger every measuring CLI appends to (with provenance: source
  fingerprint, git rev, host facts, wall/events-per-second);
* :mod:`repro.observatory.trends` — robust (median + MAD,
  direction-aware) trend and regression detection over the ledger or
  the committed ``BENCH_TRAJECTORY.json``;
* :mod:`repro.observatory.diff` — differential profiling: attribute a
  wall-ns delta between two profiler captures with exact tiling and an
  explicit residual row.

``python -m repro obs`` is the front end (``log | trends | diff |
report``); :mod:`repro.observatory.report` renders the HTML dashboard
and Prometheus exposition through the monitor pipeline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "diff": (
        "DIFF_SCHEMA", "DiffRow", "ProfileDiff", "RESIDUAL_LABEL",
        "diff_profiles", "render_diff",
    ),
    "ledger": (
        "DEFAULT_LEDGER_PATH", "GENESIS", "Ledger", "LedgerRecord", "SCHEMA",
        "SkippedLine", "build_provenance", "default_ledger_path",
        "git_revision", "host_facts", "log_bench", "log_profile",
        "log_sweep", "record_id", "source_fingerprint",
    ),
    "report": ("render_observatory_html", "render_observatory_prometheus"),
    "trends": (
        "DEFAULT_MAD_MULT", "DEFAULT_MIN_POINTS", "DEFAULT_MIN_WORSENING",
        "DEFAULT_WINDOW", "MetricSeries", "TRAJECTORY_SCHEMA",
        "TRENDS_SCHEMA", "TrendReport", "TrendVerdict", "append_trajectory",
        "detect", "read_trajectory", "series_from_records",
        "series_from_trajectory", "trend_report",
    ),
})

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "DEFAULT_MAD_MULT",
    "DEFAULT_MIN_POINTS",
    "DEFAULT_MIN_WORSENING",
    "DEFAULT_WINDOW",
    "DIFF_SCHEMA",
    "DiffRow",
    "GENESIS",
    "Ledger",
    "LedgerRecord",
    "MetricSeries",
    "ProfileDiff",
    "RESIDUAL_LABEL",
    "SCHEMA",
    "SkippedLine",
    "TRAJECTORY_SCHEMA",
    "TRENDS_SCHEMA",
    "TrendReport",
    "TrendVerdict",
    "append_trajectory",
    "build_provenance",
    "default_ledger_path",
    "detect",
    "diff_profiles",
    "git_revision",
    "host_facts",
    "log_bench",
    "log_profile",
    "log_sweep",
    "read_trajectory",
    "record_id",
    "render_diff",
    "render_observatory_html",
    "render_observatory_prometheus",
    "series_from_records",
    "series_from_trajectory",
    "source_fingerprint",
    "trend_report",
]
