"""The append-only run ledger: every measurement, with provenance.

The profiler captures one run at a time and the tier-1 pins check one
revision at a time — both are point-in-time tools.  The ledger is the
longitudinal layer underneath them: an append-only JSONL file that
every ``repro profile``, ``repro sweep`` and ``repro congest``
invocation (and ``repro obs log --results FILE``) appends one record
to, so the repository accumulates a machine-readable performance trajectory that
:mod:`repro.observatory.trends` can mine for regressions and
:mod:`repro.observatory.diff` can pull profile captures out of.

Design rules:

* **Append-only, hash-chained.**  A record's ``id`` is the SHA-256 (12
  hex digits) of its canonical body, and the body embeds the ``id`` of
  the previous record — so reordering, deleting, or editing history is
  detectable with :meth:`Ledger.verify`, the same
  verify-never-trust discipline as the result cache.
* **Robust to torn writes.**  Appends are single ``write()`` calls of
  one newline-terminated line, flushed and fsynced; a reader that
  races an append (or finds a line a crashed writer truncated) warns,
  skips the bad line, and keeps going — and a subsequent append starts
  cleanly on a fresh line.  A damaged ledger never blocks new records.
* **Observability only, never results.**  Nothing in this module is
  consulted by a simulation: run results, sweep checkpoints, and bench
  JSON are byte-identical with the ledger enabled or disabled
  (property-tested).  Records carry wall-clock timestamps and host
  facts precisely *because* they are not part of the deterministic
  result surface.

Every record carries **provenance**: the repro source fingerprint (the
same digest the content-addressed result cache keys on), git revision,
hostname, CPU model, Python version, and — when the producing run
supplied them — wall seconds, simulator events/second, and peak RSS in
bytes.  That is what makes a value from last month comparable to one
from today: the record says what code, what machine, and how fast.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.bench.results import BenchResult, ResultSet, canonical_json

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.result import RunResult

#: Record schema; bump on incompatible layout changes.
SCHEMA = "repro-ledger/1"

#: ``prev`` value of the first record in a chain.
GENESIS = "0" * 12

#: Default ledger location (cwd-relative, like ``.repro-cache``).
DEFAULT_LEDGER_PATH = ".repro-ledger.jsonl"

#: Record kinds the CLI produces; free-form kinds are allowed too.
KNOWN_KINDS = ("bench", "profile", "sweep", "run")

_LOG = logging.getLogger("repro.obs")

_ENV_OFF = ("", "0", "off", "none", "disabled")


def default_ledger_path() -> Optional[str]:
    """The ambient ledger path: ``$REPRO_LEDGER`` if set (a falsey
    value — ``0``/``off``/``none``/empty — disables the ledger
    entirely), else :data:`DEFAULT_LEDGER_PATH`."""
    env = os.environ.get("REPRO_LEDGER")
    if env is None:
        return DEFAULT_LEDGER_PATH
    if env.strip().lower() in _ENV_OFF:
        return None
    return env


def record_id(body: dict) -> str:
    """12-hex-digit digest of a record body (everything but ``id``)."""
    return hashlib.sha256(
        canonical_json(body).encode("utf-8")
    ).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

_HOST_FACTS: Optional[dict] = None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_facts() -> dict:
    """Hostname / CPU / Python facts, gathered once per process."""
    global _HOST_FACTS
    if _HOST_FACTS is None:
        _HOST_FACTS = {
            "hostname": platform.node() or "unknown",
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": sys.platform,
        }
    return dict(_HOST_FACTS)


def git_revision() -> Optional[str]:
    """The current git revision: ``$GITHUB_SHA`` in CI, else a
    best-effort ``git rev-parse HEAD`` (``None`` outside a repo)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def source_fingerprint() -> str:
    """The repro source fingerprint — the same digest the
    content-addressed result cache keys entries on, truncated to 12
    hex digits.  Two ledger records with equal fingerprints measured
    identical simulator code."""
    from repro.runner.cache import code_fingerprint

    return code_fingerprint()[:12]


def build_provenance(
    spec=None, meta: Optional[dict] = None
) -> dict:
    """One record's provenance block: code identity (fingerprint, git
    rev), host identity, and — from a run's ``meta`` when available —
    wall seconds, events/second, and peak RSS **in bytes** (normalized
    at the source by :func:`repro.profile.telemetry.peak_rss_bytes`, so
    records are comparable across Linux and macOS hosts)."""
    doc = host_facts()
    doc["source_fingerprint"] = source_fingerprint()
    rev = git_revision()
    if rev:
        doc["git_rev"] = rev
    if spec is not None:
        doc["spec_hash"] = spec.spec_hash
    for key in (
        "wall_time_s", "loop_wall_s", "events_per_second", "peak_rss_bytes",
    ):
        if meta and key in meta:
            doc[key] = meta[key]
    return doc


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class LedgerRecord:
    """One appended measurement record."""

    seq: int
    id: str
    prev: str
    ts: float
    kind: str
    label: str
    provenance: dict = field(default_factory=dict)
    #: ``repro-bench/1`` result rows (benchmark/metric/value/units/
    #: better/config/config_hash) — the trend detector's input.
    metrics: list = field(default_factory=list)
    #: Kind-specific payloads (a profile capture's wall profile, a
    #: congestion tree, a sweep summary).
    attachments: dict = field(default_factory=dict)

    def body(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "seq": self.seq,
            "prev": self.prev,
            "ts": self.ts,
            "kind": self.kind,
            "label": self.label,
            "provenance": self.provenance,
            "metrics": self.metrics,
        }
        if self.attachments:
            doc["attachments"] = self.attachments
        return doc

    def to_dict(self) -> dict:
        doc = self.body()
        doc["id"] = self.id
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LedgerRecord":
        if not isinstance(doc, dict):
            raise ValueError("record must be a JSON object")
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"unsupported record schema {doc.get('schema')!r}")
        missing = {"seq", "id", "prev", "kind", "label"} - set(doc)
        if missing:
            raise ValueError(f"record missing fields: {sorted(missing)}")
        metrics = doc.get("metrics", [])
        if not isinstance(metrics, list):
            raise ValueError("record metrics must be a list")
        return cls(
            seq=int(doc["seq"]),
            id=str(doc["id"]),
            prev=str(doc["prev"]),
            ts=float(doc.get("ts", 0.0)),
            kind=str(doc["kind"]),
            label=str(doc["label"]),
            provenance=doc.get("provenance", {}) or {},
            metrics=metrics,
            attachments=doc.get("attachments", {}) or {},
        )

    def bench_results(self) -> list[BenchResult]:
        """The record's metric rows as typed results (rows that fail
        validation are skipped — the ledger may span schema eras)."""
        out = []
        for row in self.metrics:
            try:
                out.append(BenchResult.from_dict(row))
            except (TypeError, ValueError):
                continue
        return out


@dataclass
class SkippedLine:
    """One unreadable ledger line a reader stepped over."""

    lineno: int
    reason: str


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

class Ledger:
    """An append-only, hash-chained JSONL measurement log."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        #: Lines the most recent :meth:`read` could not parse.
        self.skipped: list[SkippedLine] = []

    # -- read --------------------------------------------------------------
    def read(self) -> list[LedgerRecord]:
        """Every parseable record, in file order.

        A corrupt line — torn write, truncated tail, stray garbage —
        is warned about (``repro.obs`` logger), remembered on
        :attr:`skipped`, and stepped over: one bad line never hides
        the rest of the history.
        """
        self.skipped = []
        records: list[LedgerRecord] = []
        try:
            with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return records
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                records.append(LedgerRecord.from_dict(json.loads(text)))
            except (ValueError, TypeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self.skipped.append(SkippedLine(lineno, reason))
                _LOG.warning(
                    "ledger %s line %d unreadable (%s); skipping",
                    self.path, lineno, reason,
                )
        return records

    def last(self) -> Optional[LedgerRecord]:
        records = self.read()
        return records[-1] if records else None

    def get(self, id_or_prefix: str) -> Optional[LedgerRecord]:
        """The unique record whose id matches ``id_or_prefix`` (full id
        or unambiguous prefix, most recent wins on exact match)."""
        wanted = id_or_prefix.strip().lower()
        if not wanted:
            return None
        matches = [
            rec for rec in self.read() if rec.id.lower().startswith(wanted)
        ]
        exact = [rec for rec in matches if rec.id.lower() == wanted]
        if exact:
            return exact[-1]
        distinct = {rec.id for rec in matches}
        if len(distinct) == 1:
            return matches[-1]
        return None

    def verify(self) -> list[str]:
        """Hash-chain problems, empty when the ledger is intact:
        recomputed ids must match stored ids, ``prev`` pointers must
        chain, and ``seq`` must increase."""
        problems = []
        prev_id = GENESIS
        prev_seq = -1
        for rec in self.read():
            if record_id(rec.body()) != rec.id:
                problems.append(
                    f"record {rec.id} (seq {rec.seq}): body does not "
                    f"hash to its id — edited after append?"
                )
            if rec.prev != prev_id:
                problems.append(
                    f"record {rec.id} (seq {rec.seq}): prev {rec.prev} "
                    f"!= {prev_id} — chain broken (deleted/reordered "
                    "records, or records lost to corruption)"
                )
            if rec.seq <= prev_seq:
                problems.append(
                    f"record {rec.id}: seq {rec.seq} does not increase "
                    f"past {prev_seq}"
                )
            prev_id, prev_seq = rec.id, rec.seq
        for skip in self.skipped:
            problems.append(
                f"line {skip.lineno}: unreadable ({skip.reason})"
            )
        return problems

    # -- append ------------------------------------------------------------
    def append(
        self,
        kind: str,
        label: str,
        metrics: Iterable[dict] = (),
        provenance: Optional[dict] = None,
        attachments: Optional[dict] = None,
        ts: Optional[float] = None,
    ) -> LedgerRecord:
        """Append one record, chained to the last *valid* record.

        The write is a single newline-terminated line, flushed and
        fsynced.  If the file currently ends in a truncated line (a
        writer died mid-append), a newline is emitted first so the new
        record starts clean — the damage stays confined to the one
        torn line, which readers already skip.
        """
        last = self.last()
        record = LedgerRecord(
            seq=(last.seq + 1) if last is not None else 0,
            id="",
            prev=last.id if last is not None else GENESIS,
            ts=float(ts) if ts is not None else time.time(),
            kind=str(kind),
            label=str(label),
            provenance=provenance if provenance is not None else {},
            metrics=[dict(row) for row in metrics],
            attachments=dict(attachments or {}),
        )
        record.id = record_id(record.body())
        line = canonical_json(record.to_dict()) + "\n"
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        needs_newline = False
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    needs_newline = fh.read(1) != b"\n"
        except FileNotFoundError:
            pass
        if needs_newline:
            _LOG.warning(
                "ledger %s ends in a truncated line (torn write); "
                "starting a fresh line and appending past it", self.path,
            )
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(("\n" if needs_newline else "") + line)
            fh.flush()
            os.fsync(fh.fileno())
        return record


# ---------------------------------------------------------------------------
# Record builders for the three producing pipelines
# ---------------------------------------------------------------------------

def log_bench(
    ledger: Ledger,
    results: ResultSet,
    label: str = "bench",
    meta: Optional[dict] = None,
) -> LedgerRecord:
    """Append a ``repro-bench/1`` results file: one row per result."""
    return ledger.append(
        kind="bench",
        label=label,
        metrics=[r.to_dict() for r in results],
        provenance=build_provenance(meta=meta),
    )


def log_profile(ledger: Ledger, result: "RunResult") -> LedgerRecord:
    """Append a profile capture: headline engine metrics as rows (so
    trends can watch events/second over time) and the full wall
    profile as an attachment (so ``--diff <ledger-id>`` can align a
    future capture against this one)."""
    profiler = result.profile
    if profiler is None:
        raise ValueError("result carries no profile; run with profile=True")
    config = result.spec.to_dict()
    rows = [
        BenchResult("profile", "loop_wall_ns", profiler.loop_wall_ns,
                    "ns", "lower", config),
        BenchResult("profile", "events_total", profiler.events_total,
                    "events", "lower", config),
        BenchResult("profile", "events_per_second",
                    profiler.events_per_second, "events/s", "higher",
                    config),
    ]
    return ledger.append(
        kind="profile",
        label=f"profile {result.spec.label()}",
        metrics=[r.to_dict() for r in rows],
        provenance=build_provenance(spec=result.spec, meta=result.meta),
        attachments={"wall_profile": profiler.wall_profile()},
    )


def log_congest(ledger: Ledger, result: "RunResult", tree) -> LedgerRecord:
    """Append a congestion X-ray: the headline backpressure scalars as
    rows (so ``repro obs trends`` watches HOL-wait regressions over
    time) and the full congestion tree as an attachment."""
    config = result.spec.to_dict()
    worst = tree.worst
    rows = [
        BenchResult("congest", "hol_wait_total_ns", tree.total_wait_ns,
                    "ns", "lower", config),
        BenchResult("congest", "worst_link_wait_ns",
                    worst.wait_ns if worst is not None else 0.0,
                    "ns", "lower", config),
        BenchResult("congest", "contended_links", len(tree.links),
                    "links", "lower", config),
        BenchResult("congest", "contended_hops", tree.contended_hops,
                    "hops", "lower", config),
        BenchResult("congest", "episodes", len(tree.episodes()),
                    "episodes", "lower", config),
        BenchResult("congest", "max_peak_queue",
                    max((lc.peak_depth for lc in tree.links), default=0),
                    "packets", "lower", config),
    ]
    return ledger.append(
        kind="congest",
        label=f"congest {result.spec.label()}",
        metrics=[r.to_dict() for r in rows],
        provenance=build_provenance(spec=result.spec, meta=result.meta),
        attachments={"congestion": tree.to_doc(top=16)},
    )


def log_sweep(ledger: Ledger, report, label: str = "sweep") -> LedgerRecord:
    """Append a sweep: every completed point's measurements as rows
    plus the execution summary (cache hit rate, retries, wall time)."""
    return ledger.append(
        kind="sweep",
        label=label,
        metrics=[r.to_dict() for r in report.result_set()],
        provenance=build_provenance(),
        attachments={"summary": report.summary_doc()},
    )
