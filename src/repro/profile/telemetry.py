"""Live cross-process sweep telemetry.

A sweep worker would be a black box until it returns: the parent
would learn a point's fate only when its outcome arrives.  This module
makes workers report in.  They emit structured **telemetry events** —
plain dicts, picklable, shipped over each worker's pipe —

* ``started`` when a point begins executing (with the worker pid),
* ``finished`` when it completes (wall seconds, simulator events/sec,
  peak RSS),
* ``failed`` / ``timed_out`` / ``retried`` from the worker scheduler,
* ``cache_hit`` / ``cache_miss`` / ``resumed`` from the parent's own
  cache and checkpoint consultations,

and the parent folds them into one :class:`SweepTelemetry` aggregator:
live ``sweep.*`` gauges in the metrics registry, a periodically
rewritten ``status.json`` in the sweep directory (atomic, so a watcher
process — or ``tail``-ing CI — never sees a torn write), a terminal
progress line with ETA, a Prometheus exposition, and an HTML report
section rendered through the PR-3 report pipeline.

Everything here is parent-side bookkeeping over wall-clock data; none
of it touches simulated state, so telemetry can never perturb results
— the sweep's byte-identity properties hold with it on or off.
"""

from __future__ import annotations

import html as _html
import json
import os
import sys
import time
from typing import Callable, Optional

from repro.trace.metrics import MetricsRegistry

#: Schema tag for the live status file; bump on layout changes.
STATUS_SCHEMA = "repro-sweep-status/1"

#: Event kinds a :class:`SweepTelemetry` understands.
EVENT_KINDS = (
    "started",
    "finished",
    "failed",
    "retried",
    "timed_out",
    "cache_hit",
    "cache_miss",
    "resumed",
)

#: Kinds that settle a point (drive the done count and the ETA).
_TERMINAL = ("finished", "failed", "cache_hit", "resumed")


def peak_rss_bytes() -> int:
    """This process's peak resident set size **in bytes**, normalized
    once at the source: ``ru_maxrss`` is kibibytes on Linux but bytes
    on macOS, and every consumer downstream — run meta, telemetry
    events, ledger provenance — assumes bytes.  Returns 0 where the
    platform offers no ``getrusage``."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if rss <= 0:  # pragma: no cover - defensive
        return 0
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return rss
    return rss * 1024


def make_event(kind: str, index: int, **fields) -> dict:
    """One telemetry event (validated kind, pid stamped if absent)."""
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown telemetry event kind {kind!r}")
    event = {"kind": kind, "index": int(index)}
    event.setdefault("pid", os.getpid())
    event.update(fields)
    return event


def _fmt_duration(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:
        return "?"
    if seconds < 60:
        return f"{seconds:.0f}s"
    m, s = divmod(int(seconds), 60)
    if m < 60:
        return f"{m}m{s:02d}s"
    h, m = divmod(m, 60)
    return f"{h}h{m:02d}m"


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


class SweepTelemetry:
    """Parent-side aggregator for a sweep's telemetry event stream.

    Feed it events via :meth:`record`; read it back as gauges (live in
    ``registry``), :meth:`status_doc` / ``status.json``,
    :meth:`progress_line`, :meth:`prometheus`, or
    :meth:`html_section`.
    """

    def __init__(
        self,
        total: int,
        *,
        registry: Optional[MetricsRegistry] = None,
        out_dir: Optional[str] = None,
        status_interval_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = int(total)
        self.registry = registry
        self.out_dir = out_dir
        self.status_interval_s = status_interval_s
        self._clock = clock
        self._t0 = clock()
        self._last_status_write = -1.0
        self.status_writes = 0
        #: Every event seen, in arrival order (tests read this).
        self.events: list[dict] = []
        #: Optional observer invoked after each event is folded in —
        #: the CLI hangs its live progress printing here.
        self.on_event: Optional[Callable[[dict], None]] = None
        self.counts: dict[str, int] = {kind: 0 for kind in EVENT_KINDS}
        self.done = 0
        self.ok = 0
        #: pid -> {"index", "since", "spec"} for points now executing.
        self.inflight: dict[int, dict] = {}
        #: pids that ever reported a ``started`` event.
        self.worker_pids: set[int] = set()
        self.peak_rss_bytes = 0
        self.events_per_second = 0.0
        self._finished_wall_s = 0.0

    # -- ingest ------------------------------------------------------------
    def record(self, event: dict) -> None:
        """Fold one event in and refresh gauges + status file."""
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown telemetry event kind {kind!r}")
        self.events.append(event)
        self.counts[kind] += 1
        pid = event.get("pid")
        if kind == "started":
            if pid is not None:
                self.worker_pids.add(pid)
                self.inflight[pid] = {
                    "index": event.get("index"),
                    "spec": event.get("spec", ""),
                    "since": self._clock(),
                }
        elif kind in _TERMINAL:
            self.done += 1
            if kind != "failed":
                self.ok += 1
            # Settle by index, not pid: failure events are emitted by
            # the parent, whose pid never matches the worker's.
            index = event.get("index")
            for worker in [
                p for p, entry in self.inflight.items()
                if entry.get("index") == index
            ]:
                del self.inflight[worker]
            if kind == "finished":
                self._finished_wall_s += float(event.get("wall_s", 0.0))
                eps = float(event.get("events_per_second", 0.0))
                if eps > 0:
                    self.events_per_second = eps
                rss = int(event.get("peak_rss_bytes", 0))
                if rss > self.peak_rss_bytes:
                    self.peak_rss_bytes = rss
        self._update_gauges()
        self.maybe_write_status()
        if self.on_event is not None:
            self.on_event(event)

    def _update_gauges(self) -> None:
        registry = self.registry
        if registry is None:
            return

        def gauge(name: str, value: float, help_text: str) -> None:
            registry.gauge(f"sweep.{name}", help=help_text).set(value)

        gauge("total", self.total, "Grid points in this sweep.")
        gauge("done", self.done, "Points settled so far.")
        gauge("inflight", len(self.inflight),
              "Points executing right now.")
        gauge("workers", len(self.worker_pids),
              "Distinct worker pids that reported in.")
        gauge("cache_hit_rate", self.cache_hit_rate,
              "Cache hits / (hits + misses), 0 when neither.")
        gauge("eta_s", self.eta_s if self.eta_s is not None else -1.0,
              "Estimated seconds to completion (-1: unknown).")
        gauge("events_per_second", self.events_per_second,
              "Simulator events/sec of the most recent finished point.")
        gauge("peak_rss_bytes", self.peak_rss_bytes,
              "Largest worker peak RSS reported so far.")

    # -- derived -----------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    @property
    def cache_hit_rate(self) -> float:
        consulted = self.counts["cache_hit"] + self.counts["cache_miss"]
        return self.counts["cache_hit"] / consulted if consulted else 0.0

    @property
    def eta_s(self) -> Optional[float]:
        """Remaining seconds at the observed settlement rate, or
        ``None`` before the first settled point."""
        if self.done == 0 or self.done >= self.total:
            return 0.0 if self.done >= self.total else None
        rate = self.done / max(self.elapsed_s, 1e-9)
        return (self.total - self.done) / rate

    def progress_line(self) -> str:
        """One-line terminal progress summary with ETA."""
        pct = 100.0 * self.done / self.total if self.total else 100.0
        eta = self.eta_s
        bits = [
            f"[{self.done}/{self.total}]",
            f"{pct:3.0f}%",
            f"ok={self.ok}",
        ]
        if self.counts["failed"]:
            bits.append(f"failed={self.counts['failed']}")
        if self.counts["retried"]:
            bits.append(f"retried={self.counts['retried']}")
        if self.counts["cache_hit"]:
            bits.append(f"cached={self.counts['cache_hit']}")
        if self.inflight:
            bits.append(f"inflight={len(self.inflight)}")
        if self.events_per_second:
            bits.append(f"{self.events_per_second:,.0f} ev/s")
        bits.append(
            "done" if self.done >= self.total
            else f"eta={_fmt_duration(eta) if eta is not None else '?'}"
        )
        return " ".join(bits)

    # -- status.json -------------------------------------------------------
    def status_doc(self) -> dict:
        now = self._clock()
        return {
            "schema": STATUS_SCHEMA,
            "total": self.total,
            "done": self.done,
            "ok": self.ok,
            "failed": self.counts["failed"],
            "retried": self.counts["retried"],
            "timed_out": self.counts["timed_out"],
            "cache_hits": self.counts["cache_hit"],
            "cache_misses": self.counts["cache_miss"],
            "cache_hit_rate": self.cache_hit_rate,
            "resumed": self.counts["resumed"],
            "elapsed_s": self.elapsed_s,
            "eta_s": self.eta_s,
            "events_per_second": self.events_per_second,
            "peak_rss_bytes": self.peak_rss_bytes,
            "workers": sorted(self.worker_pids),
            "inflight": [
                {
                    "pid": pid,
                    "index": entry["index"],
                    "spec": entry["spec"],
                    "running_s": now - entry["since"],
                }
                for pid, entry in sorted(self.inflight.items())
            ],
        }

    def write_status(self) -> Optional[str]:
        """Atomically rewrite ``status.json`` (no-op without a dir)."""
        if not self.out_dir:
            return None
        from repro.runner.cache import atomic_write_json

        path = os.path.join(self.out_dir, "status.json")
        atomic_write_json(path, self.status_doc())
        self.status_writes += 1
        self._last_status_write = self._clock()
        return path

    def maybe_write_status(self) -> Optional[str]:
        """Throttled :meth:`write_status` (at most once per
        ``status_interval_s``; :meth:`finalize` flushes the tail)."""
        if not self.out_dir:
            return None
        now = self._clock()
        if (
            self._last_status_write >= 0
            and now - self._last_status_write < self.status_interval_s
        ):
            return None
        return self.write_status()

    def finalize(self) -> dict:
        """Final gauge refresh + unthrottled status flush; returns the
        final status document."""
        self._update_gauges()
        self.write_status()
        return self.status_doc()

    # -- exports -----------------------------------------------------------
    def summary_lines(self) -> list[str]:
        """End-of-sweep summary for the CLI (the satellite: no manifest
        spelunking required to learn how a sweep went)."""
        consulted = self.counts["cache_hit"] + self.counts["cache_miss"]
        lines = [
            f"{self.total} grid points: {self.ok} ok, "
            f"{self.counts['failed']} failed, "
            f"{self.counts['retried']} retried, "
            f"{self.counts['timed_out']} timed out",
            (
                f"cache: {self.counts['cache_hit']}/{consulted} hits "
                f"({100.0 * self.cache_hit_rate:.0f}%)"
                if consulted
                else "cache: not consulted"
            ),
            f"wall time: {_fmt_duration(self.elapsed_s)} "
            f"across {max(len(self.worker_pids), 1)} worker(s)",
        ]
        if self.peak_rss_bytes:
            lines.append(
                f"peak worker RSS: {_fmt_bytes(self.peak_rss_bytes)}"
            )
        if self.events_per_second:
            lines.append(
                f"simulator throughput: "
                f"{self.events_per_second:,.0f} events/s (last point)"
            )
        return lines

    def prometheus(self) -> str:
        """The live ``sweep.*`` gauges (plus anything else in the
        attached registry) as one Prometheus exposition."""
        from repro.monitor.report import render_registry_prometheus

        self._update_gauges()
        return render_registry_prometheus(self.registry)

    def html_section(self) -> str:
        """An HTML fragment for the PR-3 sweep report: progress tiles
        plus the per-kind event counts."""
        doc = self.status_doc()
        tiles = [
            ("points settled", f"{doc['done']}/{doc['total']}"),
            ("ok", str(doc["ok"])),
            ("failed", str(doc["failed"])),
            ("retried", str(doc["retried"])),
            ("cache hit-rate", f"{100.0 * doc['cache_hit_rate']:.0f}%"),
            ("wall time", _fmt_duration(doc["elapsed_s"])),
        ]
        if doc["peak_rss_bytes"]:
            tiles.append(("peak worker RSS", _fmt_bytes(doc["peak_rss_bytes"])))
        if doc["events_per_second"]:
            tiles.append(
                ("events/s", f"{doc['events_per_second']:,.0f}")
            )
        tile_html = "".join(
            f'<div class="tile"><div class="v">{_html.escape(v)}</div>'
            f'<div class="k">{_html.escape(k)}</div></div>'
            for k, v in tiles
        )
        rows = "".join(
            f"<tr><td>{_html.escape(kind)}</td>"
            f'<td class="num">{self.counts[kind]}</td></tr>'
            for kind in EVENT_KINDS
            if self.counts[kind]
        ) or '<tr><td colspan="2">no telemetry events</td></tr>'
        return (
            "<h2>Sweep telemetry</h2>\n"
            f'<div class="tiles">{tile_html}</div>\n'
            "<details><summary>telemetry event counts</summary>"
            "<table><thead><tr><th>event</th>"
            '<th class="num">count</th></tr></thead>'
            f"<tbody>{rows}</tbody></table></details>\n"
        )


def read_status(out_dir: str) -> Optional[dict]:
    """The sweep's current ``status.json``, or ``None`` if absent or
    momentarily unreadable (the writer is atomic, but the sweep may
    not have started yet)."""
    path = os.path.join(out_dir, "status.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None
