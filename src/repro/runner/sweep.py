"""Parallel sweep orchestration over grids of independent runs.

The paper's figures are all sweeps — latency vs hops (Fig. 5),
message granularity (Fig. 7), all-reduce across torus shapes
(Table 2) — and every grid point is an independent discrete-event
simulation.  :func:`run_sweep` executes such a grid:

* **Parallel but reproducible** — points run on up to ``jobs``
  persistent worker processes, yet results are collected *by grid
  index*, so the persisted output is bit-identical to a serial run:
  parallelism changes wall-clock, never bytes.
* **Deterministic seeds** — every run derives its RNG seed from the
  spec's content (:meth:`ExperimentSpec.derived_seed`), so a point
  computes the same result in any process, any order, any worker.
* **Content-addressed caching** — an optional
  :class:`~repro.runner.cache.ResultCache` is consulted before
  dispatch; hits skip the simulation entirely and corrupt entries are
  detected (hash validation) and recomputed, never served.
* **Resumable checkpointing** — with an output directory, every
  completed point is written atomically under ``points/`` next to a
  sweep manifest; ``resume=True`` picks up where a previous partial
  sweep stopped.  A truncated or corrupt checkpoint is warned about
  (``repro.sweep`` logger, ``sweep.checkpoint_corrupt`` counter) and
  recomputed — it never crashes the resume.
* **Hardened execution** — every worker is killable: optional
  per-point wall-clock timeouts (``timeout_s``) terminate hung
  workers, a worker that dies fails only its own point, and bounded
  retry with exponential backoff (``retries``/``retry_backoff_s``)
  reruns a failed point in another process.
* **Progress and failure reporting** — per-point counters land in the
  metrics registry (``sweep.*``) and the final judgement is an
  ordinary :class:`~repro.monitor.watchdog.HealthVerdict`, so sweep
  health renders and gates exactly like the monitor subsystem's.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.bench.results import ResultSet, canonical_json
from repro.monitor.watchdog import LEVELS, CheckResult, HealthVerdict
from repro.runner.cache import ResultCache, atomic_write_json
from repro.runner.result import Captures, RunResult, run_experiment
from repro.runner.spec import ExperimentSpec, get_experiment
from repro.trace.metrics import MetricsRegistry, active_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.profile.telemetry import SweepTelemetry

#: Manifest schema for sweep checkpoints; bump on layout changes.
SWEEP_SCHEMA = "repro-sweep/1"

_LOG = logging.getLogger("repro.sweep")

#: Spec fields a grid axis may target directly; anything else becomes
#: an experiment-specific extra.
SPEC_AXES = ("shape", "rounds", "payload", "seed", "hops")


# ---------------------------------------------------------------------------
# Grid parsing and expansion
# ---------------------------------------------------------------------------

def _parse_shape_value(text: str) -> tuple[int, int, int]:
    try:
        x, y, z = (int(p) for p in text.lower().split("x"))
        return (x, y, z)
    except ValueError:
        raise ValueError(f"shape must look like 8x8x8, got {text!r}") from None


def _parse_axis_value(key: str, text: str) -> Any:
    text = text.strip()
    if key == "shape":
        return _parse_shape_value(text)
    if key in ("rounds", "payload", "seed", "hops"):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"grid axis {key!r} needs integers, got {text!r}")
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def parse_grid(items: Iterable[str]) -> dict[str, list]:
    """Parse repeated ``--grid key=v1,v2,...`` arguments into ordered
    axes.  Axis order is preserved: it defines expansion order."""
    axes: dict[str, list] = {}
    for item in items:
        key, sep, values = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(
                f"grid axis must look like key=v1,v2,... got {item!r}"
            )
        if key in axes:
            raise ValueError(f"duplicate grid axis {key!r}")
        parsed = [
            _parse_axis_value(key, v) for v in values.split(",") if v.strip()
        ]
        if not parsed:
            raise ValueError(f"grid axis {key!r} has no values")
        axes[key] = parsed
    return axes


def expand_grid(
    experiment: str,
    axes: dict[str, list],
    base: Optional[dict[str, Any]] = None,
) -> list[ExperimentSpec]:
    """The cartesian product of ``axes`` as specs, in deterministic
    order (axes in given order, last axis fastest)."""
    get_experiment(experiment)  # fail fast on unknown names
    base = dict(base or {})
    keys = list(axes)
    specs = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        params = dict(base)
        params.update(zip(keys, combo))
        spec_kwargs = {k: v for k, v in params.items() if k in SPEC_AXES}
        extras = {k: v for k, v in params.items() if k not in SPEC_AXES}
        spec = ExperimentSpec(experiment=experiment, **spec_kwargs)
        if extras:
            spec = spec.with_extras(**extras)
        specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    """One grid point's fate."""

    index: int
    spec: ExperimentSpec
    result: Optional[RunResult] = None
    cached: bool = False
    error: Optional[str] = None
    #: Execution attempts this point consumed (0 for cache/resume hits,
    #: 1 for a clean first run, more when the worker scheduler
    #: retried).
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.result is not None and self.error is None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "failed"
        return "cached" if self.cached else "computed"


@dataclass
class SweepReport:
    """Everything one sweep produced, in grid order."""

    points: list[SweepPoint]
    jobs: int
    cache: Optional[ResultCache] = None
    out_dir: Optional[str] = None
    resumed: int = 0
    #: Parent-observed wall-clock seconds the whole sweep took.
    wall_s: float = 0.0
    #: The observatory ledger record this sweep appended (``None`` when
    #: no ledger was attached or the append failed).
    ledger_record: Optional[object] = None

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def failures(self) -> list[SweepPoint]:
        return [p for p in self.points if p.error is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.points if p.cached)

    @property
    def computed(self) -> int:
        return sum(1 for p in self.points if p.ok and not p.cached)

    @property
    def retried(self) -> int:
        """Extra execution attempts beyond each point's first."""
        return sum(max(0, p.attempts - 1) for p in self.points)

    @property
    def cache_hit_rate(self) -> float:
        """Hits over consultations (resumed points never consulted the
        cache); 0.0 when no cache was attached."""
        consulted = len(self.points) - self.resumed
        hits = self.cache_hits - self.resumed
        return hits / consulted if consulted > 0 else 0.0

    def results(self) -> list[RunResult]:
        return [p.result for p in self.points if p.ok]

    def result_set(self) -> ResultSet:
        """All measurements as one ``repro-bench/1`` document.  Built
        from points in grid order; since specs are distinct and the
        set orders canonically, the bytes are independent of worker
        scheduling — a ``--jobs 8`` sweep serializes identically to
        ``--jobs 1``."""
        out = ResultSet()
        for p in self.points:
            if p.ok:
                for row in p.result.to_bench_results():
                    out.add(row)
        return out

    def verdict(self) -> HealthVerdict:
        """The sweep's health as the monitor subsystem's verdict type
        (renders and gates like any other health check)."""
        total = len(self.points)
        done = sum(1 for p in self.points if p.ok)
        checks = [
            CheckResult(
                name="sweep.completed",
                status="ok" if done == total else "error",
                detail=f"{done}/{total} grid points completed",
            ),
            CheckResult(
                name="sweep.failures",
                status="ok" if not self.failures else "error",
                detail=(
                    "no failed points"
                    if not self.failures
                    else "; ".join(
                        f"#{p.index} {p.spec.label()}: {p.error}"
                        for p in self.failures[:4]
                    )
                    + ("" if len(self.failures) <= 4 else " ...")
                ),
            ),
        ]
        corrupt = self.cache.stats.corrupt if self.cache else 0
        checks.append(
            CheckResult(
                name="sweep.cache_integrity",
                status="ok" if corrupt == 0 else "warning",
                detail=(
                    "all cache entries verified"
                    if corrupt == 0
                    else f"{corrupt} corrupt cache entr"
                    + ("y" if corrupt == 1 else "ies")
                    + " detected and recomputed"
                ),
            )
        )
        return HealthVerdict(
            checks=checks,
            sim_time_ns=sum(p.result.elapsed_ns for p in self.points if p.ok),
            packets_injected=0,
            packets_delivered=0,
            packets_in_flight=0,
            samples_recorded=done,
            dropped_samples=0,
            dropped_diagnostics=0,
            diagnostic_counts={level: 0 for level in LEVELS},
        )

    def summary_doc(self) -> dict:
        return {
            "schema": "repro-sweep-summary/1",
            "points": len(self.points),
            "completed": sum(1 for p in self.points if p.ok),
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "retried": self.retried,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_s": self.wall_s,
            "failures": [
                {"index": p.index, "spec": p.spec.to_dict(), "error": p.error}
                for p in self.failures
            ],
            "jobs": self.jobs,
            "cache": self.cache.stats.as_dict() if self.cache else None,
        }


def sweep_key(specs: Sequence[ExperimentSpec]) -> str:
    """12-hex identity of a sweep: the ordered list of its specs."""
    doc = {"schema": SWEEP_SCHEMA, "specs": [s.to_dict() for s in specs]}
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:12]


def _settle_payload(point: SweepPoint, envelope: dict) -> None:
    """Decode a worker envelope into ``point`` (meta rides along on
    the non-serialized attribute)."""
    try:
        point.result = RunResult.from_dict(envelope["payload"])
        point.result.meta = dict(envelope.get("meta", {}))
        point.error = None
    except Exception as exc:  # noqa: BLE001
        point.error = f"{type(exc).__name__}: {exc}"


def _point_entry(conn, doc: dict, index: int) -> None:
    """Run one spec in a worker and ship the outcome over the pipe: a
    ``("event", started)`` heartbeat first, then exactly one
    ``("error", message)`` or ``("ok", envelope)``.  The envelope is
    plain data — the RunResult's serializable core under ``payload``
    (byte-stable, what checkpoints and caches persist) and the
    wall-clock execution facts under ``meta`` (events/sec, peak RSS,
    worker pid; never persisted with the payload).  Catches
    ``BaseException`` so even a ``SystemExit`` inside an experiment
    reports instead of silently dying."""
    try:
        spec = ExperimentSpec.from_dict(doc)
        try:
            from repro.profile.telemetry import make_event

            conn.send(("event", make_event("started", index, spec=spec.label())))
        except Exception:  # noqa: BLE001 — heartbeats must not kill work
            pass
        result = run_experiment(spec)
        meta = dict(result.meta)
        meta["pid"] = os.getpid()
        conn.send(("ok", {"payload": result.to_dict(), "meta": meta}))
    except BaseException as exc:  # noqa: BLE001 — reported over the pipe
        conn.send(("error", f"{type(exc).__name__}: {exc}"))


def _worker_main(conn) -> None:
    """A persistent worker: run each ``(doc, index)`` the parent sends
    until the parent goes away."""
    try:
        while True:
            _point_entry(conn, *conn.recv())
    except EOFError:
        pass


class _Worker:
    """One worker process, the parent's end of its duplex pipe, and the
    point it is computing (``None`` while idle)."""

    def __init__(self) -> None:
        import multiprocessing as mp

        self.conn, child = mp.Pipe()
        self.proc = mp.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()  # the worker holds the only other end
        self.point: Optional[SweepPoint] = None
        self.attempt = 0
        self.deadline = math.inf

    def stop(self, grace_s: float = 0.0) -> None:
        """Reap the process, killing it unless it exits by itself
        within ``grace_s``."""
        self.proc.join(grace_s)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
            if self.proc.is_alive():  # pragma: no cover — SIGTERM ignored
                self.proc.kill()
                self.proc.join()
        self.conn.close()


def _run_workers(
    pending: "list[SweepPoint]",
    *,
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
    retry_backoff_s: float,
    settle: Callable[["SweepPoint"], None],
    on_retry: Callable[["SweepPoint", int], None],
    on_event: Optional[Callable[[dict], None]] = None,
) -> None:
    """Run ``pending`` on up to ``jobs`` persistent, killable workers.

    A worker computes point after point, so process start-up and the
    experiments' lazy imports are paid once per worker, not per point.
    The parent blocks on the workers' pipes and process sentinels for
    no longer than the nearest timeout or backoff expiry.  A point that
    exceeds ``timeout_s`` has its worker terminated and is marked
    failed; a worker that dies fails only its own point.  A failed
    point re-queues up to ``retries`` times with exponential backoff.
    A worker that reported an error, timed out or died is never
    reused, so a retry always runs in another process; one that dies
    while idle is replaced without charging any point an attempt.
    """
    from multiprocessing.connection import wait

    # (point, attempt, earliest wall-clock start)
    waiting: list[tuple[SweepPoint, int, float]] = [
        (p, 0, 0.0) for p in pending
    ]
    idle: list[_Worker] = []
    busy: list[_Worker] = []

    def finish(worker: _Worker, kind: str, payload) -> None:
        busy.remove(worker)
        point, attempt = worker.point, worker.attempt
        point.attempts = attempt + 1
        if kind == "ok":
            idle.append(worker)
            _settle_payload(point, payload)
        else:
            worker.stop()
            point.error = payload
        if point.error is not None and attempt < retries:
            backoff = retry_backoff_s * (2.0 ** attempt)
            _LOG.warning(
                "sweep point #%d failed (%s); retry %d/%d in %.2fs",
                point.index, point.error, attempt + 1, retries, backoff,
            )
            on_retry(point, attempt + 1)
            waiting.append((point, attempt + 1, time.monotonic() + backoff))
        else:
            settle(point)

    try:
        while waiting or busy:
            now = time.monotonic()
            while len(busy) < jobs:
                idx = next(
                    (i for i, (_, _, t0) in enumerate(waiting) if t0 <= now),
                    None,
                )
                if idx is None:
                    break
                point, attempt, _ = waiting.pop(idx)
                task = (point.spec.to_dict(), point.index)
                worker = idle.pop() if idle else _Worker()
                try:
                    worker.conn.send(task)
                except OSError:  # died while idle: a fresh one takes over
                    worker.stop(1.0)
                    worker = _Worker()
                    worker.conn.send(task)
                worker.point, worker.attempt = point, attempt
                worker.deadline = now + (timeout_s or math.inf)
                busy.append(worker)

            horizon = [w.deadline for w in busy]
            if len(busy) < jobs:
                horizon += [t0 for _, _, t0 in waiting]
            nearest = min(horizon, default=math.inf) - time.monotonic()
            ready = wait(
                [w.conn for w in busy] + [w.proc.sentinel for w in busy + idle],
                # Clamped: ``wait`` overflows on huge timeouts, and the
                # loop simply waits again.
                None if nearest == math.inf else min(max(nearest, 0.0), 60.0),
            )
            for worker in [w for w in idle if w.proc.sentinel in ready]:
                idle.remove(worker)
                worker.stop(1.0)
            for worker in list(busy):
                outcome = None
                if worker.conn in ready or worker.proc.sentinel in ready:
                    # Liveness is read before draining: a worker already
                    # dead here left every message it sent in the pipe.
                    alive = worker.proc.is_alive()
                    try:
                        while outcome is None and worker.conn.poll():
                            kind, payload = worker.conn.recv()
                            if kind != "event":
                                outcome = (kind, payload)
                            elif on_event is not None:
                                on_event(payload)
                    except EOFError:
                        alive = False
                    if outcome is None and not alive:
                        worker.stop(1.0)
                        outcome = ("error", f"worker exited with code "
                                   f"{worker.proc.exitcode} before reporting")
                if outcome is None and time.monotonic() >= worker.deadline:
                    worker.stop()
                    outcome = ("error", f"killed: exceeded per-point "
                               f"timeout of {timeout_s:g}s")
                    if on_event is not None:
                        from repro.profile.telemetry import make_event

                        on_event(make_event(
                            "timed_out", worker.point.index,
                            pid=worker.proc.pid, timeout_s=timeout_s,
                            attempt=worker.attempt + 1,
                        ))
                if outcome is not None:
                    finish(worker, *outcome)
    finally:
        for worker in idle + busy:
            worker.stop()


def _point_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, "points", f"{index:04d}.json")


def _write_point(out_dir: str, point: SweepPoint) -> None:
    payload = point.result.to_dict()
    atomic_write_json(
        _point_path(out_dir, point.index),
        {
            "schema": SWEEP_SCHEMA,
            "index": point.index,
            "spec_hash": point.spec.spec_hash,
            "payload": payload,
            "payload_sha256": hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest(),
        },
    )


def _load_point(
    out_dir: str, index: int, spec: ExperimentSpec
) -> tuple[Optional[RunResult], Optional[str]]:
    """A previously checkpointed point as ``(result, problem)``.

    ``(result, None)`` is a verified checkpoint; ``(None, None)`` means
    the point was simply never checkpointed; ``(None, reason)`` means a
    file *was* there but could not be trusted — truncated, corrupt, or
    for a different spec.  The caller warns and recomputes; a damaged
    checkpoint directory must never crash a resume (same trust model as
    the cache: verify, never assume)."""
    path = _point_path(out_dir, index)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None, None
    except OSError as exc:
        return None, f"unreadable checkpoint: {exc}"
    except ValueError:
        return None, "corrupt checkpoint (not valid JSON — truncated write?)"
    try:
        if not isinstance(doc, dict):
            return None, "corrupt checkpoint (not a JSON object)"
        if doc.get("schema") != SWEEP_SCHEMA or doc.get("index") != index:
            return None, "corrupt checkpoint (schema/index mismatch)"
        if doc.get("spec_hash") != spec.spec_hash:
            return None, "checkpoint is for a different spec"
        payload = doc["payload"]
        digest = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        if digest != doc.get("payload_sha256"):
            return None, "corrupt checkpoint (payload hash mismatch)"
        result = RunResult.from_dict(payload)
        if result.spec != spec:
            return None, "checkpoint payload decodes to a different spec"
        return result, None
    except (KeyError, TypeError, ValueError) as exc:
        return None, f"corrupt checkpoint ({type(exc).__name__}: {exc})"


def _write_manifest(out_dir: str, specs: Sequence[ExperimentSpec]) -> None:
    atomic_write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "schema": SWEEP_SCHEMA,
            "sweep_key": sweep_key(specs),
            "specs": [s.to_dict() for s in specs],
        },
    )


def _check_resumable(out_dir: str, specs: Sequence[ExperimentSpec]) -> None:
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return  # nothing to resume from; fresh checkpoint dir
    except (OSError, ValueError):
        raise ValueError(f"unreadable sweep manifest {path}") from None
    if doc.get("sweep_key") != sweep_key(specs):
        raise ValueError(
            f"{out_dir} checkpoints a different sweep "
            f"(manifest key {doc.get('sweep_key')!r}, "
            f"this sweep {sweep_key(specs)!r}); pass a fresh --resume dir"
        )


def run_sweep(
    specs: Sequence[ExperimentSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    out_dir: Optional[str] = None,
    resume: bool = False,
    registry: Optional[MetricsRegistry] = None,
    run_registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[SweepPoint], None]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.25,
    telemetry: "Optional[SweepTelemetry]" = None,
    ledger=None,
) -> SweepReport:
    """Execute every spec and collect results in grid order.

    ``jobs`` > 1 fans uncached points out over up to ``jobs``
    persistent worker processes; 1 runs them serially in-process (same
    bytes either way).  ``cache`` makes
    unchanged points hits; ``out_dir`` checkpoints each completed
    point and, with ``resume=True``, skips points a previous partial
    sweep already finished.  ``registry`` (default: the ambient one)
    receives ``sweep.*`` progress counters; ``run_registry`` lets a
    serial caller accumulate per-run metrics into a shared registry
    (the CLI's ``--metrics``).  A point computed into ``run_registry``
    has an empty ``metrics`` snapshot, so it is neither cached nor
    checkpointed: a later plain sweep must not be served that core.
    ``progress`` is invoked once per point as it settles, in settlement
    order.

    ``timeout_s`` and ``retries`` need killable workers, so either
    one sends even a ``jobs=1`` sweep to the worker scheduler: a point
    that runs longer than ``timeout_s`` wall-clock seconds has its
    worker terminated and is marked failed, and any failed point is
    retried up to ``retries`` times, in another process, with
    exponential backoff starting at ``retry_backoff_s``.  Both are off
    by default.  Parallel or not, a worker that dies fails only its
    own point.

    ``telemetry`` attaches a live
    :class:`~repro.profile.telemetry.SweepTelemetry` aggregator:
    workers stream structured heartbeat events (started / finished /
    retried / timed-out, cache hits, peak RSS, events/sec) back to the
    parent as they happen, feeding ``sweep.*`` gauges, the
    periodically rewritten ``status.json``, and the CLI progress line.
    Telemetry is pure parent-side wall-clock bookkeeping: persisted
    sweep bytes are identical with it on or off.

    ``ledger`` attaches an observatory
    :class:`~repro.observatory.ledger.Ledger`: the finished sweep's
    measurements and execution summary are appended as one record.
    The append is best-effort (a broken ledger warns, never fails the
    sweep) and strictly additive — results, checkpoints, and
    ``results.json`` bytes are identical with it on or off.
    """
    specs = list(specs)
    if len(set(specs)) != len(specs):
        raise ValueError("sweep contains duplicate specs")
    for spec in specs:
        get_experiment(spec)  # fail fast before any work
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
    registry = registry if registry is not None else active_registry()

    def count(name: str, amount: float = 1.0) -> None:
        if registry is not None:
            registry.counter(
                f"sweep.{name}", help="sweep progress/failure reporting"
            ).inc(amount)

    def emit(kind: str, index: int, **fields) -> None:
        if telemetry is not None:
            from repro.profile.telemetry import make_event

            telemetry.record(make_event(kind, index, **fields))

    t_sweep0 = time.monotonic()
    count("points", len(specs))
    points = [SweepPoint(index=i, spec=s) for i, s in enumerate(specs)]

    if out_dir:
        if resume:
            _check_resumable(out_dir, specs)
        _write_manifest(out_dir, specs)

    resumed = 0
    pending: list[SweepPoint] = []
    for point in points:
        if out_dir and resume:
            prior, problem = _load_point(out_dir, point.index, point.spec)
            if problem is not None:
                _LOG.warning(
                    "sweep point #%d: %s at %s; recomputing",
                    point.index, problem,
                    _point_path(out_dir, point.index),
                )
                count("checkpoint_corrupt")
            if prior is not None:
                point.result = prior
                point.cached = True
                resumed += 1
                count("resumed")
                emit("resumed", point.index, spec=point.spec.label())
                if progress:
                    progress(point)
                continue
        if cache is not None:
            hit = cache.get(point.spec)
            if hit is not None:
                point.result = hit
                point.cached = True
                count("cache_hits")
                emit("cache_hit", point.index, spec=point.spec.label())
                if out_dir:
                    _write_point(out_dir, point)
                if progress:
                    progress(point)
                continue
            count("cache_misses")
            emit("cache_miss", point.index, spec=point.spec.label())
        pending.append(point)

    serial = (
        timeout_s is None and retries == 0
        and (jobs == 1 or len(pending) <= 1)
    )
    # Only the serial path computes into ``run_registry``; those cores
    # carry an empty metrics snapshot and must not be persisted.
    persist = not (serial and run_registry is not None)

    def settle(point: SweepPoint) -> None:
        if point.ok:
            count("computed")
            meta = getattr(point.result, "meta", None) or {}
            emit(
                "finished",
                point.index,
                pid=meta.get("pid", os.getpid()),
                spec=point.spec.label(),
                wall_s=meta.get("wall_time_s", 0.0),
                events_executed=meta.get("events_executed", 0),
                events_per_second=meta.get("events_per_second", 0.0),
                peak_rss_bytes=meta.get("peak_rss_bytes", 0),
            )
            if persist and cache is not None:
                cache.put(point.result)
            if persist and out_dir:
                _write_point(out_dir, point)
        else:
            count("failures")
            emit(
                "failed", point.index,
                spec=point.spec.label(), error=point.error,
            )
        if progress:
            progress(point)

    if serial:
        for point in pending:
            emit("started", point.index, spec=point.spec.label())
            point.attempts = 1
            try:
                point.result = run_experiment(
                    point.spec, Captures(registry=run_registry)
                )
            except Exception as exc:  # noqa: BLE001 — reported, not hidden
                point.error = f"{type(exc).__name__}: {exc}"
            settle(point)
    else:
        def on_retry(point: SweepPoint, attempt: int) -> None:
            count("retries")
            emit(
                "retried", point.index,
                spec=point.spec.label(), attempt=attempt,
            )

        _run_workers(
            pending,
            jobs=jobs,
            timeout_s=timeout_s,
            retries=retries,
            retry_backoff_s=retry_backoff_s,
            settle=settle,
            on_retry=on_retry,
            on_event=telemetry.record if telemetry is not None else None,
        )

    report = SweepReport(
        points=points,
        jobs=jobs,
        cache=cache,
        out_dir=out_dir,
        resumed=resumed,
        wall_s=time.monotonic() - t_sweep0,
    )
    if cache is not None:
        count("cache_corrupt", cache.stats.corrupt)
    if out_dir:
        report.result_set().write(os.path.join(out_dir, "results.json"))
        atomic_write_json(
            os.path.join(out_dir, "summary.json"), report.summary_doc()
        )
    if telemetry is not None:
        telemetry.finalize()
    if ledger is not None:
        from repro.observatory.ledger import log_sweep

        try:
            report.ledger_record = log_sweep(ledger, report)
        except OSError as exc:
            _LOG.warning(
                "sweep ledger append to %s failed (%s); results are "
                "unaffected", getattr(ledger, "path", "?"), exc,
            )
    return report
