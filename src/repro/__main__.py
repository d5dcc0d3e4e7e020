"""Command-line entry point: ``python -m repro <command>``.

Quick access to the headline measurements without writing a script:

* ``latency``   — Fig. 5: one-way latency vs hops (a sweep pipeline:
  one grid point per hop count, parallelizable with ``--jobs``)
* ``breakdown`` — Fig. 6: the 162 ns component breakdown
* ``allreduce`` — Table 2 rows (a sweep pipeline over machine shapes)
* ``survey``    — Table 1 with the simulated Anton row
* ``transfer``  — Fig. 7: the 2 KB message-granularity experiment
* ``sweep``     — run any registered experiment over a parameter grid
  (``--grid hops=1,2,4,8 --grid shape=4x4x4,8x8x8``) across a process
  pool, backed by a content-addressed result cache: re-running an
  unchanged point is a cache hit, corrupted entries are detected and
  recomputed, and a partially completed sweep resumes with ``--resume``
* ``trace``     — record a packet flight trace of an experiment and
  export it as Chrome/Perfetto ``trace_event`` JSON (open the file in
  https://ui.perfetto.dev) and optionally JSONL
* ``profile``   — profile the *simulator itself* while it runs an
  experiment: wall time and event counts per event type, component,
  and simulation phase, exported as a speedscope / collapsed-stack
  flamegraph or JSON (the vectorization work's measuring stick)
* ``attribute`` — trace-derived latency attribution: run an experiment
  with the flight recorder on and attribute every nanosecond of the
  critical packet to Fig. 6's component taxonomy, plus per-phase
  critical paths and link contention hotspots
* ``monitor``   — run an experiment with continuous health monitoring
  attached (time-series sampler + invariant watchdogs), print the
  health verdict, and exit nonzero on any invariant violation
* ``report``    — same monitored run, rendered as a self-contained
  HTML health report (utilization heatmap, time-series charts,
  sketch-vs-exact percentiles) plus optional Prometheus text
* ``obs``       — the performance observatory over the run ledger that
  ``profile``/``sweep``/``congest`` append to: inspect the ledger or
  extend it from a ``repro-bench/1`` results file (``log``), detect
  per-metric trend regressions against each series' own history
  (``trends``), attribute the wall-ns delta between two profile
  captures (``diff``), and render the HTML dashboard / Prometheus
  exposition (``report``)

Ledger-producing commands share ``--ledger PATH`` / ``--no-ledger``;
the ambient default is ``.repro-ledger.jsonl`` (``$REPRO_LEDGER``
overrides the path, and setting it to ``0``/``off``/empty disables
appending entirely).  Ledger appends are strictly additive
observability: run results and sweep artifacts are byte-identical
with the ledger on or off.

There is no benchmark-regression subcommand: the model's headline
numbers are pinned exactly in the tier-1 test suite
(``tests/test_model_pins.py``), which is the regression gate.

Every measurement subcommand shares the same canonical flags —
``--shape``, ``--rounds``, ``--payload``, ``--seed`` — built from one
argparse parent parser, plus ``--metrics``, which runs it with the
telemetry layer attached and prints the metrics registry (counters /
gauges / latency percentiles) after the result.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack


def _parse_shape(text: str) -> tuple[int, int, int]:
    try:
        x, y, z = (int(p) for p in text.lower().split("x"))
        return (x, y, z)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shape must look like 8x8x8, got {text!r}"
        ) from None


def _canonical_parent(
    shape: tuple[int, int, int] = (4, 4, 4),
    rounds: int = 2,
    with_shape: bool = True,
) -> argparse.ArgumentParser:
    """The shared parent parser: every measurement subcommand takes the
    same ``--shape --rounds --payload --seed`` spellings (plus
    ``--metrics``), so flags learned on one command work on all."""
    p = argparse.ArgumentParser(add_help=False)
    if with_shape:
        p.add_argument(
            "--shape", type=_parse_shape, default=shape,
            help=f"torus shape, e.g. 8x8x8 (default "
                 f"{shape[0]}x{shape[1]}x{shape[2]})",
        )
    p.add_argument("--rounds", type=int, default=rounds,
                   help=f"repetitions inside the experiment (default {rounds})")
    p.add_argument("--payload", type=int, default=0,
                   help="payload bytes where applicable (default 0)")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed mixed into every run (default 0)")
    p.add_argument(
        "--metrics", action="store_true",
        help="attach the telemetry layer and print metrics after the run",
    )
    return p


def _sweep_exec_parent(default_cache: bool) -> argparse.ArgumentParser:
    """Execution flags shared by the sweep-driven commands."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1 = serial; "
                        "results are bit-identical either way)")
    if default_cache:
        p.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed result cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache directory (default .repro-cache, "
                        "or $REPRO_CACHE_DIR)" if default_cache else
                        "enable the result cache rooted at DIR")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write results.json + per-point checkpoints here")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="resume a partially completed sweep from DIR "
                        "(implies --out DIR)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="kill any grid point running longer than SECONDS "
                        "wall-clock and mark it failed (default: no limit)")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry a failed grid point up to N times with "
                        "exponential backoff (default 0 = no retries)")
    return p


def _ledger_parent() -> argparse.ArgumentParser:
    """Ledger flags shared by every measuring subcommand."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="append this run to the observatory ledger at "
                        "PATH (default .repro-ledger.jsonl, or "
                        "$REPRO_LEDGER)")
    p.add_argument("--no-ledger", action="store_true",
                   help="do not append this run to the observatory ledger")
    return p


def _open_ledger(args):
    """The ledger this invocation should append to, or ``None``."""
    if getattr(args, "no_ledger", False):
        return None
    from repro.observatory.ledger import Ledger, default_ledger_path

    path = getattr(args, "ledger", None) or default_ledger_path()
    return Ledger(path) if path else None


def _ledger_append(builder, *args, **kwargs):
    """Run one ledger record builder, best-effort: a broken ledger
    warns on stderr but never fails the measurement that produced the
    data."""
    try:
        return builder(*args, **kwargs)
    except OSError as exc:
        print(f"warning: ledger append failed ({exc}); "
              "results are unaffected", file=sys.stderr)
        return None


def _make_cache(args, default_on: bool):
    from repro.runner import ResultCache
    from repro.runner.cache import default_cache_dir

    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir:
        return ResultCache(args.cache_dir)
    return ResultCache(default_cache_dir()) if default_on else None


def _effective_jobs(args) -> int:
    """``--metrics`` accumulates every run into one shared registry,
    which only a serial, in-process sweep can do."""
    if getattr(args, "metrics", False) and args.jobs > 1:
        print("note: --metrics needs in-process runs; forcing --jobs 1",
              file=sys.stderr)
        return 1
    return args.jobs


# ---------------------------------------------------------------------------
# Sweep-driven commands
# ---------------------------------------------------------------------------

def _run_sweep_cmd(args, registry) -> int:
    from repro.profile.telemetry import SweepTelemetry
    from repro.runner import expand_grid, parse_grid, run_sweep
    from repro.trace.metrics import MetricsRegistry

    try:
        axes = parse_grid(args.grid or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shape = args.shape
    if shape is None:
        # Latency experiments default to the paper's 512-node machine
        # so the full Fig. 5 hop range is reachable.
        shape = (8, 8, 8) if args.experiment in ("latency", "fig5") else (4, 4, 4)
    base = {
        "shape": shape,
        "rounds": args.rounds,
        "payload": args.payload,
        "seed": args.seed,
    }
    try:
        specs = expand_grid(args.experiment, axes, base)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = _make_cache(args, default_on=True)
    out_dir = args.resume or args.out
    jobs = _effective_jobs(args)
    total = len(specs)
    done = {"n": 0}

    telemetry = SweepTelemetry(
        total=total,
        registry=registry if registry is not None else MetricsRegistry(),
        out_dir=out_dir,
    )
    live = not getattr(args, "quiet", False)

    def on_event(event):
        if not live:
            return
        kind = event["kind"]
        if kind == "started":
            print(f"  [pid {event.get('pid')}] started #{event['index']} "
                  f"{event.get('spec', '')}")
        elif kind == "timed_out":
            print(f"  [pid {event.get('pid')}] TIMED OUT #{event['index']} "
                  f"after {event.get('timeout_s'):g}s")
        elif kind == "retried":
            print(f"  retrying #{event['index']} "
                  f"(attempt {event.get('attempt')})")

    telemetry.on_event = on_event

    def progress(point):
        done["n"] += 1
        line = f"[{done['n']}/{total}] {point.status:>8}  {point.spec.label()}"
        if point.ok:
            line += f"  ({point.result.elapsed_ns:.1f} ns)"
        else:
            line += f"  {point.error}"
        print(line)
        if live:
            print(f"  {telemetry.progress_line()}")

    ledger = _open_ledger(args)
    report = run_sweep(
        specs,
        jobs=jobs,
        cache=cache,
        out_dir=out_dir,
        resume=args.resume is not None,
        registry=registry,
        run_registry=registry,
        progress=progress,
        timeout_s=args.timeout,
        retries=args.retries,
        telemetry=telemetry,
        ledger=ledger,
    )
    print()
    print(report.verdict().render_text())
    parts = [f"{report.computed} computed", f"{report.cache_hits} cached"]
    if report.resumed:
        parts.append(f"{report.resumed} resumed from checkpoint")
    if report.failures:
        parts.append(f"{len(report.failures)} FAILED")
    print(f"\n{total} grid points: " + ", ".join(parts)
          + f" in {report.wall_s:.2f} s wall-clock (jobs={jobs})")
    for line in telemetry.summary_lines():
        print(line)
    if cache is not None:
        s = cache.stats
        print(f"cache {cache.root}: {s.hits} hits, {s.writes} writes, "
              f"{s.corrupt} corrupt entries recomputed")
    if report.ledger_record is not None:
        print(f"ledger: appended record {report.ledger_record.id} "
              f"to {ledger.path}")
    if out_dir:
        print(f"wrote {out_dir}/results.json (repro-bench/1), per-point "
              f"checkpoints under {out_dir}/points/, and live status in "
              f"{out_dir}/status.json")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(telemetry.prometheus())
        print(f"wrote {args.prom} (Prometheus text exposition)")
    if args.html:
        import html as _html

        from repro.monitor.report import CSS

        with open(args.html, "w") as fh:
            fh.write(
                "<!DOCTYPE html>\n"
                '<html lang="en"><head><meta charset="utf-8">\n'
                f"<title>Sweep report: "
                f"{_html.escape(args.experiment)}</title>\n"
                f"<style>{CSS}</style></head><body>\n"
                f"<h1>Sweep report: {_html.escape(args.experiment)}</h1>\n"
                + telemetry.html_section()
                + "</body></html>\n"
            )
        print(f"wrote {args.html} (HTML sweep report)")
    return 0 if report.ok else 1


def _resolve_wall_profile(ledger, target: str) -> tuple[dict, str]:
    """Resolve a ``--diff`` target — an on-disk profile file or a
    ledger record id (prefix) — to ``(wall_profile, label)``."""
    import os

    if os.path.exists(target):
        from repro.profile.export import load_wall_profile

        return load_wall_profile(target), target
    if ledger is not None:
        record = ledger.get(target)
        if record is not None:
            wall = record.attachments.get("wall_profile")
            if not isinstance(wall, dict):
                raise ValueError(
                    f"ledger record {record.id} ({record.kind}) carries "
                    "no wall-profile attachment; diff against a "
                    "'profile' record"
                )
            return wall, f"{record.id} ({record.label})"
    raise ValueError(
        f"{target!r} is neither a profile file nor a "
        "ledger record id"
    )


def _run_profile(args) -> int:
    from repro.profile.capture import run_profiled
    from repro.profile.export import render_table, write_profile

    result = run_profiled(
        args.experiment, shape=args.shape, rounds=args.rounds,
        payload=args.payload, seed=args.seed,
    )
    profiler = result.profile
    assert profiler is not None
    print(f"profiled {args.experiment}: {result.description}")
    print()
    print(render_table(profiler, top=args.top))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_profile(
                profiler, fh, fmt=args.format,
                name=f"{args.experiment} {result.spec.label()}",
            )
        hint = {
            "speedscope": "open in https://www.speedscope.app",
            "collapsed": "feed to flamegraph.pl or speedscope",
            "json": "deterministic counts + wall-time profile",
        }[args.format]
        print(f"wrote {args.out} ({args.format}; {hint})")
    ledger = _open_ledger(args)
    if args.diff:
        from repro.observatory.diff import diff_profiles, render_diff

        try:
            base_profile, base_label = _resolve_wall_profile(
                ledger, args.diff
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diff = diff_profiles(
            base_profile, profiler.wall_profile(),
            base_label=base_label,
            cur_label=f"{args.experiment} (this run)",
        )
        print()
        print(render_diff(diff, top=args.top))
    if ledger is not None:
        from repro.observatory.ledger import log_profile

        record = _ledger_append(log_profile, ledger, result)
        if record is not None:
            print(f"ledger: appended record {record.id} to {ledger.path} "
                  f"(diff a later capture against it with: "
                  f"python -m repro profile {args.experiment} "
                  f"--diff {record.id})")
    return 0


def _run_latency(args, registry) -> int:
    """Fig. 5 rebuilt on the sweep runner: one grid point per hop."""
    from repro.analysis import render_series
    from repro.runner import ExperimentSpec, run_sweep
    from repro.topology.torus import Torus3D

    max_hops = args.max_hops
    if max_hops is None:
        max_hops = Torus3D(*args.shape).max_hops()
    specs = [
        ExperimentSpec(
            "fig5", shape=args.shape, rounds=args.rounds, seed=args.seed,
            hops=h,
        )
        for h in range(0, max_hops + 1)
    ]
    report = run_sweep(
        specs,
        jobs=_effective_jobs(args),
        cache=_make_cache(args, default_on=False),
        out_dir=args.resume or args.out,
        resume=args.resume is not None,
        registry=registry,
        run_registry=registry,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    if not report.ok:
        for p in report.failures:
            print(f"FAILED {p.spec.label()}: {p.error}", file=sys.stderr)
        return 1
    hops = [p.spec.hops for p in report.points]
    curves = {
        "0B": [p.result.value(f"uni_0B_{p.spec.hops}hop_ns")
               for p in report.points],
        "256B": [p.result.value(f"uni_256B_{p.spec.hops}hop_ns")
                 for p in report.points],
        "bi 0B": [p.result.value(f"bi_0B_{p.spec.hops}hop_ns")
                  for p in report.points],
        "bi 256B": [p.result.value(f"bi_256B_{p.spec.hops}hop_ns")
                    for p in report.points],
    }
    print(render_series(
        f"One-way latency (ns) vs hops on {args.shape}", "hops", hops, curves,
    ))
    return 0


def _run_allreduce(args, registry) -> int:
    """Table 2 rebuilt on the sweep runner: one grid point per
    (shape, payload) pair."""
    from repro.analysis import render_table
    from repro.runner import ExperimentSpec, run_sweep

    shapes = args.shape_list or [(4, 4, 4), (8, 8, 8)]
    specs = [
        ExperimentSpec(
            "allreduce", shape=s, rounds=args.rounds, seed=args.seed,
            payload=p,
        )
        for s in shapes
        for p in (0, 32)
    ]
    report = run_sweep(
        specs,
        jobs=_effective_jobs(args),
        cache=_make_cache(args, default_on=False),
        out_dir=args.resume or args.out,
        resume=args.resume is not None,
        registry=registry,
        run_registry=registry,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    if not report.ok:
        for p in report.failures:
            print(f"FAILED {p.spec.label()}: {p.error}", file=sys.stderr)
        return 1
    by_key = {(p.spec.shape, p.spec.payload): p.result for p in report.points}
    rows = []
    for s in shapes:
        nodes = s[0] * s[1] * s[2]
        rows.append([
            f"{nodes} ({s[0]}x{s[1]}x{s[2]})",
            by_key[(s, 0)].elapsed_ns / 1e3,
            by_key[(s, 32)].elapsed_ns / 1e3,
        ])
    print(render_table("Global all-reduce (µs)", ["nodes", "0B", "32B"], rows))
    return 0


# ---------------------------------------------------------------------------
# Trace / attribution / monitor commands
# ---------------------------------------------------------------------------

def _run_trace(args: argparse.Namespace) -> int:
    from repro.trace.capture import run_traced
    from repro.trace.export import flight_summary, write_chrome_trace, write_jsonl

    cap = run_traced(
        args.experiment, shape=args.shape, rounds=args.rounds,
        payload=args.payload, seed=args.seed,
    )
    write_chrome_trace(args.out, cap.flight, metrics=cap.registry)
    print(f"captured {args.experiment}: {cap.description}")
    print(f"wrote {args.out} (Chrome trace_event JSON; open in ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(args.jsonl, cap.flight)
        print(f"wrote {args.jsonl} (JSONL, one record per line)")
    print()
    print(flight_summary(cap.flight, cap.registry))
    return 0


def _run_attribute(args: argparse.Namespace) -> int:
    from repro.analysis.critical_path import (
        critical_flight,
        link_hotspots,
        phase_reports,
        render_hotspots,
        render_phase_reports,
    )
    from repro.analysis.attribution import (
        attribute_path,
        measure_attribution,
        render_attribution,
    )
    from repro.topology.torus import Torus3D

    stack = ExitStack()
    if args.ber > 0.0:
        from repro.faults.plan import BitError, FaultPlan
        from repro.faults.session import use_fault_plan

        stack.enter_context(use_fault_plan(FaultPlan(
            seed=args.seed,
            bit_errors=(BitError(links="*", ber=args.ber),),
            max_retries=64,
            backoff_max_ns=640.0,
        )))
        print(f"fault injection: uniform ber={args.ber:g} on every link")
        print()

    if args.experiment == "latency":
        with stack:
            m = measure_attribution(
                hops=args.hops, shape=args.shape, payload_bytes=args.payload
            )
        print(
            f"single counted remote write, {m.hops} hop(s) to "
            f"{m.destination} on {m.shape}, {m.payload_bytes} B payload"
        )
        print()
        print(render_attribution(m.attribution, local_id=0))
        print()
        print(f"simulated end-to-end (send start -> poll done): {m.elapsed_ns:.1f} ns")
        drift = abs(m.attribution.total_ns - m.elapsed_ns)
        print(f"attributed total - simulated end-to-end: {drift:.3f} ns")
        return 0 if drift < 1e-6 else 1

    from repro.trace.capture import run_traced
    from repro.analysis.critical_path import branch_hops

    with stack:
        cap = run_traced(
            args.experiment, shape=args.shape, rounds=args.rounds,
            payload=args.payload, seed=args.seed,
        )
    torus = Torus3D(*cap.shape)
    print(f"captured {args.experiment}: {cap.description}")
    print()
    reports = phase_reports(cap.flight, torus)
    if reports:
        print(render_phase_reports(reports))
        print()
        for r in reports:
            if r.critical_attribution is not None:
                print(
                    render_attribution(
                        r.critical_attribution,
                        title=f"Critical path of {r.name}",
                        local_id=r.critical_local_id,
                    )
                )
                print()
    else:
        crit = critical_flight(cap.flight, 0.0, float("inf"))
        if crit is not None:
            flight, delivery = crit
            attr = attribute_path(
                flight,
                branch_hops(flight, torus, delivery),
                delivery,
                cap.flight.poll_for(flight, delivery),
            )
            print(
                render_attribution(
                    attr,
                    title="Critical path of the run",
                    local_id=cap.flight.local_ids()[flight.packet_id],
                )
            )
            print()
    print(render_hotspots(link_hotspots(cap.flight, top=args.top)))
    return 0


def _run_monitor(args: argparse.Namespace) -> int:
    from repro.monitor.capture import run_monitored

    cap = run_monitored(
        args.experiment,
        shape=args.shape,
        rounds=args.rounds,
        interval_ns=args.interval,
        series_capacity=args.capacity,
        stall_ns=args.stall,
        payload=args.payload,
        seed=args.seed,
    )
    print(f"monitored {args.experiment}: {cap.description}")
    if len(cap.monitors) > 1:
        print(
            f"({len(cap.monitors)} machines monitored; verdict below is "
            "the busiest — any machine's violation fails the run)"
        )
    print()
    print(cap.verdict.render_text())
    if args.jsonl:
        cap.write_jsonl(args.jsonl)
        print(f"\nwrote {args.jsonl} (diagnostics, one JSON record per line)")
    if args.command == "report" or args.html:
        out = args.html or "report.html"
        with open(out, "w") as fh:
            fh.write(cap.html(
                title=f"Continuous health report: {args.experiment}"
            ))
        print(f"wrote {out} (self-contained HTML health report)")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(cap.prometheus())
        print(f"wrote {args.prom} (Prometheus text exposition)")
    if not cap.healthy:
        print("\nHEALTH CHECK FAILED: at least one invariant was violated")
        return 1
    return 0


def _run_congest(args: argparse.Namespace) -> int:
    from repro.bench.results import canonical_json
    from repro.congestion.capture import run_congested
    from repro.congestion.decompose import (
        decompose_run,
        render_decomposition,
    )
    from repro.congestion.report import (
        congestion_doc,
        render_congestion_html,
        render_congestion_prometheus,
        render_congestion_text,
    )
    from repro.congestion.tree import build_congestion_tree
    from repro.topology.torus import Torus3D

    result = run_congested(
        args.experiment,
        shape=args.shape,
        rounds=args.rounds,
        payload=args.payload,
        seed=args.seed,
        hops=args.hops,
        senders=args.senders,
    )
    torus = Torus3D(*args.shape)
    tree = build_congestion_tree(
        result.flight, torus, min_episode_ns=args.min_episode
    )
    print(f"congest {args.experiment}: {result.description}")
    print()
    print(render_congestion_text(tree, top=args.top))
    decomps = decompose_run(result.flight, torus)
    if decomps:
        print()
        print(render_decomposition(
            decomps,
            title=f"Delay decomposition — {len(decomps)} packets, "
                  "exactly tiled per packet",
        ))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_congestion_html(
                tree,
                series=result.congestion.depth_series
                if result.congestion is not None else None,
                experiment=args.experiment,
                shape=args.shape,
            ))
        print(f"wrote {args.html} (self-contained congestion X-ray)")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(render_congestion_prometheus(tree, result.congestion))
        print(f"wrote {args.prom} (Prometheus text exposition)")
    ledger = _open_ledger(args)
    if ledger is not None:
        from repro.observatory.ledger import log_congest

        record = _ledger_append(log_congest, ledger, result, tree)
        if record is not None:
            print(f"ledger: appended record {record.id} to {ledger.path}")
    if args.json:
        # Machine-readable document, one line, last on stdout — the
        # code path the CI congestion smoke parses.
        print(canonical_json(
            congestion_doc(tree, experiment=args.experiment,
                           shape=args.shape, top=args.top)
        ))
    return 0


# ---------------------------------------------------------------------------
# Observatory commands
# ---------------------------------------------------------------------------

def _require_ledger(args):
    ledger = _open_ledger(args)
    if ledger is None:
        print("error: the ledger is disabled ($REPRO_LEDGER); pass "
              "--ledger PATH explicitly", file=sys.stderr)
    return ledger


def _obs_series(args):
    """The metric series for trends/report: from ``--trajectory`` when
    given, else from the ledger.  Returns ``(series_map, source,
    records)`` or ``None`` after printing an error."""
    from repro.observatory.trends import (
        read_trajectory,
        series_from_records,
        series_from_trajectory,
    )

    if getattr(args, "trajectory", None):
        try:
            doc = read_trajectory(args.trajectory)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        return (
            series_from_trajectory(doc),
            args.trajectory,
            doc.get("points", []),
        )
    ledger = _require_ledger(args)
    if ledger is None:
        return None
    records = ledger.read()
    if ledger.skipped:
        print(f"note: skipped {len(ledger.skipped)} unreadable ledger "
              f"line(s)", file=sys.stderr)
    return series_from_records(records), ledger.path, records


def _obs_log(args) -> int:
    import time as _time

    from repro.observatory.ledger import log_bench

    ledger = _require_ledger(args)
    if ledger is None:
        return 2

    if args.results:
        from repro.bench.results import ResultSet
        from repro.observatory.trends import append_trajectory

        results = ResultSet.read(args.results)
        record = log_bench(ledger, results, label=args.label)
        print(f"appended record {record.id} (seq {record.seq}, "
              f"{len(record.metrics)} metrics) to {ledger.path}")
        if args.trajectory:
            doc = append_trajectory(
                args.trajectory, results,
                provenance=record.provenance,
            )
            print(f"appended trajectory point seq "
                  f"{doc['points'][-1]['seq']} to {args.trajectory}")
        return 0
    if args.trajectory:
        print("error: --trajectory needs --results FILE to append from",
              file=sys.stderr)
        return 2

    if args.verify:
        problems = ledger.verify()
        if problems:
            print(f"{ledger.path}: {len(problems)} problem(s)")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"{ledger.path}: chain intact")
        return 0

    records = ledger.read()
    if not records:
        print(f"{ledger.path}: empty ledger")
        return 0
    tail = records[-args.limit:] if args.limit > 0 else records
    print(f"{ledger.path}: {len(records)} record(s)"
          + (f", showing last {len(tail)}" if len(tail) < len(records)
             else ""))
    print(f"{'seq':>5}  {'id':<12}  {'kind':<8}  {'when':<16}  "
          f"{'metrics':>7}  label")
    for rec in tail:
        when = _time.strftime("%Y-%m-%d %H:%M", _time.localtime(rec.ts))
        print(f"{rec.seq:>5}  {rec.id:<12}  {rec.kind:<8}  {when:<16}  "
              f"{len(rec.metrics):>7}  {rec.label}")
    if ledger.skipped:
        print(f"({len(ledger.skipped)} unreadable line(s) skipped)")
    return 0


def _obs_trends(args) -> int:
    from repro.bench.results import canonical_json
    from repro.observatory.trends import trend_report

    resolved = _obs_series(args)
    if resolved is None:
        return 2
    series_map, source, _records = resolved
    report = trend_report(
        series_map,
        window=args.window,
        min_points=args.min_points,
        min_worsening=args.min_worsening,
        mad_mult=args.mad_mult,
    )
    if args.json:
        print(canonical_json(report.to_doc()))
    else:
        print(f"source: {source}")
        print()
        print(report.render_text())
    return 0 if report.ok else 1


def _obs_diff(args) -> int:
    from repro.bench.results import canonical_json
    from repro.observatory.diff import diff_profiles, render_diff

    ledger = _open_ledger(args)
    try:
        base_profile, base_label = _resolve_wall_profile(ledger, args.base)
        cur_profile, cur_label = _resolve_wall_profile(ledger, args.current)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_profiles(
        base_profile, cur_profile,
        base_label=base_label, cur_label=cur_label,
    )
    if args.json:
        print(canonical_json(diff.to_doc()))
    else:
        print(render_diff(diff, top=args.top))
    if (
        args.max_residual is not None
        and abs(diff.residual_ns) > args.max_residual
    ):
        print(
            f"RESIDUAL GATE FAILED: |{diff.residual_ns:.0f}| ns "
            f"unattributed exceeds --max-residual {args.max_residual:.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _obs_report(args) -> int:
    from repro.observatory.report import (
        render_observatory_html,
        render_observatory_prometheus,
    )
    from repro.observatory.trends import trend_report

    resolved = _obs_series(args)
    if resolved is None:
        return 2
    series_map, source, records = resolved
    report = trend_report(series_map, window=args.window)

    diff = None
    if args.diff:
        from repro.observatory.diff import diff_profiles

        ledger = _open_ledger(args)
        try:
            base_profile, base_label = _resolve_wall_profile(
                ledger, args.diff[0]
            )
            cur_profile, cur_label = _resolve_wall_profile(
                ledger, args.diff[1]
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diff = diff_profiles(
            base_profile, cur_profile,
            base_label=base_label, cur_label=cur_label,
        )

    latest = None
    if records:
        last = records[-1]
        latest = getattr(last, "provenance", None) or (
            last.get("provenance") if isinstance(last, dict) else None
        )
    html = render_observatory_html(
        report,
        records=len(records),
        latest_provenance=latest,
        diff=diff,
        source=source,
    )
    with open(args.html, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"wrote {args.html} (observatory dashboard: "
          f"{len(report.verdicts)} metric series, "
          f"{len(report.regressions)} trend regression(s))")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(render_observatory_prometheus(report))
        print(f"wrote {args.prom} (Prometheus text exposition)")
    return 0


def _run_obs(args) -> int:
    return {
        "log": _obs_log,
        "trends": _obs_trends,
        "diff": _obs_diff,
        "report": _obs_report,
    }[args.obs_command](args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the Anton SC10 communication paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.runner.spec import experiment_names

    p_lat = sub.add_parser(
        "latency", parents=[_canonical_parent(shape=(8, 8, 8), rounds=4),
                            _sweep_exec_parent(default_cache=False)],
        help="Fig. 5: latency vs hops (sweep pipeline)",
    )
    p_lat.add_argument("--max-hops", type=int, default=None,
                       help="largest hop count (default: the torus diameter)")

    sub.add_parser("breakdown", parents=[_canonical_parent()],
                   help="Fig. 6: the 162 ns breakdown")
    sub.add_parser("survey", parents=[_canonical_parent(shape=(8, 8, 8))],
                   help="Table 1 with the simulated Anton row")
    sub.add_parser("transfer", parents=[_canonical_parent()],
                   help="Fig. 7: 2 KB in 1-64 messages")

    p_ar = sub.add_parser(
        "allreduce",
        parents=[_canonical_parent(with_shape=False),
                 _sweep_exec_parent(default_cache=False)],
        help="Table 2 all-reduce rows (sweep pipeline)",
    )
    p_ar.add_argument("--shape", dest="shape_list", type=_parse_shape,
                      action="append", default=None, metavar="SHAPE",
                      help="machine shape, repeatable "
                           "(default 4x4x4 and 8x8x8)")

    p_sw = sub.add_parser(
        "sweep",
        parents=[_canonical_parent(with_shape=False),
                 _sweep_exec_parent(default_cache=True),
                 _ledger_parent()],
        help="run any experiment over a parameter grid, parallel + cached",
        description="Execute a grid of independent runs across a process "
                    "pool with a content-addressed result cache: "
                    "re-running an unchanged point is a cache hit, a "
                    "corrupted entry is detected and recomputed, and a "
                    "partially completed sweep resumes with --resume DIR.",
    )
    p_sw.add_argument("experiment", choices=experiment_names())
    p_sw.add_argument("--shape", type=_parse_shape, default=None,
                      help="base torus shape for points the grid doesn't "
                           "override (default 8x8x8 for latency/fig5, "
                           "else 4x4x4)")
    p_sw.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2",
                      help="sweep axis, repeatable: shape/rounds/payload/"
                           "seed/hops or an experiment-specific extra "
                           "(e.g. --grid hops=1,2,4,8)")
    p_sw.add_argument("--quiet", action="store_true",
                      help="suppress live per-worker telemetry lines")
    p_sw.add_argument("--prom", default=None, metavar="OUT",
                      help="write the sweep.* Prometheus exposition here")
    p_sw.add_argument("--html", default=None, metavar="OUT",
                      help="write an HTML sweep telemetry report here")

    p_pr = sub.add_parser(
        "profile", parents=[_canonical_parent(), _ledger_parent()],
        help="profile the simulator itself while running an experiment",
        description="Run one experiment with the engine self-profiler "
                    "attached: wall time and event counts per event type, "
                    "component, and simulation phase.  Per-component wall "
                    "totals tile the run loop's measured wall time exactly "
                    "(scheduler overhead is its own row, never smeared).",
    )
    p_pr.add_argument("experiment", choices=experiment_names())
    p_pr.add_argument("--out", default=None, metavar="OUT",
                      help="write the profile to this path")
    p_pr.add_argument("--format", choices=("speedscope", "collapsed", "json"),
                      default="speedscope",
                      help="profile file format (default speedscope; open "
                           "in https://www.speedscope.app)")
    p_pr.add_argument("--top", type=int, default=15,
                      help="hottest event types to print (default 15)")
    p_pr.add_argument("--diff", default=None, metavar="BASE",
                      help="differential profile: attribute this run's "
                           "wall-ns delta against BASE — a ledger record "
                           "id (prefix) or an on-disk profile file "
                           "(speedscope or --format json output)")

    from repro.trace.capture import EXPERIMENTS

    p_tr = sub.add_parser(
        "trace", parents=[_canonical_parent()],
        help="record a packet flight trace and export it for Perfetto",
    )
    p_tr.add_argument("experiment", choices=EXPERIMENTS)
    p_tr.add_argument("--out", default="trace.json",
                      help="Chrome trace_event JSON output path")
    p_tr.add_argument("--jsonl", default=None,
                      help="also write a JSONL dump to this path")

    p_at = sub.add_parser(
        "attribute", parents=[_canonical_parent(shape=(8, 8, 8))],
        help="trace-derived latency attribution (Fig. 6 from recorded spans)",
    )
    p_at.add_argument("experiment", choices=EXPERIMENTS)
    p_at.add_argument("--hops", type=int, default=1,
                      help="network hops for the latency experiment")
    p_at.add_argument("--top", type=int, default=10,
                      help="link hotspots to show (default 10)")
    p_at.add_argument("--ber", type=float, default=0.0,
                      help="inject a uniform link bit-error rate and "
                           "attribute the retry time (default 0 = off)")

    from repro.monitor.capture import (
        DEFAULT_HISTOGRAM_CAP,
        MONITOR_EXPERIMENTS,
    )
    from repro.monitor.health import DEFAULT_STALL_NS
    from repro.monitor.sampler import DEFAULT_INTERVAL_NS

    mon_common = argparse.ArgumentParser(
        add_help=False, parents=[_canonical_parent()]
    )
    mon_common.add_argument(
        "experiment", nargs="?", choices=MONITOR_EXPERIMENTS, default="mdstep"
    )
    mon_common.add_argument(
        "--interval", type=float, default=DEFAULT_INTERVAL_NS,
        help=f"sampling interval in simulated ns (default {DEFAULT_INTERVAL_NS:.0f})",
    )
    mon_common.add_argument(
        "--capacity", type=int, default=512,
        help="ring-buffer capacity per time series (default 512)",
    )
    mon_common.add_argument(
        "--stall", type=float, default=DEFAULT_STALL_NS,
        help="stall-detector no-progress window in simulated ns "
             f"(default {DEFAULT_STALL_NS:.0f})",
    )
    mon_common.add_argument("--jsonl", default=None,
                            help="write JSONL diagnostics to this path")
    mon_common.add_argument("--prom", default=None,
                            help="write Prometheus text exposition to this path")

    p_mon = sub.add_parser(
        "monitor", parents=[mon_common],
        help="run with continuous health monitoring; exit 1 on violation",
        description="Histograms created during the run are capped at "
                    f"{DEFAULT_HISTOGRAM_CAP} samples and fall back to "
                    "streaming sketches (1% relative error).",
    )
    p_mon.add_argument("--html", default=None,
                       help="also write the HTML health report to this path")

    p_rep = sub.add_parser(
        "report", parents=[mon_common],
        help="monitored run rendered as a self-contained HTML report",
    )
    p_rep.add_argument("--html", default="report.html", metavar="OUT",
                       help="HTML output path (default report.html)")

    from repro.congestion.capture import EXPERIMENTS as CONGEST_EXPERIMENTS

    p_cg = sub.add_parser(
        "congest", parents=[_canonical_parent(), _ledger_parent()],
        help="the congestion X-ray: queue telemetry, per-packet delay "
             "decomposition, backpressure attribution",
        description="Runs one experiment with the flight recorder "
                    "attached, then prints the "
                    "backpressure congestion tree (links ranked by "
                    "contributed head-of-line wait), the worst link's "
                    "feeders, blocking episodes, and the exact "
                    "per-packet delay decomposition.",
    )
    p_cg.add_argument("experiment", choices=CONGEST_EXPERIMENTS)
    p_cg.add_argument("--hops", type=int, default=None,
                      help="network hops for the latency experiment")
    p_cg.add_argument("--senders", type=int, default=None,
                      help="fan-in width for the congestion incast "
                           "(default 8; 26 = full 3x3x3 incast)")
    p_cg.add_argument("--top", type=int, default=10,
                      help="contended links/episodes to list (default 10)")
    p_cg.add_argument("--min-episode", type=float, default=0.0,
                      metavar="NS",
                      help="drop merged blocking episodes shorter than "
                           "NS (default 0 = keep all)")
    p_cg.add_argument("--json", action="store_true",
                      help="print the repro-congest/1 document as the "
                           "last stdout line")
    p_cg.add_argument("--html", default=None, metavar="OUT",
                      help="write the standalone congestion X-ray HTML "
                           "report to this path")
    p_cg.add_argument("--prom", default=None, metavar="OUT",
                      help="write the congestion.* Prometheus text "
                           "exposition to this path")

    from repro.observatory.trends import (
        DEFAULT_MAD_MULT,
        DEFAULT_MIN_POINTS,
        DEFAULT_MIN_WORSENING,
        DEFAULT_WINDOW,
    )

    p_obs = sub.add_parser(
        "obs",
        help="the performance observatory: ledger, trends, profile "
             "diffs, dashboard",
        description="Longitudinal performance tooling over the run "
                    "ledger that profile/sweep/congest append to.",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    o_log = obs_sub.add_parser(
        "log", parents=[_ledger_parent()],
        help="show the ledger tail, verify the hash chain, or append "
             "a repro-bench/1 results file",
    )
    o_log.add_argument("--limit", type=int, default=20,
                       help="records to show (default 20; 0 = all)")
    o_log.add_argument("--verify", action="store_true",
                       help="verify the hash chain and exit 1 on damage")
    o_log.add_argument("--results", default=None, metavar="FILE",
                       help="append a bench record built from this "
                            "repro-bench/1 results file")
    o_log.add_argument("--label", default="bench",
                       help="label for the appended record "
                            "(default 'bench')")
    o_log.add_argument("--trajectory", default=None, metavar="FILE",
                       help="with --results: also append one point to "
                            "this repro-trajectory/1 document")

    trend_common = argparse.ArgumentParser(add_help=False)
    trend_common.add_argument(
        "--trajectory", default=None, metavar="FILE",
        help="read series from this repro-trajectory/1 document "
             "instead of the ledger")
    trend_common.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help=f"history window per metric (default {DEFAULT_WINDOW})")

    o_tr = obs_sub.add_parser(
        "trends", parents=[_ledger_parent(), trend_common],
        help="robust per-metric regression detection over the ledger "
             "window; exit 1 on any trend regression",
    )
    o_tr.add_argument("--min-points", type=int, default=DEFAULT_MIN_POINTS,
                      help="points required before judging a series "
                           f"(default {DEFAULT_MIN_POINTS})")
    o_tr.add_argument("--min-worsening", type=float,
                      default=DEFAULT_MIN_WORSENING,
                      help="floor on the worsening threshold "
                           f"(default {DEFAULT_MIN_WORSENING})")
    o_tr.add_argument("--mad-mult", type=float, default=DEFAULT_MAD_MULT,
                      help="noise multiplier: threshold grows to this "
                           "many MADs of the series' own spread "
                           f"(default {DEFAULT_MAD_MULT})")
    o_tr.add_argument("--json", action="store_true",
                      help="print the repro-obs-trends/1 verdict as one "
                           "line instead of the table")

    o_df = obs_sub.add_parser(
        "diff", parents=[_ledger_parent()],
        help="attribute the wall-ns delta between two profile captures",
    )
    o_df.add_argument("base", help="baseline: ledger record id (prefix) "
                                   "or profile file")
    o_df.add_argument("current", help="current: ledger record id "
                                      "(prefix) or profile file")
    o_df.add_argument("--top", type=int, default=15,
                      help="largest movers to list (default 15)")
    o_df.add_argument("--json", action="store_true",
                      help="print the repro-profile-diff/1 document "
                           "as one line instead of the table")
    o_df.add_argument("--max-residual", type=float, default=None,
                      metavar="NS",
                      help="exit 1 when the diff's unattributed "
                           "residual exceeds NS in magnitude (gates "
                           "attribution quality in CI)")

    o_rp = obs_sub.add_parser(
        "report", parents=[_ledger_parent(), trend_common],
        help="render the observatory HTML dashboard (+ Prometheus)",
    )
    o_rp.add_argument("--html", default="observatory.html", metavar="OUT",
                      help="HTML output path (default observatory.html)")
    o_rp.add_argument("--prom", default=None, metavar="OUT",
                      help="write the Prometheus exposition here")
    o_rp.add_argument("--diff", nargs=2, default=None,
                      metavar=("BASE", "CURRENT"),
                      help="include a profile-diff flame table for "
                           "these two captures")

    args = parser.parse_args(argv)

    if args.command == "trace":
        return _run_trace(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "attribute":
        return _run_attribute(args)
    if args.command in ("monitor", "report"):
        return _run_monitor(args)
    if args.command == "congest":
        return _run_congest(args)
    if args.command == "obs":
        return _run_obs(args)

    registry = None
    stack = ExitStack()
    if getattr(args, "metrics", False):
        from repro.trace.flight import FlightRecorder, use_flight
        from repro.trace.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        stack.enter_context(use_registry(registry))
        stack.enter_context(use_flight(FlightRecorder(metrics=registry)))

    with stack:
        if args.command == "sweep":
            rc = _run_sweep_cmd(args, registry)
        elif args.command == "latency":
            rc = _run_latency(args, registry)
        elif args.command == "allreduce":
            rc = _run_allreduce(args, registry)
        elif args.command == "breakdown":
            from repro.analysis import breakdown_162ns, render_table

            parts = breakdown_162ns()
            rows = [[label, ns] for label, ns in parts]
            rows.append(["TOTAL", sum(ns for _, ns in parts)])
            print(render_table("The 162 ns write, by component", ["part", "ns"], rows))
            rc = 0
        elif args.command == "survey":
            from repro.analysis import ping_pong_ns
            from repro.baselines.survey import survey_table

            measured = ping_pong_ns(args.shape, (1, 0, 0)) / 1000.0
            print(survey_table(measured_anton_us=measured))
            rc = 0
        elif args.command == "transfer":
            from repro.analysis import render_series, transfer_split_series

            pts = transfer_split_series()
            print(render_series(
                "2 KB transfer time (µs) vs messages",
                "messages", [p.num_messages for p in pts],
                {
                    "InfiniBand": [p.infiniband_ns / 1000 for p in pts],
                    "Anton 1 hop": [p.anton_1hop_ns / 1000 for p in pts],
                },
                float_format="{:.2f}",
            ))
            rc = 0
        else:  # pragma: no cover — argparse enforces the choices
            raise AssertionError(args.command)

    if registry is not None:
        print()
        print(registry.summary())
    return rc


if __name__ == "__main__":
    sys.exit(main())
