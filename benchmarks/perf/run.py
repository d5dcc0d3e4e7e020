#!/usr/bin/env python3
"""Host-time benchmark: how long the reproduction makes its users wait.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload W] [--seed N]
        [--trace [0|1]] [--quick] [--out F]

Each workload (``mdstep``, ``allreduce``, ``incast``, ``xray``; all
four by default) runs in fresh child processes, one after another and
never two at once, each single-threaded.  A bare run first spawns
set-up-only children, then ``Workload.children`` measured children;
each measured child sets up once more and runs the workload's fixed
number of ops (``Workload.ops``) through the closed loop of
:func:`harness.measure`, and the metrics pool the ops of all of them.
``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups (measured
children's included), each the child's CPU time from its start to its
first op, so it includes interpreter start and imports.  Set-up and op
times are rescaled to a reference host speed (``yardstick.py``); the
wall-clock times are printed beside them.  A traced run is one child
of ``Workload.trace_ops`` ops.

The op counts are sized so a bare run times about ``run_seconds`` of
``BENCHMARK.json``.  A ``--seconds`` argument is accepted, because the
benchmark's calling convention passes the run length, but it changes
nothing (``Workload.ops`` says why the counts are fixed).

Without ``--trace`` (or with ``--trace 0``) the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace`` it reports
the per-layer metrics instead and writes its spans to
``benchmarks/perf/out/trace_<workload>.json``.  Every metric is printed
by name and unit, followed by the workload's extras.  The last line of
standard output is one JSON object::

    {"correct": …, "attempted": …, "failed": …, "metrics": {…}}

Every op is verified (``expected.json`` pins, conservation, exact
sums, decomposition tiling); ``correct`` is false when any op failed.
``--out F`` appends each workload's full record to the JSON file ``F``
(see ``compare.py``).  ``--quick`` runs tiny machines for four ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns

import harness
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups timed per bare run: the measured children's plus set-up-only
#: ones.  ``--quick`` times only its one measured child's.
SETUP_SAMPLES = 5

#: Ops per workload in ``--quick`` mode (one ABBA round when traced).
QUICK_OPS = 4

#: Seconds the children of one workload may take together; a whole
#: run takes 15-30.
WORKLOAD_TIMEOUT_S = 170

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

#: Environment variables that steer the model (scheduler, ledger,
#: cache) start with this; the children run without any of them.
MODEL_ENV_PREFIX = "REPRO_"


def unit_of(name: str) -> str:
    """A metric's unit, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if "ns_per_" in name:
        return "ns"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_x"):
        return "x"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_frac"):
        return "fraction"
    if "_mb" in name:
        return "MB"
    return "count"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_pins(workload: str, seed: int, quick: bool) -> dict:
    """The pins that hold for this workload and seed."""
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    if workloads.WORKLOADS[workload].uses_seed and seed != expected["seed"]:
        return {}
    return expected["quick" if quick else "full"][workload]


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    workload = workloads.make(args.child, args.seed, args.quick)
    if args.setup_only:
        ops = 0
    elif args.quick:
        ops = QUICK_OPS
    else:
        ops = workload.trace_ops if args.trace else workload.ops
    run = harness.measure(
        workload,
        ops,
        trace=bool(args.trace),
        pins=load_pins(args.child, args.seed, args.quick),
    )
    setup = {
        "setup_s": run.setup_s,
        "setup_wall_s": (
            run.setup_done_ns - args.spawned_at - run.probe_spent_ns
        ) / 1e9,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    doc = {
        **setup,
        "attempted": len(run.ops),
        "failed": sum(op.failed for op in run.ops),
        "problems": [p for op in run.ops for p in op.problems][:10],
        "facts": run.ops[0].facts,
        "scheduler": resolved_scheduler(),
    }
    if not args.trace:
        doc.update(harness.bare_summary(run))
    else:
        doc["metrics"], doc["extras"] = harness.per_layer(run)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace_{args.child}.json"
        with open(path, "w") as fh:
            json.dump(
                harness.trace_document(run, doc["metrics"], doc["extras"]), fh
            )
        doc["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(doc))
    return 0


def resolved_scheduler() -> str:
    try:
        from repro.engine.scheduler import resolve_scheduler
    except ImportError:  # a single-scheduler engine has nothing to resolve
        return "default"
    return resolve_scheduler()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(MODEL_ENV_PREFIX)
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(args: argparse.Namespace, workload: str, setup_only: bool,
          deadline_ns: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    now = monotonic_ns()
    cmd += ["--spawned-at", str(now)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, (deadline_ns - now) / 1e9),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} child exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    deadline = monotonic_ns() + WORKLOAD_TIMEOUT_S * 10**9
    if args.trace:
        doc = spawn(args, workload, False, deadline)
    else:
        n = 1 if args.quick else workloads.WORKLOADS[workload].children
        setups = [
            spawn(args, workload, True, deadline)
            for _ in range(0 if args.quick else SETUP_SAMPLES - n)
        ]
        children = [spawn(args, workload, False, deadline) for _ in range(n)]
        metrics, extras = harness.end_to_end(children, setups + children)
        doc = {
            "attempted": sum(child["attempted"] for child in children),
            "failed": sum(child["failed"] for child in children),
            "problems": [p for c in children for p in c["problems"]][:10],
            "facts": children[0]["facts"],
            "scheduler": children[0]["scheduler"],
            "ops": [op for child in children for op in child["ops"]],
            "metrics": metrics,
            "extras": extras,
        }
    doc.update(workload=workload, seed=args.seed, trace=args.trace,
               quick=args.quick)
    return doc


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def git_rev() -> str:
    """HEAD of the repository this file sits in, read from ``.git``
    directly so nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_block(doc: dict, names: list[str]) -> None:
    mode = "traced" if doc["trace"] else "bare"
    print(
        f"== {doc['workload']} (seed {doc['seed']}, {mode}, "
        f"{doc['attempted']} ops, {doc['failed']} failed, "
        f"scheduler {doc['scheduler']}) =="
    )
    rows = [(n, doc["metrics"][n]) for n in names]
    rows += sorted(doc["extras"].items())
    for name, value in rows:
        print(f"  {name:<26} {value:>16.6g} {unit_of(name)}")
    for problem in doc["problems"]:
        print(f"  FAILED: {problem}")


def result_line(docs: list[dict], metric_names: list[str]) -> dict:
    """The last line of output: every listed metric with its unit
    (prefixed by the workload when several ran)."""
    metrics = {}
    for doc in docs:
        prefix = f"{doc['workload']}/" if len(docs) > 1 else ""
        for name in metric_names:
            metrics[prefix + name] = {
                "value": doc["metrics"][name], "unit": unit_of(name)
            }
    return {
        "correct": all(d["failed"] == 0 for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }


def append_out(path: Path, docs: list[dict]) -> None:
    data = {"schema": "perf-runs/1", "runs": []}
    if path.exists():
        with open(path) as fh:
            data = json.load(fh)
    data["runs"].extend(docs)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="Host-time benchmark of the Anton reproduction."
    )
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help=f"tiny machines, {QUICK_OPS} ops per workload")
    p.add_argument("--out", type=Path, default=None,
                   help="append the full records to this JSON file")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[section]]
    selected = (
        WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    )
    prov = provenance()
    docs = []
    for name in selected:
        try:
            doc = run_workload(args, name)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        doc["provenance"] = dict(prov, scheduler=doc["scheduler"])
        missing = [n for n in names if n not in doc["metrics"]]
        if missing:
            print(f"error: {name} did not measure {missing}", file=sys.stderr)
            return 1
        print_block(doc, names)
        docs.append(doc)
    if args.out is not None:
        append_out(args.out, docs)
    print(json.dumps(result_line(docs, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
