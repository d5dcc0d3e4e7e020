#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the BENCHMARK.json bounds.

    python3 benchmarks/perf/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --out`` (each
holds any number of runs; make at least three per side).  For every
workload and end-to-end metric the table gives each side's median and
quartiles, the change of B's median against A's, and a status, tested
in this order:

* ``unresolved`` — a side's own spread (quartile distance over median)
  is wider than the bound, so the medians cannot be told apart;
* ``WORSE`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the bound;
* ``ok`` — the medians differ by no more than the bound.

Exits 0 only when the two sides agree: every metric ``ok`` and no op
of B failed; else 1.  Only bare (untraced) runs are compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list[dict]:
    with open(path) as fh:
        return [r for r in json.load(fh)["runs"] if not r["trace"]]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(a_runs: list[dict], b_runs: list[dict], metrics: list[dict]):
    """Yield one row per (workload, metric) present on both sides."""
    workloads = sorted(
        {r["workload"] for r in a_runs} & {r["workload"] for r in b_runs}
    )
    for workload in workloads:
        a_w = [r for r in a_runs if r["workload"] == workload]
        b_w = [r for r in b_runs if r["workload"] == workload]
        for m in metrics:
            a = summary([r["metrics"][m["name"]] for r in a_w])
            b = summary([r["metrics"][m["name"]] for r in b_w])
            change = (b[0] - a[0]) / a[0]
            worse = change if m["better"] == "lower" else -change
            spread = max((s[2] - s[1]) / s[0] for s in (a, b))
            if spread > m["bound"]:
                status = "unresolved"
            elif worse > m["bound"]:
                status = "WORSE"
            elif -worse > m["bound"]:
                status = "better"
            else:
                status = "ok"
            yield workload, m, len(a_w), a, len(b_w), b, change, status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("a", type=Path, help="baseline runs (run.py --out)")
    p.add_argument("b", type=Path, help="candidate runs (run.py --out)")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    def fmt(n, s):
        return f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] n={n}"

    print(f"{'workload':<10} {'metric':<12} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8} {'bound':>6}  status")
    rows = list(compare(a_runs, b_runs, metrics))
    if not rows:
        print("no workload has bare runs on both sides")
        return 1
    for workload, m, na, a, nb, b, change, status in rows:
        print(f"{workload:<10} {m['name']:<12} {fmt(na, a):<34} "
              f"{fmt(nb, b):<34} {change:>+8.2%} {m['bound']:>6.0%}  {status}")
    failed = sum(r["failed"] for r in b_runs)
    if failed:
        print(f"B: {failed} ops failed verification")
    agree = all(row[-1] == "ok" for row in rows)
    return 0 if agree and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
