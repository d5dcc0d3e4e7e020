#!/usr/bin/env python3
"""Paper-scale step pairs: host CPU, garbage-collector time and peak RSS.

Builds the Fig. 13 / Table 3 machine at the paper's scale (8×8×8 nodes,
23,558 DHFR atoms) once, then runs the range-limited + long-range step
pair ``--pairs`` times in this one process and prints, per pair:

* ``cpu_s`` — this thread's CPU time for the pair;
* ``gc_s`` and ``gc_pct`` — time spent inside cyclic garbage
  collections during the pair (timed through ``gc.callbacks``) and its
  share of ``cpu_s``, with the collections per generation;
* ``peak_rss_mb`` — the process's peak resident set after the pair;
* the two steps' simulated times, which must not differ between trees.

Run from the repository root, alternating the two checkouts compared::

    python3 benchmarks/paper_scale_pair.py [--pairs 2] [--shape 8x8x8]

A pair takes about a minute at 8×8×8 on a 2 GHz core; ``--shape
4x4x4`` scales the atoms down with the machine, as the ``mdstep``
experiment does.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import gc
import math
import resource
import sys
from pathlib import Path
from time import perf_counter_ns, thread_time_ns

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.mdstep import build_dhfr_md  # noqa: E402
from repro.constants import DHFR_ATOMS  # noqa: E402


class GcClock:
    """Wall time and count of the collections of each generation."""

    def __init__(self) -> None:
        self.ns = 0
        self.counts = [0, 0, 0]
        self._start = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter_ns()
        else:
            self.ns += perf_counter_ns() - self._start
            self.counts[info["generation"]] += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=2)
    parser.add_argument("--shape", default="8x8x8")
    args = parser.parse_args(argv)
    shape = tuple(int(n) for n in args.shape.split("x"))
    atoms = max(512, DHFR_ATOMS * math.prod(shape) // 512)

    clock = GcClock()
    gc.callbacks.append(clock)
    t0 = thread_time_ns()
    md = build_dhfr_md(shape, atoms=atoms)
    print(f"build {args.shape} ({atoms} atoms): "
          f"cpu_s {(thread_time_ns() - t0) / 1e9:.2f}  "
          f"gc_s {clock.ns / 1e9:.2f}  peak_rss_mb {peak_rss_mb():.1f}",
          flush=True)
    for pair in range(1, args.pairs + 1):
        clock.ns, clock.counts = 0, [0, 0, 0]
        t0 = thread_time_ns()
        rl = md.run_step("range_limited")
        lr = md.run_step("long_range")
        cpu_s = (thread_time_ns() - t0) / 1e9
        gc_s = clock.ns / 1e9
        print(f"pair {pair}: cpu_s {cpu_s:.2f}  gc_s {gc_s:.2f}  "
              f"gc_pct {100 * gc_s / cpu_s:.1f}  "
              f"collections {'/'.join(map(str, clock.counts))}  "
              f"peak_rss_mb {peak_rss_mb():.1f}  "
              f"steps_ns {rl.total_ns:.1f}/{lr.total_ns:.1f}",
              flush=True)
    gc.callbacks.remove(clock)
    return 0


if __name__ == "__main__":
    sys.exit(main())
