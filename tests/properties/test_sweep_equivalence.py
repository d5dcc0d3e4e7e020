"""Property tests for the sweep runner's two core guarantees.

1. **Serial/parallel equivalence** — a sweep executed across a process
   pool persists *byte-identical* ``repro-bench/1`` JSON to the same
   sweep executed serially in-process.  Parallelism may only change
   wall-clock time, never results.
2. **Cache integrity** — a poisoned cache entry (payload tampered
   without re-hashing) is detected on read, counted as corruption, and
   recomputed; the recomputed value matches a cold run exactly.
"""

import json
import os
from pathlib import Path

from repro.__main__ import main
from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec
from repro.runner.sweep import expand_grid, run_sweep

GRID = expand_grid(
    "latency",
    {"shape": [(2, 2, 2), (3, 3, 3)], "hops": [0, 1]},
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestSerialParallelEquivalence:
    def test_results_json_is_byte_identical(self, tmp_path):
        serial = str(tmp_path / "serial")
        parallel = str(tmp_path / "parallel")
        a = run_sweep(GRID, jobs=1, out_dir=serial)
        b = run_sweep(GRID, jobs=4, out_dir=parallel)
        assert a.ok and b.ok
        assert _read(os.path.join(serial, "results.json")) == \
            _read(os.path.join(parallel, "results.json"))

    def test_per_point_checkpoints_match_too(self, tmp_path):
        serial = str(tmp_path / "serial")
        parallel = str(tmp_path / "parallel")
        run_sweep(GRID, jobs=1, out_dir=serial)
        run_sweep(GRID, jobs=4, out_dir=parallel)
        for name in sorted(os.listdir(os.path.join(serial, "points"))):
            assert _read(os.path.join(serial, "points", name)) == \
                _read(os.path.join(parallel, "points", name))

    def test_cli_sweep_matches_across_jobs(self, tmp_path, capsys):
        out1 = str(tmp_path / "j1")
        out4 = str(tmp_path / "j4")
        rc1 = main([
            "sweep", "latency", "--shape", "2x2x2",
            "--grid", "hops=0,1,2", "--jobs", "1", "--no-cache",
            "--out", out1,
        ])
        rc4 = main([
            "sweep", "latency", "--shape", "2x2x2",
            "--grid", "hops=0,1,2", "--jobs", "4", "--no-cache",
            "--out", out4,
        ])
        capsys.readouterr()
        assert rc1 == rc4 == 0
        assert _read(os.path.join(out1, "results.json")) == \
            _read(os.path.join(out4, "results.json"))

    def test_cached_rerun_preserves_the_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = str(tmp_path / "cold")
        warm = str(tmp_path / "warm")
        first = run_sweep(GRID, jobs=2, cache=cache, out_dir=cold)
        second = run_sweep(GRID, jobs=2, cache=cache, out_dir=warm)
        assert first.computed == len(GRID)
        assert second.cache_hits == len(GRID)
        assert _read(os.path.join(cold, "results.json")) == \
            _read(os.path.join(warm, "results.json"))


class TestCachePoisoning:
    def test_poisoned_entry_detected_and_recomputed(self, tmp_path):
        spec = ExperimentSpec("latency", shape=(2, 2, 2), hops=1)
        cache = ResultCache(str(tmp_path))
        truth = run_sweep([spec], cache=cache).points[0].result

        path = cache.path(cache.key(spec))
        doc = json.loads(Path(path).read_text())
        doc["payload"]["elapsed_ns"] = 13.0  # poison without re-hashing
        with open(path, "w") as fh:
            json.dump(doc, fh)

        report = run_sweep([spec], cache=cache)
        point = report.points[0]
        assert point.status == "computed"  # not served from cache
        assert point.result.elapsed_ns == truth.elapsed_ns
        assert cache.stats.corrupt == 1
        # The verdict reports the corruption without failing the sweep.
        verdict = report.verdict()
        assert verdict.healthy
        assert "corrupt" in verdict.render_text()
        # The recompute overwrote the poisoned entry with a valid one.
        assert cache.get(spec) is not None

    def test_flipped_payload_byte_detected(self, tmp_path):
        spec = ExperimentSpec("transfer", shape=(2, 2, 2))
        cache = ResultCache(str(tmp_path))
        run_sweep([spec], cache=cache)
        path = cache.path(cache.key(spec))
        raw = bytearray(_read(path))
        idx = raw.rindex(b"}")  # corrupt near the tail
        raw[idx] = ord("!")
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        report = run_sweep([spec], cache=cache)
        assert report.points[0].status == "computed"
        assert cache.stats.corrupt == 1
