"""Sweep orchestration (runner/sweep.py): grid parsing/expansion,
serial execution order, caching, checkpoint resume, failure capture,
and the sweep's health verdict.

The parallel-equivalence and cache-poisoning property tests live in
``tests/properties/test_sweep_equivalence.py``; this file covers the
sweep machinery itself, all with ``jobs=1`` so failures localize.
"""

import json
import os
from pathlib import Path

import pytest

from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec
from repro.runner.sweep import (
    expand_grid,
    parse_grid,
    run_sweep,
    sweep_key,
)
from repro.trace.metrics import MetricsRegistry

SPECS = [
    ExperimentSpec("latency", shape=(2, 2, 2), hops=h) for h in (0, 1, 2)
]


class TestParseGrid:
    def test_typed_axes(self):
        axes = parse_grid(["hops=1,2,4", "shape=2x2x2,4x4x4"])
        assert axes == {
            "hops": [1, 2, 4],
            "shape": [(2, 2, 2), (4, 4, 4)],
        }

    def test_extra_axes_fall_back_to_scalar_guessing(self):
        axes = parse_grid(["algorithm=butterfly", "scale=0.5,2"])
        assert axes["algorithm"] == ["butterfly"]
        assert axes["scale"] == [0.5, 2]

    def test_errors(self):
        with pytest.raises(ValueError, match="key=v1,v2"):
            parse_grid(["hops"])
        with pytest.raises(ValueError, match="duplicate"):
            parse_grid(["hops=1", "hops=2"])
        with pytest.raises(ValueError, match="no values"):
            parse_grid(["hops="])
        with pytest.raises(ValueError, match="integers"):
            parse_grid(["hops=one"])


class TestExpandGrid:
    def test_cartesian_product_last_axis_fastest(self):
        specs = expand_grid(
            "latency",
            {"shape": [(2, 2, 2), (4, 4, 4)], "hops": [0, 1]},
        )
        assert [(s.shape, s.hops) for s in specs] == [
            ((2, 2, 2), 0), ((2, 2, 2), 1),
            ((4, 4, 4), 0), ((4, 4, 4), 1),
        ]

    def test_non_spec_axes_become_extras(self):
        specs = expand_grid("allreduce", {"algorithm": ["butterfly"]})
        assert specs[0].extra("algorithm") == "butterfly"

    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            expand_grid("nope", {"hops": [1]})

    def test_base_parameters_apply_to_every_point(self):
        specs = expand_grid("latency", {"hops": [0, 1]}, {"seed": 7})
        assert all(s.seed == 7 for s in specs)


class TestRunSweep:
    def test_points_in_grid_order_with_results(self):
        report = run_sweep(SPECS)
        assert report.ok
        assert [p.spec for p in report.points] == SPECS
        assert [p.index for p in report.points] == [0, 1, 2]
        assert report.computed == 3 and report.cache_hits == 0
        assert report.results()[1].value("one_way_1hop_ns") > 0

    def test_duplicate_specs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep([SPECS[0], SPECS[0]])

    def test_failure_is_captured_not_raised(self):
        bad = ExperimentSpec("latency", shape=(2, 2, 2), hops=50)
        report = run_sweep([SPECS[0], bad])
        assert not report.ok
        assert report.points[0].ok
        assert report.points[1].error is not None
        assert report.failures == [report.points[1]]

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(SPECS, progress=lambda p: seen.append(p.index))
        assert sorted(seen) == [0, 1, 2]

    def test_metrics_counters_reported(self):
        registry = MetricsRegistry()
        run_sweep(SPECS, registry=registry)
        assert registry.counter("sweep.points").value == 3
        assert registry.counter("sweep.computed").value == 3
        assert registry.counter("sweep.failures").value == 0

    def test_verdict_healthy_and_renders(self):
        verdict = run_sweep(SPECS).verdict()
        assert verdict.healthy
        text = verdict.render_text()
        assert "sweep.completed" in text and "HEALTHY" in text

    def test_verdict_unhealthy_on_failure(self):
        bad = ExperimentSpec("latency", shape=(2, 2, 2), hops=50)
        verdict = run_sweep([bad]).verdict()
        assert not verdict.healthy
        assert "hops" in verdict.render_text() or "50" in verdict.render_text()


class TestCacheIntegration:
    def test_second_sweep_is_all_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = run_sweep(SPECS, cache=cache)
        second = run_sweep(SPECS, cache=cache)
        assert first.computed == 3 and first.cache_hits == 0
        assert second.computed == 0 and second.cache_hits == 3
        assert [p.result.elapsed_ns for p in second.points] == \
            [p.result.elapsed_ns for p in first.points]

    def test_changed_spec_forces_recompute(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(SPECS, cache=cache)
        changed = [s.replace(rounds=3) for s in SPECS]
        report = run_sweep(changed, cache=cache)
        assert report.computed == 3 and report.cache_hits == 0

    def test_failed_points_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        bad = ExperimentSpec("latency", shape=(2, 2, 2), hops=50)
        run_sweep([bad], cache=cache)
        assert cache.stats.writes == 0

    def test_shared_registry_sweep_does_not_poison_the_cache(self, tmp_path):
        """A ``--metrics`` sweep computes each point into the caller's
        registry, so its cores carry no metrics snapshot.  A later plain
        sweep on the same cache must still get a fresh run's bytes."""
        from repro.runner.result import run_experiment

        specs = [
            ExperimentSpec("allreduce", shape=(2, 2, 2), payload=p)
            for p in (0, 32)
        ]
        cache = ResultCache(str(tmp_path / "cache"))
        out = str(tmp_path / "metrics-sweep")
        shared = run_sweep(
            specs, cache=cache, out_dir=out, run_registry=MetricsRegistry()
        )
        assert shared.ok and cache.stats.writes == 0
        points = os.path.join(out, "points")
        assert not os.path.isdir(points) or not os.listdir(points)
        plain = run_sweep(specs, cache=cache)
        fresh = [run_experiment(spec).to_dict() for spec in specs]
        assert fresh[0]["metrics"]
        assert [p.result.to_dict() for p in plain.points] == fresh


class TestCheckpointResume:
    def test_out_dir_holds_manifest_points_results(self, tmp_path):
        out = str(tmp_path / "sweep")
        report = run_sweep(SPECS, out_dir=out)
        assert report.ok
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["sweep_key"] == sweep_key(SPECS)
        assert sorted(os.listdir(os.path.join(out, "points"))) == [
            "0000.json", "0001.json", "0002.json",
        ]
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["completed"] == 3
        from repro.bench.results import ResultSet

        rs = ResultSet.read(os.path.join(out, "results.json"))
        assert len(rs) == 3

    def test_resume_skips_checkpointed_points(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(SPECS, out_dir=out)
        os.remove(os.path.join(out, "points", "0001.json"))
        report = run_sweep(SPECS, out_dir=out, resume=True)
        assert report.ok
        assert report.resumed == 2
        assert report.computed == 1
        assert report.points[1].status == "computed"

    def test_resume_rejects_a_different_sweep(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(SPECS, out_dir=out)
        other = [s.replace(seed=9) for s in SPECS]
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(other, out_dir=out, resume=True)

    def test_tampered_checkpoint_is_recomputed(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(SPECS, out_dir=out)
        path = os.path.join(out, "points", "0002.json")
        doc = json.loads(Path(path).read_text())
        doc["payload"]["elapsed_ns"] = 1.0  # tamper without re-hashing
        with open(path, "w") as fh:
            json.dump(doc, fh)
        report = run_sweep(SPECS, out_dir=out, resume=True)
        assert report.ok
        assert report.resumed == 2
        assert report.points[2].status == "computed"
        assert report.points[2].result.elapsed_ns != 1.0
