"""Quick benchmark suite (bench/suite.py) and the ``repro bench`` /
``repro attribute`` CLI subcommands.

The JSON the suite emits is the committed regression baseline, so its
byte-identity across runs is load-bearing: any nondeterminism here
silently breaks the CI gate.
"""

import pytest

from repro.__main__ import main
from repro.bench.results import ResultSet
from repro.bench.suite import SUITE_BENCHMARKS, run_suite

SHAPE = (2, 2, 2)


class TestRunSuite:
    def test_covers_every_benchmark(self):
        rs = run_suite(shape=SHAPE)
        assert {r.benchmark for r in rs} == set(SUITE_BENCHMARKS)
        for r in rs:
            # The monitor perturbation gates are *meant* to be exactly
            # zero (zero baseline = any drift is an infinite
            # regression).
            if r.benchmark == "monitor" and r.better == "lower":
                assert r.value == 0.0
            else:
                assert r.value > 0

    def test_only_filter(self):
        rs = run_suite(shape=SHAPE, only={"latency", "bandwidth"})
        assert {r.benchmark for r in rs} == {"latency", "bandwidth"}

    def test_latency_metrics_match_the_model(self):
        rs = run_suite(shape=(4, 4, 4), only={"latency"})
        by_metric = {r.metric: r.value for r in rs}
        assert by_metric["one_way_0hop_ns"] == 97.0
        assert by_metric["one_way_1hop_ns"] == 162.0
        assert len(by_metric) == 4  # hops 0..3 on a 4x4x4

    def test_json_is_byte_identical_across_runs(self):
        # Satellite: determinism of the machine-readable results. Two
        # independent in-process runs must serialize to the same bytes
        # (no timestamps, no process-global ids, canonical ordering).
        a = run_suite(shape=SHAPE).dumps()
        b = run_suite(shape=SHAPE).dumps()
        assert a == b

    def test_small_torus_caps_the_hop_sweep(self):
        rs = run_suite(shape=(2, 1, 1), only={"latency"})
        assert {r.metric for r in rs} == {"one_way_0hop_ns", "one_way_1hop_ns"}


class TestBenchCli:
    def run(self, *argv):
        return main(list(argv))

    def test_bench_writes_schema_valid_results(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        rc = self.run("bench", "--shape", "2x2x2", "--out", str(out))
        assert rc == 0
        rs = ResultSet.read(str(out))
        assert {r.benchmark for r in rs} == set(SUITE_BENCHMARKS)

    def test_compare_clean_baseline_passes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert self.run("bench", "--shape", "2x2x2", "--out", str(base)) == 0
        rc = self.run("bench", "--shape", "2x2x2", "--compare", str(base))
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith("OK")

    def test_compare_fails_on_injected_regression(self, tmp_path, capsys):
        # Tamper with the baseline: claim 1-hop latency used to be much
        # better than the model now produces.
        rs = run_suite(shape=SHAPE)
        doc = rs.to_dict()
        for rec in doc["results"]:
            if rec["metric"] == "one_way_1hop_ns":
                rec["value"] = 100.0  # current 162 is a +62% regression
        base = tmp_path / "tampered.json"
        base.write_text(ResultSet.from_dict(doc).dumps())
        rc = self.run("bench", "--shape", "2x2x2", "--compare", str(base))
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_fails_on_missing_metric(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert self.run("bench", "--shape", "2x2x2", "--out", str(base)) == 0
        rc = self.run("bench", "--shape", "2x2x2", "--only", "latency",
                      "--compare", str(base))
        assert rc == 1
        assert "MISSING" in capsys.readouterr().out

    def test_threshold_flag_loosens_the_gate(self, tmp_path, capsys):
        rs = run_suite(shape=SHAPE)
        doc = rs.to_dict()
        for rec in doc["results"]:
            rec["value"] *= 0.97  # everything "regresses" by ~3.1%
        base = tmp_path / "base.json"
        base.write_text(ResultSet.from_dict(doc).dumps())
        assert self.run("bench", "--shape", "2x2x2", "--compare", str(base),
                        "--threshold", "0.01") == 1
        capsys.readouterr()
        assert self.run("bench", "--shape", "2x2x2", "--compare", str(base),
                        "--threshold", "0.10") == 0


class TestAttributeCli:
    @pytest.mark.parametrize("hops", [0, 1, 3])
    def test_latency_attribution_matches_simulation(self, hops, capsys):
        rc = main(["attribute", "latency", "--hops", str(hops),
                   "--shape", "4x4x4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "attributed total - simulated end-to-end: 0.000 ns" in out
        assert "TOTAL (trace-derived)" in out

    def test_traced_experiment_reports_phases_and_hotspots(self, capsys):
        rc = main(["attribute", "congestion", "--shape", "2x2x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hotspot" in out.lower() or "wait ns" in out
