"""The append-only run ledger: chaining, robustness, and builders."""

from __future__ import annotations

import json
import logging

import pytest

from repro.bench.results import BenchResult, ResultSet
from repro.observatory.ledger import (
    GENESIS,
    Ledger,
    LedgerRecord,
    build_provenance,
    default_ledger_path,
    log_bench,
    log_profile,
    log_sweep,
    record_id,
)


def _metric(value=162.0, metric="one_way_1hop_ns", better="lower"):
    return BenchResult(
        benchmark="latency", metric=metric, value=value, units="ns",
        better=better, config={"hops": 1},
    ).to_dict()


class TestAppendAndRead:
    def test_roundtrip(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        rec = ledger.append("bench", "first", metrics=[_metric()])
        assert rec.seq == 0
        assert rec.prev == GENESIS
        assert rec.id == record_id(rec.body())
        (got,) = ledger.read()
        assert got.to_dict() == rec.to_dict()
        results = got.bench_results()
        assert len(results) == 1
        assert results[0].value == 162.0

    def test_chain_links_records(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        a = ledger.append("bench", "a")
        b = ledger.append("bench", "b")
        c = ledger.append("profile", "c")
        assert [r.seq for r in ledger.read()] == [0, 1, 2]
        assert b.prev == a.id
        assert c.prev == b.id
        assert ledger.verify() == []

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = Ledger(str(tmp_path / "absent.jsonl"))
        assert ledger.read() == []
        assert ledger.last() is None
        assert ledger.verify() == []

    def test_get_by_prefix(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        a = ledger.append("bench", "a")
        b = ledger.append("bench", "b")
        assert ledger.get(a.id).label == "a"
        # A prefix resolves as long as it is unambiguous.
        prefix = a.id[:6]
        if not b.id.startswith(prefix):
            assert ledger.get(prefix).id == a.id
        assert ledger.get("") is None
        assert ledger.get("zzzzzz") is None

    def test_append_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "led.jsonl"
        Ledger(str(path)).append("bench", "x")
        assert path.exists()


class TestTamperDetection:
    def test_edited_value_breaks_the_chain(self, tmp_path):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(str(path))
        ledger.append("bench", "a", metrics=[_metric(100.0)])
        ledger.append("bench", "b", metrics=[_metric(101.0)])
        text = path.read_text()
        path.write_text(text.replace("100.0", "900.0"))
        problems = ledger.verify()
        assert any("does not hash" in p for p in problems)

    def test_deleted_record_breaks_the_chain(self, tmp_path):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(str(path))
        for label in ("a", "b", "c"):
            ledger.append("bench", label)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + lines[2])  # drop the middle record
        problems = ledger.verify()
        assert any("chain broken" in p for p in problems)

    def test_intact_ledger_verifies_clean(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        for i in range(5):
            ledger.append("bench", f"r{i}", metrics=[_metric(100.0 + i)])
        assert ledger.verify() == []


class TestCorruptLineRobustness:
    """Satellite: truncated/garbage trailing line → warn, skip, keep
    appending (mirrors the corrupt-checkpoint recovery discipline)."""

    def test_garbage_line_is_skipped_on_read(self, tmp_path, caplog):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(str(path))
        a = ledger.append("bench", "a")
        with open(path, "a") as fh:
            fh.write("{not json at all\n")
        b = ledger.append("bench", "b")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            records = ledger.read()
        assert [r.id for r in records] == [a.id, b.id]
        assert len(ledger.skipped) == 1
        assert "skipping" in caplog.text

    def test_truncated_tail_recovered_on_append(self, tmp_path, caplog):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(str(path))
        a = ledger.append("bench", "a")
        ledger.append("bench", "b")
        # Simulate a writer that died mid-append: cut the last line.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            c = ledger.append("bench", "c")
        assert "truncated line" in caplog.text
        records = ledger.read()
        assert [r.label for r in records] == ["a", "c"]
        # The new record chains past the torn one, to the last valid.
        assert c.prev == a.id
        # And the file stays appendable: one more record, still clean.
        d = ledger.append("bench", "d")
        assert d.prev == c.id
        assert [r.label for r in ledger.read()] == ["a", "c", "d"]

    def test_json_but_not_a_record_is_skipped(self, tmp_path):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(str(path))
        a = ledger.append("bench", "a")
        with open(path, "a") as fh:
            fh.write(json.dumps({"schema": "something-else/9"}) + "\n")
            fh.write(json.dumps([1, 2, 3]) + "\n")
        assert [r.id for r in ledger.read()] == [a.id]
        assert len(ledger.skipped) == 2
        # verify() reports the unreadable lines, never hides them.
        assert sum("unreadable" in p for p in ledger.verify()) == 2

    def test_blank_lines_are_ignored_silently(self, tmp_path):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(str(path))
        a = ledger.append("bench", "a")
        with open(path, "a") as fh:
            fh.write("\n\n")
        b = ledger.append("bench", "b")
        assert [r.id for r in ledger.read()] == [a.id, b.id]
        assert ledger.skipped == []


class TestDefaultPath:
    def test_unset_env_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert default_ledger_path() == ".repro-ledger.jsonl"

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF",
                                       "disabled", " none "])
    def test_falsey_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_LEDGER", value)
        assert default_ledger_path() is None

    def test_env_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "mine.jsonl"))
        assert default_ledger_path() == str(tmp_path / "mine.jsonl")


class TestProvenance:
    def test_provenance_facts(self):
        doc = build_provenance(meta={"wall_time_s": 1.5,
                                     "events_per_second": 2e6,
                                     "peak_rss_bytes": 1024,
                                     "irrelevant": "dropped"})
        assert doc["hostname"]
        assert doc["cpu_model"]
        assert len(doc["source_fingerprint"]) == 12
        assert doc["wall_time_s"] == 1.5
        assert doc["events_per_second"] == 2e6
        assert doc["peak_rss_bytes"] == 1024
        assert "irrelevant" not in doc

    def test_record_schema_validation(self):
        with pytest.raises(ValueError, match="schema"):
            LedgerRecord.from_dict({"schema": "nope/1"})
        with pytest.raises(ValueError, match="missing"):
            LedgerRecord.from_dict({"schema": "repro-ledger/1"})


class TestBuilders:
    def test_log_bench_round_trips_results(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        results = ResultSet([BenchResult.from_dict(_metric())])
        rec = log_bench(ledger, results, label="bench 2x2x2")
        (got,) = ledger.read()
        assert got.kind == "bench"
        assert got.label == "bench 2x2x2"
        assert [r.to_dict() for r in got.bench_results()] == rec.metrics

    def test_log_profile_stores_wall_profile(self, tmp_path):
        from repro.runner.result import Captures, run_experiment
        from repro.runner.spec import ExperimentSpec

        ledger = Ledger(str(tmp_path / "led.jsonl"))
        result = run_experiment(
            ExperimentSpec("selftest", shape=(2, 2, 2), rounds=1),
            Captures(profile=True),
        )
        rec = log_profile(ledger, result)
        (got,) = ledger.read()
        wall = got.attachments["wall_profile"]
        assert wall["schema"] == "repro-profile-wall/1"
        assert wall["loop_wall_ns"] == result.profile.loop_wall_ns
        metrics = {r.metric: r for r in got.bench_results()}
        assert metrics["events_total"].value == result.profile.events_total
        assert metrics["events_per_second"].better == "higher"
        assert got.provenance["spec_hash"] == result.spec.spec_hash
        assert rec.id == got.id

    def test_log_profile_requires_a_profile(self, tmp_path):
        from repro.runner.result import run_experiment
        from repro.runner.spec import ExperimentSpec

        result = run_experiment(
            ExperimentSpec("selftest", shape=(2, 2, 2), rounds=1)
        )
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        with pytest.raises(ValueError, match="no profile"):
            log_profile(ledger, result)

    def test_log_sweep_stores_rows_and_summary(self, tmp_path):
        from repro.runner.sweep import expand_grid, run_sweep

        specs = expand_grid("latency", {"hops": [0, 1]},
                            {"shape": (2, 2, 2)})
        report = run_sweep(specs)
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        log_sweep(ledger, report, label="latency sweep")
        (got,) = ledger.read()
        assert got.kind == "sweep"
        assert len(got.bench_results()) == len(report.result_set())
        assert got.attachments["summary"]["points"] == 2

    def test_run_sweep_ledger_hook_appends(self, tmp_path):
        from repro.runner.sweep import expand_grid, run_sweep

        specs = expand_grid("latency", {"hops": [0]}, {"shape": (2, 2, 2)})
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        report = run_sweep(specs, ledger=ledger)
        assert report.ledger_record is not None
        assert ledger.read()[0].id == report.ledger_record.id

    def test_run_sweep_broken_ledger_never_fails_the_sweep(self, tmp_path):
        from repro.runner.sweep import expand_grid, run_sweep

        class BrokenLedger(Ledger):
            def append(self, *args, **kwargs):
                raise OSError("disk full")

        specs = expand_grid("latency", {"hops": [0]}, {"shape": (2, 2, 2)})
        ledger = BrokenLedger(str(tmp_path / "led.jsonl"))
        report = run_sweep(specs, ledger=ledger)
        assert report.ok
        assert report.ledger_record is None
