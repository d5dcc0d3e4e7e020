"""Live sweep telemetry: the aggregator and its sweep integration."""

import os

import pytest

from repro.profile.telemetry import (
    STATUS_SCHEMA,
    SweepTelemetry,
    make_event,
    read_status,
)
from repro.runner.spec import ExperimentSpec, ensure_registered
from repro.runner.sweep import run_sweep
from repro.trace.metrics import MetricsRegistry

ensure_registered()


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _latency_specs(n=3, shape=(3, 3, 3)):
    # Vary payload, not hops: hops > 3 is unreachable on a 3x3x3 torus.
    return [
        ExperimentSpec("latency", shape=shape, rounds=1, hops=1, payload=32 * i)
        for i in range(n)
    ]


class TestMakeEvent:
    def test_stamps_pid_and_kind(self):
        ev = make_event("started", 3, spec="x")
        assert ev["pid"] == os.getpid()
        assert ev["kind"] == "started" and ev["index"] == 3

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown telemetry event"):
            make_event("exploded", 0)


class TestAggregator:
    def test_lifecycle_counts_and_inflight(self):
        tel = SweepTelemetry(total=2, clock=FakeClock())
        tel.record(make_event("cache_miss", 0))
        tel.record(make_event("started", 0, pid=11, spec="a"))
        assert [e["pid"] for e in tel.events if e["kind"] == "started"] == [11]
        assert 11 in tel.inflight
        tel.record(make_event(
            "finished", 0, pid=11, wall_s=2.0,
            events_per_second=1000.0, peak_rss_bytes=5,
        ))
        assert tel.inflight == {}
        assert tel.done == 1 and tel.ok == 1
        assert tel.events_per_second == 1000.0
        assert tel.peak_rss_bytes == 5

    def test_failed_event_clears_inflight_despite_parent_pid(self):
        """Failure events come from the parent, whose pid never matches
        the worker that announced ``started``."""
        tel = SweepTelemetry(total=1, clock=FakeClock())
        tel.record(make_event("started", 0, pid=42))
        tel.record(make_event("failed", 0, pid=os.getpid(), error="boom"))
        assert tel.inflight == {}
        assert tel.done == 1 and tel.ok == 0

    def test_cache_hit_rate(self):
        tel = SweepTelemetry(total=4, clock=FakeClock())
        assert tel.cache_hit_rate == 0.0
        tel.record(make_event("cache_hit", 0))
        tel.record(make_event("cache_hit", 1))
        tel.record(make_event("cache_miss", 2))
        tel.record(make_event("cache_miss", 3))
        assert tel.cache_hit_rate == 0.5

    def test_eta_from_settlement_rate(self):
        clock = FakeClock()
        tel = SweepTelemetry(total=4, clock=clock)
        assert tel.eta_s is None  # nothing settled yet
        clock.t = 10.0
        tel.record(make_event("finished", 0, wall_s=10.0))
        assert tel.eta_s == pytest.approx(30.0)  # 3 left at 1 per 10 s
        clock.t = 20.0
        tel.record(make_event("finished", 1, wall_s=10.0))
        assert tel.eta_s == pytest.approx(20.0)

    def test_progress_line_reports_state(self):
        clock = FakeClock()
        tel = SweepTelemetry(total=3, clock=clock)
        tel.record(make_event("started", 0, pid=9))
        clock.t = 5.0
        tel.record(make_event("finished", 0, pid=9))
        line = tel.progress_line()
        assert "[1/3]" in line and "ok=1" in line and "eta=" in line
        tel.record(make_event("cache_hit", 1))
        tel.record(make_event("finished", 2))
        assert "done" in tel.progress_line()

    def test_gauges_track_the_stream(self):
        registry = MetricsRegistry()
        tel = SweepTelemetry(total=2, registry=registry, clock=FakeClock())
        tel.record(make_event("started", 0, pid=5))
        tel.record(make_event("finished", 0, pid=5, peak_rss_bytes=7))
        snap = registry.snapshot()
        assert snap["sweep.done"]["value"] == 1
        assert snap["sweep.total"]["value"] == 2
        assert snap["sweep.workers"]["value"] == 1
        assert snap["sweep.peak_rss_bytes"]["value"] == 7

    def test_on_event_observer(self):
        tel = SweepTelemetry(total=1, clock=FakeClock())
        seen = []
        tel.on_event = seen.append
        ev = make_event("started", 0)
        tel.record(ev)
        assert seen == [ev]

    def test_record_rejects_unknown_kind(self):
        tel = SweepTelemetry(total=1, clock=FakeClock())
        with pytest.raises(ValueError, match="unknown telemetry event"):
            tel.record({"kind": "mystery", "index": 0})

    def test_summary_lines(self):
        tel = SweepTelemetry(total=2, clock=FakeClock())
        tel.record(make_event("cache_hit", 0))
        tel.record(make_event("cache_miss", 1))
        tel.record(make_event("started", 1, pid=3))
        tel.record(make_event(
            "finished", 1, pid=3, peak_rss_bytes=2048,
            events_per_second=500.0,
        ))
        text = "\n".join(tel.summary_lines())
        assert "2 grid points: 2 ok" in text
        assert "1/2 hits (50%)" in text
        assert "2.0 KiB" in text
        assert "500 events/s" in text

    def test_html_section_is_a_fragment(self):
        tel = SweepTelemetry(total=1, clock=FakeClock())
        tel.record(make_event("finished", 0))
        frag = tel.html_section()
        assert "<h2>Sweep telemetry</h2>" in frag
        assert "cache hit-rate" in frag
        assert "<html" not in frag


class TestStatusFile:
    def test_status_doc_and_read_back(self, tmp_path):
        clock = FakeClock()
        tel = SweepTelemetry(
            total=2, out_dir=str(tmp_path), clock=clock,
            status_interval_s=0.0,
        )
        tel.record(make_event("started", 0, pid=7, spec="s0"))
        clock.t = 1.5
        doc = read_status(str(tmp_path))
        assert doc is not None and doc["schema"] == STATUS_SCHEMA
        assert doc["total"] == 2
        assert doc["inflight"][0]["pid"] == 7
        tel.record(make_event("finished", 0, pid=7))
        tel.finalize()
        doc = read_status(str(tmp_path))
        assert doc["done"] == 1 and doc["inflight"] == []

    def test_writes_are_throttled(self, tmp_path):
        clock = FakeClock()
        tel = SweepTelemetry(
            total=10, out_dir=str(tmp_path), clock=clock,
            status_interval_s=5.0,
        )
        for i in range(5):
            tel.record(make_event("cache_hit", i))
        assert tel.status_writes == 1  # only the first got through
        clock.t = 6.0
        tel.record(make_event("cache_hit", 5))
        assert tel.status_writes == 2
        tel.finalize()  # final flush ignores the throttle
        assert tel.status_writes == 3

    def test_read_status_absent_and_corrupt(self, tmp_path):
        assert read_status(str(tmp_path)) is None
        (tmp_path / "status.json").write_text("{truncated")
        assert read_status(str(tmp_path)) is None

    def test_no_dir_means_no_writes(self):
        tel = SweepTelemetry(total=1, clock=FakeClock())
        tel.record(make_event("finished", 0))
        assert tel.write_status() is None
        assert tel.status_writes == 0


class TestSweepIntegration:
    def test_serial_sweep_emits_full_stream(self, tmp_path):
        tel = SweepTelemetry(total=3, out_dir=str(tmp_path))
        report = run_sweep(_latency_specs(3), jobs=1, telemetry=tel)
        assert report.ok
        kinds = [e["kind"] for e in tel.events]
        assert kinds.count("started") == 3
        assert kinds.count("finished") == 3
        finished = [e for e in tel.events if e["kind"] == "finished"]
        assert all(e["events_per_second"] > 0 for e in finished)
        assert all(e["peak_rss_bytes"] > 0 for e in finished)
        doc = read_status(str(tmp_path))
        assert doc["done"] == 3 and doc["ok"] == 3

    def test_parallel_sweep_streams_live_worker_events(self):
        """The acceptance scenario: a 2-job sweep with live progress
        events coming from the worker processes themselves."""
        tel = SweepTelemetry(total=4)
        report = run_sweep(_latency_specs(4), jobs=2, telemetry=tel)
        assert report.ok
        started = [e for e in tel.events if e["kind"] == "started"]
        finished = [e for e in tel.events if e["kind"] == "finished"]
        assert len(started) == 4 and len(finished) == 4
        parent = os.getpid()
        assert all(e["pid"] != parent for e in started)
        assert all(e["pid"] != parent for e in finished)
        assert tel.done == 4 and tel.inflight == {}

    def test_guarded_sweep_has_distinct_worker_pids(self):
        """Two points on two jobs start on two workers at once: the
        started events carry two different worker pids, neither of them
        the parent's."""
        tel = SweepTelemetry(total=2)
        report = run_sweep(
            _latency_specs(2), jobs=2, retries=1, telemetry=tel,
        )
        assert report.ok
        pids = {e["pid"] for e in tel.events if e["kind"] == "started"}
        assert len(pids) == 2
        assert os.getpid() not in pids
        assert all(p.attempts == 1 for p in report.points)

    def test_cache_hits_reported_with_final_hit_rate(self, tmp_path):
        from repro.runner.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        specs = _latency_specs(2)
        run_sweep(specs, jobs=1, cache=cache)  # warm
        tel = SweepTelemetry(total=2)
        report = run_sweep(specs, jobs=1, cache=cache, telemetry=tel)
        assert report.ok and report.cache_hits == 2
        assert tel.counts["cache_hit"] == 2
        assert tel.cache_hit_rate == 1.0
        assert report.cache_hit_rate == 1.0
        assert any("100%" in line for line in tel.summary_lines())

    def test_retry_and_timeout_events(self, tmp_path):
        crash = ExperimentSpec("selftest", shape=(2, 2, 2)).with_extras(
            behavior="crash"
        )
        tel = SweepTelemetry(total=1)
        report = run_sweep([crash], jobs=1, retries=1, telemetry=tel)
        assert not report.ok
        kinds = [e["kind"] for e in tel.events]
        assert kinds.count("retried") == 1
        assert kinds.count("failed") == 1
        assert report.points[0].attempts == 2

        hang = ExperimentSpec("selftest", shape=(2, 2, 2)).with_extras(
            behavior="hang", sleep_s=30.0
        )
        tel2 = SweepTelemetry(total=1)
        report2 = run_sweep([hang], jobs=1, timeout_s=0.5, telemetry=tel2)
        assert not report2.ok
        assert tel2.counts["timed_out"] == 1
        assert tel2.counts["started"] == 1

    def test_sweep_summary_doc_gains_telemetry_fields(self):
        report = run_sweep(_latency_specs(2), jobs=1)
        doc = report.summary_doc()
        assert doc["retried"] == 0
        assert doc["cache_hit_rate"] == 0.0
        assert doc["wall_s"] >= 0
