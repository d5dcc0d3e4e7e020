"""Unit tests for the invariant watchdogs, diagnostic log, and the
HealthMonitor wiring (monitor/watchdog.py + monitor/health.py)."""

import json

import pytest

from tests.conftest import run_exchange

from repro.engine.simulator import Simulator
from repro.asic.node import build_machine
from repro.monitor.health import (
    HealthMonitor,
    active_monitor_session,
    use_monitoring,
)
from repro.monitor.watchdog import DiagnosticLog

#: The invariant checks every verdict must carry.
EXPECTED_CHECKS = {
    "packet_conservation",
    "sync_counter_consistency",
    "fifo_depth_bounds",
    "stall_detector",
    "queue_growth",
    "telemetry_loss",
}


class TestDiagnosticLog:
    def test_emit_and_jsonl_round_trip(self):
        log = DiagnosticLog()
        log.emit(100.0, "warning", "fifo_depth_bounds", "backpressure",
                 fifo="(0, 0, 0):slice0")
        log.emit(200.0, "error", "stall_detector", "no progress")
        assert len(log) == 2
        assert log.counts == {"info": 0, "warning": 1, "error": 1}
        assert log.worst_level == "error"
        records = [json.loads(line) for line in log.jsonl_lines()]
        assert records[0] == {
            "t_ns": 100.0, "level": "warning", "check": "fifo_depth_bounds",
            "msg": "backpressure", "fifo": "(0, 0, 0):slice0",
        }
        assert records[1]["t_ns"] == 200.0

    def test_write_jsonl(self, tmp_path):
        log = DiagnosticLog()
        log.emit(1.0, "info", "c", "m")
        path = tmp_path / "diag.jsonl"
        log.write_jsonl(str(path))
        assert json.loads(path.read_text().strip())["check"] == "c"

    def test_bounded_with_dropped_counter(self):
        log = DiagnosticLog(capacity=2)
        for i in range(5):
            log.emit(float(i), "error", "c", f"m{i}")
        assert len(log) == 2
        assert log.dropped == 3
        # Per-level counts include dropped records: severity is never
        # under-reported by the bound.
        assert log.counts["error"] == 5

    def test_bad_level_rejected(self):
        log = DiagnosticLog()
        with pytest.raises(ValueError, match="level"):
            log.emit(0.0, "fatal", "c", "m")


class TestHealthMonitor:
    def test_healthy_exchange(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=10.0)
        node0 = machine222.node(0)
        node1 = machine222.node(1)
        run_exchange(sim, node0.slice(0), node1.slice(0))
        verdict = monitor.finalize()
        assert verdict.healthy
        assert {c.name for c in verdict.checks} == EXPECTED_CHECKS
        assert all(c.status == "ok" for c in verdict.checks)
        assert verdict.packets_injected > 0
        assert verdict.packets_in_flight == 0
        assert verdict.samples_recorded > 0
        # Per-link series exist for every direction of the 2x2x2 torus.
        link_series = [s for s in monitor.sampler
                       if s.name.startswith("link.")]
        assert len(link_series) == 8 * 6 * 2  # busy_ns + queue each

    def test_finalize_detaches_and_is_idempotent(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=10.0)
        assert sim._monitor_hook is not None
        v1 = monitor.finalize()
        assert sim._monitor_hook is None
        v2 = monitor.finalize()
        assert v1.checks == v2.checks

    def test_conservation_violation_detected(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=1.0)
        # Corrupt the books: more completions than injections.
        machine222.network.packets_completed += 1
        sim.schedule(5.0, lambda: None)
        sim.run()
        verdict = monitor.verdict()
        check = verdict.check("packet_conservation")
        assert check.status == "error"
        assert "exceed" in check.detail
        assert not verdict.healthy
        assert monitor.log.counts["error"] == 1

    def test_missing_delivery_detected_at_finalize(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=10.0)
        # A packet that claims to be in flight at quiescence.
        machine222.network.packets_injected += 1
        verdict = monitor.finalize()
        assert verdict.check("packet_conservation").status == "error"
        assert "in flight" in verdict.check("packet_conservation").detail

    def test_stall_detected(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=5.0, stall_ns=40.0)
        # One phantom in-flight packet plus a ticking event loop that
        # makes no network progress: livelock.
        machine222.network.packets_injected += 1
        for t in range(1, 40):
            sim.schedule(t * 5.0, lambda: None)
        sim.run()
        check = monitor.verdict().check("stall_detector")
        assert check.status == "error"
        assert "no network progress" in check.detail
        # One diagnostic per stall episode, not one per tick.
        assert monitor.log.counts["error"] == 1

    def test_stranded_counter_waiter_detected(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=10.0)
        s = machine222.node(0).slice(0)

        def waiter():
            yield s.counter("never").wait_for(5)

        sim.process(waiter())
        sim.run()
        verdict = monitor.finalize()
        check = verdict.check("sync_counter_consistency")
        assert check.status == "error"
        assert "waiters" in check.detail
        assert not verdict.healthy

    def test_ring_overflow_surfaced_as_warning(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=1.0,
                                series_capacity=2)
        for t in range(1, 10):
            sim.schedule(float(t), lambda: None)
        sim.run()
        verdict = monitor.finalize()
        assert verdict.dropped_samples > 0
        assert verdict.check("telemetry_loss").status == "warning"
        assert verdict.healthy

    def test_verdict_render_text(self, sim, machine222):
        verdict = HealthMonitor(sim, machine222).finalize()
        text = verdict.render_text()
        assert "HEALTHY" in text
        for name in EXPECTED_CHECKS:
            assert name in text


class TestMonitorSession:
    def test_ambient_attachment(self):
        assert active_monitor_session() is None
        with use_monitoring(interval_ns=10.0) as session:
            assert active_monitor_session() is session
            sim = Simulator()
            machine = build_machine(sim, 2, 2, 2)
            assert len(session.monitors) == 1
            assert session.monitor.machine is machine
        assert active_monitor_session() is None

    def test_machines_outside_session_unmonitored(self):
        sim = Simulator()
        build_machine(sim, 2, 2, 2)
        assert sim._monitor_hook is None

    def test_multiple_machines_and_finalize(self):
        with use_monitoring(interval_ns=10.0) as session:
            for _ in range(2):
                build_machine(Simulator(), 2, 2, 2)
        verdicts = session.finalize()
        assert len(verdicts) == 2
        assert all(v.healthy for v in verdicts)
        with pytest.raises(ValueError, match="expected exactly 1"):
            session.monitor

    def test_sessions_nest(self):
        with use_monitoring() as outer:
            with use_monitoring() as inner:
                build_machine(Simulator(), 2, 2, 2)
                assert len(inner.monitors) == 1
            assert active_monitor_session() is outer
            assert not outer.monitors
