"""The hardened sweep harness: per-point timeouts that kill hung
workers, workers that die taking only their own point down, bounded
retry with backoff, corrupt-checkpoint tolerance on resume, and the
CLI's non-zero exit code on any failed grid point.

Uses the ``selftest`` experiment (a non-simulating point whose
``behavior`` extra can crash, hang, fail-once, or end its process) so
the harness is
exercised without paying for real simulations.
"""

import json
import logging
import os
from pathlib import Path

import pytest

from repro.runner.spec import ExperimentSpec, ensure_registered
from repro.runner.sweep import _load_point, run_sweep
from repro.trace.metrics import MetricsRegistry

ensure_registered()


def selftest(behavior="ok", **extras):
    return ExperimentSpec("selftest", shape=(4, 4, 4)).with_extras(
        behavior=behavior, **extras)


class TestGuardedScheduler:
    def test_crash_is_marked_not_raised(self):
        report = run_sweep([selftest("ok"), selftest("crash")], timeout_s=30)
        assert not report.ok
        assert report.points[0].ok
        assert "deliberate crash" in report.points[1].error

    def test_hang_is_killed_and_the_sweep_finishes(self):
        report = run_sweep(
            [selftest("ok"), selftest("hang", sleep_s=60.0)],
            jobs=2, timeout_s=1.0,
        )
        assert not report.ok
        assert report.points[0].ok
        assert "timeout" in report.points[1].error
        # One hanging point plus one crashing point, per the acceptance
        # criterion: both marked, neither takes the sweep down.
        mixed = run_sweep(
            [selftest("hang", sleep_s=60.0), selftest("crash"),
             selftest("ok")],
            jobs=2, timeout_s=1.0,
        )
        assert not mixed.ok
        assert len(mixed.failures) == 2
        assert mixed.points[2].ok

    def test_retries_recover_a_transient_failure(self, tmp_path):
        marker = str(tmp_path / "flaky.marker")
        registry = MetricsRegistry()
        report = run_sweep(
            [selftest("flaky", marker=marker)],
            retries=2, retry_backoff_s=0.01, registry=registry,
        )
        assert report.ok
        assert registry.counter("sweep.retries").value == 1
        assert registry.counter("sweep.failures").value == 0

    def test_retries_exhaust_and_the_point_fails(self):
        registry = MetricsRegistry()
        report = run_sweep(
            [selftest("crash")],
            retries=1, retry_backoff_s=0.01, registry=registry,
        )
        assert not report.ok
        assert registry.counter("sweep.retries").value == 1
        assert registry.counter("sweep.failures").value == 1

    def test_guarded_results_checkpoint_and_cache_normally(self, tmp_path):
        out = str(tmp_path / "sweep")
        specs = [selftest("ok")]
        report = run_sweep(specs, timeout_s=30, out_dir=out)
        assert report.ok
        assert os.path.exists(os.path.join(out, "points", "0000.json"))
        resumed = run_sweep(specs, out_dir=out, resume=True)
        assert resumed.resumed == 1

    @pytest.mark.parametrize("retries", [0, 1])
    def test_dying_worker_fails_only_its_own_point(self, retries):
        from repro.profile.telemetry import SweepTelemetry

        tel = SweepTelemetry(total=4)
        report = run_sweep(
            [selftest("ok"), selftest("exit"), selftest("ok", n=2),
             selftest("ok", n=3)],
            jobs=2, retries=retries, retry_backoff_s=0.01, telemetry=tel,
        )
        assert [p.ok for p in report.points] == [True, False, True, True]
        assert report.points[1].error == \
            "worker exited with code 3 before reporting"
        assert report.points[1].attempts == retries + 1
        # Every attempt ran in a process of its own, none the parent.
        pids = [e["pid"] for e in tel.events
                if e["kind"] == "started" and e["index"] == 1]
        assert len(set(pids)) == len(pids) == retries + 1
        assert os.getpid() not in pids

    def test_worker_dying_while_idle_costs_no_attempt(self):
        import signal
        import time

        killed = []

        def kill_first_worker(point):
            if not killed:
                killed.append(point.result.meta["pid"])
                os.kill(killed[0], signal.SIGKILL)
                time.sleep(0.2)  # let it die before the next dispatch

        report = run_sweep(
            [selftest("ok", n=i) for i in range(3)],
            timeout_s=30, progress=kill_first_worker,
        )
        assert report.ok
        assert [p.attempts for p in report.points] == [1, 1, 1]
        assert report.points[1].result.meta["pid"] != killed[0]

    def test_huge_timeout_is_clamped(self):
        report = run_sweep(
            [selftest("ok"), selftest("ok", n=2)], jobs=2, timeout_s=1e9,
        )
        assert report.ok

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="retries"):
            run_sweep([selftest("ok")], retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            run_sweep([selftest("ok")], timeout_s=0.0)


GRID = [
    ExperimentSpec("latency", shape=(2, 2, 2), hops=h) for h in (0, 1, 2)
]


class TestCorruptCheckpointResume:
    """Satellite: a corrupt or truncated checkpoint must be warned
    about and recomputed — never crash the resume."""

    def _corrupt(self, out, index, data):
        path = os.path.join(out, "points", f"{index:04d}.json")
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def test_truncated_checkpoint_recomputed_mid_sweep(self, tmp_path, caplog):
        out = str(tmp_path / "sweep")
        first = run_sweep(GRID, out_dir=out)
        assert first.ok
        # Simulate a crash mid-write: the checkpoint is cut in half.
        path = os.path.join(out, "points", "0001.json")
        raw = Path(path).read_bytes()
        self._corrupt(out, 1, raw[: len(raw) // 2])
        registry = MetricsRegistry()
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            report = run_sweep(GRID, out_dir=out, resume=True,
                               registry=registry)
        assert report.ok
        assert report.resumed == 2
        assert report.points[1].status == "computed"
        assert registry.counter("sweep.checkpoint_corrupt").value == 1
        assert any("recomputing" in r.message for r in caplog.records)
        # The recomputed value matches the original run.
        assert report.points[1].result.elapsed_ns == \
            first.points[1].result.elapsed_ns
        # And the checkpoint on disk is valid again.
        again, problem = _load_point(out, 1, GRID[1])
        assert problem is None and again is not None

    @pytest.mark.parametrize("garbage", [
        b"", b"not json at all", b"[1, 2, 3]", b'{"schema": "wrong"}',
    ])
    def test_garbage_checkpoints_never_raise(self, tmp_path, garbage):
        out = str(tmp_path / "sweep")
        run_sweep(GRID, out_dir=out)
        self._corrupt(out, 0, garbage)
        report = run_sweep(GRID, out_dir=out, resume=True)
        assert report.ok
        assert report.points[0].status == "computed"

    def test_load_point_reports_the_reason(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(GRID, out_dir=out)
        result, problem = _load_point(out, 0, GRID[0])
        assert result is not None and problem is None
        # Absent: silent (nothing to warn about).
        result, problem = _load_point(out, 7, GRID[0])
        assert result is None and problem is None
        # Tampered payload: hash mismatch, named as such.
        path = os.path.join(out, "points", "0000.json")
        doc = json.loads(Path(path).read_text())
        doc["payload"]["elapsed_ns"] = 1.0
        with open(path, "w") as fh:
            json.dump(doc, fh)
        result, problem = _load_point(out, 0, GRID[0])
        assert result is None and "hash mismatch" in problem


class TestExitCodes:
    """Satellite: ``python -m repro sweep`` must exit non-zero when any
    grid point errors, zero when all complete."""

    def test_all_ok_exits_zero(self, capsys):
        from repro.__main__ import main

        rc = main(["sweep", "selftest", "--grid", "behavior=ok",
                   "--no-cache"])
        capsys.readouterr()
        assert rc == 0

    def test_any_failure_exits_nonzero(self, capsys):
        from repro.__main__ import main

        rc = main(["sweep", "selftest", "--grid", "behavior=ok,crash",
                   "--no-cache"])
        capsys.readouterr()
        assert rc == 1

    def test_timeout_and_retry_flags_reach_the_harness(self, capsys):
        from repro.__main__ import main

        rc = main(["sweep", "selftest",
                   "--grid", "behavior=hang", "--grid", "sleep_s=60",
                   "--timeout", "1", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "timeout" in out
