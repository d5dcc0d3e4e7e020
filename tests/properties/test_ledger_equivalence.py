"""Property tests for the observatory's non-interference guarantee.

The ledger is observability only: enabling it may create the JSONL
sidecar file, but every result artifact a run produces — sweep ``results.json``,
per-point checkpoints, a results file logged with ``obs log`` — must be
*byte-identical* to the same run with the ledger disabled.  A measurement layer that
perturbs measurements is worse than none.
"""

import os

from repro.__main__ import main
from repro.observatory.ledger import Ledger
from repro.runner.sweep import expand_grid, run_sweep

GRID = expand_grid(
    "latency",
    {"shape": [(2, 2, 2), (3, 3, 3)], "hops": [0, 1]},
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestSweepByteIdentity:
    def test_results_identical_with_and_without_ledger(self, tmp_path):
        bare = str(tmp_path / "bare")
        logged = str(tmp_path / "logged")
        ledger = Ledger(str(tmp_path / "led.jsonl"))
        a = run_sweep(GRID, jobs=1, out_dir=bare)
        b = run_sweep(GRID, jobs=1, out_dir=logged, ledger=ledger)
        assert a.ok and b.ok
        assert b.ledger_record is not None  # the ledger did get written
        assert _read(os.path.join(bare, "results.json")) == \
            _read(os.path.join(logged, "results.json"))

    def test_per_point_checkpoints_identical_too(self, tmp_path):
        bare = str(tmp_path / "bare")
        logged = str(tmp_path / "logged")
        run_sweep(GRID, jobs=1, out_dir=bare)
        run_sweep(GRID, jobs=1, out_dir=logged,
                  ledger=Ledger(str(tmp_path / "led.jsonl")))
        names = sorted(os.listdir(os.path.join(bare, "points")))
        assert names == sorted(os.listdir(os.path.join(logged, "points")))
        for name in names:
            assert _read(os.path.join(bare, "points", name)) == \
                _read(os.path.join(logged, "points", name))

    def test_cli_sweep_identical_across_ledger_modes(self, tmp_path, capsys):
        off = str(tmp_path / "off")
        on = str(tmp_path / "on")
        rc_off = main([
            "sweep", "latency", "--shape", "2x2x2",
            "--grid", "hops=0,1", "--no-cache", "--out", off,
            "--no-ledger",
        ])
        rc_on = main([
            "sweep", "latency", "--shape", "2x2x2",
            "--grid", "hops=0,1", "--no-cache", "--out", on,
            "--ledger", str(tmp_path / "led.jsonl"),
        ])
        capsys.readouterr()
        assert rc_off == rc_on == 0
        assert _read(os.path.join(off, "results.json")) == \
            _read(os.path.join(on, "results.json"))
        assert len(Ledger(str(tmp_path / "led.jsonl")).read()) == 1


class TestBenchByteIdentity:
    def test_cli_bench_out_identical_across_ledger_modes(
        self, tmp_path, capsys
    ):
        # ``obs log --results FILE`` reads a repro-bench/1 artifact and
        # never rewrites it: its bytes are the same logged or not.
        out = str(tmp_path / "sweep")
        assert run_sweep(GRID, jobs=1, out_dir=out).ok
        artifact = os.path.join(out, "results.json")
        unlogged = _read(artifact)
        rc = main([
            "obs", "log", "--results", artifact,
            "--ledger", str(tmp_path / "led.jsonl"),
        ])
        capsys.readouterr()
        assert rc == 0
        assert _read(artifact) == unlogged
        (record,) = Ledger(str(tmp_path / "led.jsonl")).read()
        assert record.kind == "bench"
        # The ledger mirrors exactly the rows the artifact holds.
        from repro.bench.results import ResultSet

        assert sorted(r.key for r in record.bench_results()) == \
            sorted(ResultSet.read(artifact).keys())
