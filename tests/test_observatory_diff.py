"""Differential profiling: alignment, exact tiling, rendering, CLI."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.observatory.diff import (
    RESIDUAL_LABEL,
    diff_profiles,
    render_diff,
)
from repro.profile.export import (
    load_wall_profile,
    to_speedscope,
    wall_profile_from_speedscope,
    write_profile,
)
from repro.profile.profiler import IDLE_PHASE_LABEL


def _profiled_selftest(rounds):
    from repro.runner.result import Captures, run_experiment
    from repro.runner.spec import ExperimentSpec

    spec = ExperimentSpec("selftest", shape=(2, 2, 2), rounds=rounds)
    return run_experiment(spec, Captures(profile=True))


def _wall(cells: dict, loop_wall_ns=None) -> dict:
    """A repro-profile-wall/1 dict from {(phase,comp,label): (ev, ns)}.

    Without an explicit ``loop_wall_ns`` the cells tile the loop
    exactly, like a native EngineProfiler capture.
    """
    phases: dict = {}
    total = 0
    for (phase, comp, label), (events, wall_ns) in cells.items():
        node = phases.setdefault(phase, {}).setdefault(comp, {})
        node[label] = {"events": events, "wall_ns": wall_ns}
        total += wall_ns
    return {
        "schema": "repro-profile-wall/1",
        "loop_wall_ns": total if loop_wall_ns is None else loop_wall_ns,
        "event_wall_ns": total,
        "scheduler_overhead_ns": 0,
        "events_total": sum(ev for ev, _ in cells.values()),
        "events_per_second": 0.0,
        "component_totals_ns": {},
        "phases": phases,
    }


class TestAlignment:
    def test_union_of_keys_nothing_dropped(self):
        base = _wall({
            ("round 0", "router", "hop"): (10, 1000),
            ("round 0", "router", "inject"): (5, 500),
        })
        cur = _wall({
            ("round 0", "router", "hop"): (12, 1500),
            ("round 0", "counter", "fire"): (3, 300),
        })
        diff = diff_profiles(base, cur)
        keys = {r.key for r in diff.rows}
        # One-sided rows survive as pure growth / pure disappearance.
        assert ("round 0", "router", "inject") in keys
        assert ("round 0", "counter", "fire") in keys
        by_key = {r.key: r for r in diff.rows}
        gone = by_key[("round 0", "router", "inject")]
        assert gone.delta_wall_ns == -500
        assert gone.cur_events == 0
        new = by_key[("round 0", "counter", "fire")]
        assert new.delta_wall_ns == 300
        assert new.base_events == 0

    def test_native_captures_have_zero_residual(self):
        a = _profiled_selftest(1)
        b = _profiled_selftest(2)
        diff = diff_profiles(a.profile.wall_profile(),
                             b.profile.wall_profile())
        assert diff.residual_ns == 0
        assert diff.tiles_exactly()

    def test_sorted_rows_by_magnitude(self):
        base = _wall({("p", "a", "x"): (1, 100), ("p", "a", "y"): (1, 100)})
        cur = _wall({("p", "a", "x"): (1, 5000), ("p", "a", "y"): (1, 90)})
        rows = diff_profiles(base, cur).sorted_rows()
        assert [r.label for r in rows] == ["x", "y"]

    def test_to_doc_is_json_clean(self):
        base = _wall({("p", "a", "x"): (1, 100)})
        cur = _wall({("p", "a", "x"): (2, 250)})
        doc = diff_profiles(base, cur, "then", "now").to_doc()
        assert doc["schema"] == "repro-profile-diff/1"
        assert doc["base"] == "then"
        assert doc["delta_loop_wall_ns"] == 150
        json.dumps(doc)  # must serialize


# Cells drawn from tiny alphabets so the two sides overlap, disjoin,
# and collide in every combination hypothesis can reach.
_CELLS = st.dictionaries(
    keys=st.tuples(
        st.sampled_from(["(run)", "round 0", "round 1"]),
        st.sampled_from(["router", "counter", "engine"]),
        st.sampled_from(["hop", "inject", "fire", "poll"]),
    ),
    values=st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=10**9),
    ),
    max_size=12,
)
_LOOP = st.integers(min_value=0, max_value=10**10)


class TestTilingProperty:
    @settings(max_examples=100, deadline=None)
    @given(base=_CELLS, cur=_CELLS, base_loop=_LOOP, cur_loop=_LOOP)
    def test_rows_plus_residual_tile_total_delta(
        self, base, cur, base_loop, cur_loop
    ):
        """Acceptance: for ANY pair of captures — including lossy ones
        whose cells do not tile their own loop time — the delta rows
        plus the explicit residual equal the total wall delta."""
        diff = diff_profiles(
            _wall(base, loop_wall_ns=base_loop),
            _wall(cur, loop_wall_ns=cur_loop),
        )
        assert diff.tiles_exactly()
        assert (
            diff.attributed_delta_ns + diff.residual_ns
            == cur_loop - base_loop
        )
        # Per-row deltas are exactly the per-cell differences.
        for row in diff.rows:
            b = base.get(row.key, (0, 0))
            c = cur.get(row.key, (0, 0))
            assert row.delta_wall_ns == c[1] - b[1]
            assert row.delta_events == c[0] - b[0]
        # Row set is exactly the union of cell keys.
        assert {r.key for r in diff.rows} == set(base) | set(cur)

    @settings(max_examples=50, deadline=None)
    @given(base=_CELLS, cur=_CELLS)
    def test_native_shaped_captures_never_leave_residual(self, base, cur):
        diff = diff_profiles(_wall(base), _wall(cur))
        assert diff.residual_ns == 0


class TestSpeedscopeRoundtrip:
    def test_reconstruction_preserves_wall_cells(self):
        result = _profiled_selftest(1)
        native = result.profile.wall_profile()
        rebuilt = wall_profile_from_speedscope(
            to_speedscope(result.profile)
        )
        assert rebuilt["loop_wall_ns"] == native["loop_wall_ns"]
        # Diffing a capture against its own reconstruction: wall deltas
        # are zero everywhere (speedscope drops zero-weight cells and
        # event counts, never nanoseconds).
        diff = diff_profiles(native, rebuilt)
        assert diff.delta_loop_wall_ns == 0
        assert all(r.delta_wall_ns == 0 for r in diff.rows)
        assert diff.tiles_exactly()

    def test_two_frame_stacks_return_to_idle_phase(self):
        doc = {
            "shared": {"frames": [{"name": "engine"}, {"name": "tick"}]},
            "profiles": [{
                "type": "sampled", "unit": "nanoseconds",
                "startValue": 0, "endValue": 700,
                "samples": [[0, 1]], "weights": [700],
            }],
        }
        rebuilt = wall_profile_from_speedscope(doc)
        node = rebuilt["phases"][IDLE_PHASE_LABEL]["engine"]["tick"]
        assert node["wall_ns"] == 700
        assert rebuilt["loop_wall_ns"] == 700

    @pytest.mark.parametrize("fmt", ["speedscope", "json"])
    def test_load_wall_profile_all_formats(self, tmp_path, fmt):
        result = _profiled_selftest(1)
        path = tmp_path / f"prof.{fmt}"
        with open(path, "w") as fh:
            write_profile(result.profile, fh, fmt=fmt)
        wall = load_wall_profile(str(path))
        assert wall["schema"] == "repro-profile-wall/1"
        assert wall["loop_wall_ns"] == result.profile.loop_wall_ns

    def test_load_raw_wall_document(self, tmp_path):
        doc = _wall({("p", "a", "x"): (1, 100)})
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(doc))
        assert load_wall_profile(str(path)) == doc

    def test_load_rejects_unknown_document(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="not a recognizable"):
            load_wall_profile(str(path))


class TestRender:
    def test_residual_row_is_displayed_never_dropped(self):
        base = _wall({("p", "a", "x"): (1, 100_000)}, loop_wall_ns=1_000_000)
        cur = _wall({("p", "a", "x"): (1, 200_000)}, loop_wall_ns=5_000_000)
        diff = diff_profiles(base, cur)
        assert diff.residual_ns == 3_900_000
        text = render_diff(diff)
        assert RESIDUAL_LABEL in text
        assert "+3.900" in text

    def test_overflow_rows_aggregate_into_other(self):
        cells = {("p", "a", f"ev{i}"): (1, 100 * (i + 1)) for i in range(20)}
        diff = diff_profiles(_wall({}), _wall(cells))
        text = render_diff(diff, top=5)
        assert "(other: 15 rows)" in text

    def test_header_names_both_sides(self):
        diff = diff_profiles(_wall({}), _wall({}), "abc123 (bench)",
                             "selftest (this run)")
        text = render_diff(diff)
        assert "abc123 (bench) -> selftest (this run)" in text


class TestCli:
    def _write_wall(self, path, cells, loop=None):
        path.write_text(json.dumps(_wall(cells, loop_wall_ns=loop)))
        return str(path)

    def test_obs_diff_json(self, tmp_path, capsys):
        a = self._write_wall(tmp_path / "a.json",
                             {("p", "router", "hop"): (10, 1000)})
        b = self._write_wall(tmp_path / "b.json",
                             {("p", "router", "hop"): (15, 1800)})
        rc = main(["obs", "diff", a, b, "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == "repro-profile-diff/1"
        assert doc["delta_loop_wall_ns"] == 800

    def test_obs_diff_max_residual_gate(self, tmp_path, capsys):
        # Loop-wall delta the rows cannot explain → residual 3.9 ms;
        # the gate passes a loose budget and exits 1 on a tight one.
        a = self._write_wall(tmp_path / "a.json",
                             {("p", "a", "x"): (1, 100_000)},
                             loop=1_000_000)
        b = self._write_wall(tmp_path / "b.json",
                             {("p", "a", "x"): (1, 200_000)},
                             loop=5_000_000)
        assert main(["obs", "diff", a, b,
                     "--max-residual", "4000000"]) == 0
        capsys.readouterr()
        rc = main(["obs", "diff", a, b, "--max-residual", "1000"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "RESIDUAL GATE FAILED" in captured.err
        assert "3900000" in captured.err

    def test_obs_diff_text(self, tmp_path, capsys):
        a = self._write_wall(tmp_path / "a.json",
                             {("p", "router", "hop"): (10, 1000)})
        b = self._write_wall(tmp_path / "b.json",
                             {("p", "router", "hop"): (15, 1800)})
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 0
        assert "profile diff:" in out
        assert "router" in out

    def test_obs_diff_ledger_ids(self, tmp_path, capsys):
        ledger_path = str(tmp_path / "led.jsonl")
        assert main(["profile", "selftest", "--shape", "2x2x2",
                     "--ledger", ledger_path]) == 0
        assert main(["profile", "selftest", "--shape", "2x2x2",
                     "--ledger", ledger_path]) == 0
        from repro.observatory.ledger import Ledger

        ids = [r.id for r in Ledger(ledger_path).read()]
        assert len(ids) == 2
        capsys.readouterr()
        rc = main(["obs", "diff", ids[0], ids[1],
                   "--ledger", ledger_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "profile diff:" in out
        # Native captures on both sides: the footer reports no residual.
        assert "residual +0.000 ms" in out

    def test_obs_diff_unknown_id_fails_cleanly(self, tmp_path, capsys):
        ledger_path = str(tmp_path / "led.jsonl")
        rc = main(["obs", "diff", "deadbeef0000", "deadbeef0001",
                   "--ledger", ledger_path])
        err = capsys.readouterr().err
        assert rc == 2
        assert "deadbeef0000" in err

    def test_profile_diff_flag_end_to_end(self, tmp_path, capsys):
        ledger_path = str(tmp_path / "led.jsonl")
        assert main(["profile", "selftest", "--shape", "2x2x2",
                     "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        # Satellite: the capture's ledger id is printed on completion.
        assert "ledger: appended record" in out
        from repro.observatory.ledger import Ledger

        (rec,) = Ledger(ledger_path).read()
        assert rec.id in out
        rc = main(["profile", "selftest", "--shape", "2x2x2",
                   "--ledger", ledger_path, "--diff", rec.id])
        out = capsys.readouterr().out
        assert rc == 0
        assert "profile diff:" in out
        assert "(this run)" in out
