"""The engine self-profiler: classification, tiling, phases, capture."""

import json

import pytest

from repro.asic import build_machine
from repro.comm.collectives import AllReduce
from repro.engine import Simulator
from repro.profile import (
    EngineProfiler,
    peak_rss_bytes,
    use_profiling,
)
from repro.runner.result import Captures, run_experiment
from repro.runner.spec import ExperimentSpec, ensure_registered
from tests.conftest import run_exchange

ensure_registered()


def _profiled_exchange():
    sim = Simulator()
    profiler = EngineProfiler().attach(sim)
    machine = build_machine(sim, 2, 2, 2)
    run_exchange(
        sim,
        machine.node((0, 0, 0)).slice(0),
        machine.node((1, 0, 0)).slice(0),
        payload_bytes=32,
    )
    return sim, profiler


def test_events_accounted_match_simulator_count():
    sim, profiler = _profiled_exchange()
    assert profiler.events_total == sim.events_executed
    assert profiler.events_total > 0


def test_wall_times_tile_the_loop_exactly():
    """The acceptance invariant: component totals sum to the measured
    run-loop wall time, to the nanosecond."""
    _, profiler = _profiled_exchange()
    totals = profiler.component_totals()
    assert sum(w for _, w in totals.values()) == profiler.loop_wall_ns
    assert profiler.loop_wall_ns > 0
    assert (
        profiler.scheduler_overhead_ns
        == profiler.loop_wall_ns - profiler.event_wall_ns
    )


def test_components_classified_by_owning_package():
    _, profiler = _profiled_exchange()
    components = {cell.component for cell in profiler.cells()}
    # A counted write exercises at least the network layer; the
    # sender/receiver generators live in the test module itself.
    assert "network" in components


def test_count_profile_is_deterministic():
    a = _profiled_exchange()[1].count_profile()
    b = _profiled_exchange()[1].count_profile()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["events_total"] > 0
    assert a["schema"] == "repro-profile-counts/1"


def test_phase_attribution_nests_and_restores():
    profiler = EngineProfiler()
    cell = profiler._named_cell("engine", "x")
    profiler.account(cell, 1)
    with profiler.phase("outer"):
        profiler.account(cell, 2)
        with profiler.phase("inner"):
            profiler.account(cell, 4)
        profiler.account(cell, 8)
    profiler.account(cell, 16)
    assert cell.by_phase[""] == [2, 17]
    assert cell.by_phase["outer"] == [2, 10]
    assert cell.by_phase["inner"] == [1, 4]
    assert profiler.phases() == ["", "inner", "outer"]


def test_allreduce_events_land_in_the_allreduce_phase():
    with use_profiling() as profiler:
        sim = Simulator()  # built inside the scope, so it is profiled
        machine = build_machine(sim, 2, 2, 2)
        AllReduce(machine, payload_bytes=0).run()
    counts = profiler.count_profile()
    assert "allreduce" in counts["phases"]
    in_phase = sum(
        n
        for comps in counts["phases"]["allreduce"].values()
        for n in comps.values()
    )
    assert in_phase > 0


def test_use_profiling_is_ambient_and_scoped():
    with use_profiling() as profiler:
        sim = Simulator()
        assert sim._profiler is profiler
    assert profiler.sims == [sim]
    # Simulators built after the block are unprofiled.
    assert Simulator()._profiler is None


def test_set_profiler_returns_previous():
    sim = Simulator()
    a, b = EngineProfiler(), EngineProfiler()
    assert sim.set_profiler(a) is None
    assert sim.set_profiler(b) is a
    assert sim.set_profiler(None) is b


def test_run_experiment_profile_capture():
    spec = ExperimentSpec("latency", shape=(3, 3, 3), rounds=1, hops=1)
    result = run_experiment(spec, Captures(profile=True))
    assert result.profile is not None
    assert result.profile.events_total > 0
    # The profile never leaks into the serializable core.
    assert "profile" not in result.to_dict()


def test_unprofiled_run_has_no_profile():
    spec = ExperimentSpec("latency", shape=(3, 3, 3), rounds=1, hops=1)
    assert run_experiment(spec).profile is None


def test_run_result_meta_execution_facts():
    spec = ExperimentSpec("latency", shape=(3, 3, 3), rounds=1, hops=1)
    result = run_experiment(spec)
    meta = result.meta
    assert meta["events_executed"] > 0
    assert meta["wall_time_s"] > 0
    assert meta["events_per_second"] > 0
    assert meta["peak_rss_bytes"] > 0
    # Wall-clock facts are host-dependent and must stay out of the
    # byte-stable serialized core (cache + checkpoint identity).
    assert set(meta) & set(result.to_dict()) == set()


def test_events_per_second_excludes_time_outside_run_loop():
    """A slow build must not dilute the run loop's event rate."""
    import time

    from repro.runner.result import Measurement, Outcome
    from repro.runner.spec import _REGISTRY, register_experiment

    @register_experiment("_slow_build_test")
    def _slow_build(spec):
        time.sleep(0.2)  # stands in for machine build and MD numerics
        sim = Simulator()
        for i in range(2000):
            sim.schedule(float(i), lambda: None)
        sim.run()
        return Outcome("slow build", sim.now, (Measurement("t_ns", sim.now),))

    try:
        meta = run_experiment(ExperimentSpec("_slow_build_test")).meta
    finally:
        _REGISTRY.pop("_slow_build_test")
    assert meta["events_executed"] == 2000
    assert 0 < meta["loop_wall_s"] < meta["wall_time_s"] - 0.2
    assert meta["events_per_second"] == pytest.approx(
        meta["events_executed"] / meta["loop_wall_s"]
    )
    assert meta["events_per_second"] >= (
        meta["events_executed"] / meta["wall_time_s"]
    )


def test_peak_rss_bytes_is_plausible():
    rss = peak_rss_bytes()
    # A running CPython interpreter needs at least a few MB.
    assert rss > 4 * 1024 * 1024


def test_named_cells_deduplicate():
    profiler = EngineProfiler()
    a = profiler._named_cell("engine", "Timeout")
    b = profiler._named_cell("engine", "Timeout")
    assert a is b
    assert len(profiler.cells()) == 1


@pytest.mark.parametrize("experiment", ["mdstep", "table3_critical_path"])
def test_md_experiments_profile_with_step_phases(experiment):
    spec = ExperimentSpec(experiment, shape=(2, 2, 2), rounds=2)
    result = run_experiment(spec, Captures(profile=True))
    phases = set(result.profile.count_profile()["phases"])
    assert "step:range_limited" in phases
    assert "step:long_range" in phases


#: Event counts per (component, label) of profiled 2x2x2 runs, in the
#: ``(run)`` or ``allreduce`` phase.  No run here builds a process: the
#: ping-pong and incast programs and the all-reduce legs take every
#: step in the event ending a Tensilica hold (``_end_hold``) or inside
#: a network delivery, and an all-reduce leg starts in one event of its
#: own.  The network cells do not depend on who sent.  A link schedules
#: no event: a hop that finds its link free is granted inside
#: ``_next_hop`` or ``_visit``, and only a queued hop's grant is an
#: event (``_granted``, 17 in the incast).
PROFILED_COUNTS_222 = {
    "latency": {
        "asic": {"_end_hold": 128},
        "network": {"_UcastTransit._arrive": 64,
                    "_UcastTransit._next_hop": 160},
    },
    "congestion": {
        "asic": {"_end_hold": 15},
        "network": {"_UcastTransit._arrive": 14,
                    "_UcastTransit._granted": 17,
                    "_UcastTransit._next_hop": 38},
    },
    "allreduce": {
        "asic": {"_end_hold": 152},
        "comm": {"_Leg.start": 8},
        "network": {"_McastTransit._finish_local": 24,
                    "_McastTransit._visit": 48,
                    "_UcastTransit._arrive": 40,
                    "_UcastTransit._next_hop": 40},
    },
}


@pytest.mark.parametrize("experiment", sorted(PROFILED_COUNTS_222))
def test_profiled_cells_are_exact(experiment):
    result = run_experiment(
        ExperimentSpec(experiment, shape=(2, 2, 2)), Captures(profile=True)
    )
    counts = result.profile.count_profile()
    assert list(counts["phases"].values()) == [
        PROFILED_COUNTS_222[experiment]]
    assert counts["events_total"] == sum(
        n for labels in PROFILED_COUNTS_222[experiment].values()
        for n in labels.values())
