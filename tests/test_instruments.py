"""The instrument slot set (repro/instruments.py): scoping of every slot,
and when the machinery picks a slot up."""

import pytest

from repro import instruments
from repro.asic import build_machine
from repro.engine import Simulator
from repro.faults import FaultPlan, FaultSession, use_faults
from repro.monitor import use_monitoring
from repro.profile import use_profiling
from repro.runner.result import Measurement, Outcome, run_experiment
from repro.runner.spec import _REGISTRY, ExperimentSpec, register_experiment
from repro.trace.flight import FlightRecorder, use_flight
from repro.trace.metrics import MetricsRegistry, use_registry
from tests.conftest import run_exchange

#: Slot -> a fresh context manager that fills it and yields its value:
#: the documented ``use_*`` wrapper where one exists.
FILL = {
    "registry": lambda: use_registry(MetricsRegistry()),
    "flight": lambda: use_flight(FlightRecorder()),
    "faults": lambda: use_faults(FaultSession(FaultPlan())),
    "monitor": lambda: use_monitoring(),
    "profiler": lambda: use_profiling(),
    "sims": lambda: instruments.use(sims=[]),
}


def test_every_slot_has_a_filler():
    assert set(FILL) == set(instruments.Slots._fields)


@pytest.mark.parametrize("slot", sorted(FILL))
def test_slot_scoping(slot):
    def value():
        return getattr(instruments.current(), slot)

    others = {name: object() for name in FILL if name != slot}
    assert instruments.current() == instruments.Slots()
    with instruments.use(**others):
        with FILL[slot]() as outer:
            assert outer is not None and value() is outer
            with FILL[slot]() as inner:
                assert inner is not outer and value() is inner
                # An inner block inherits every slot it does not name.
                for name, other in others.items():
                    assert getattr(instruments.current(), name) is other
            assert value() is outer
            with pytest.raises(RuntimeError, match="boom"):
                with FILL[slot]():
                    raise RuntimeError("boom")
            assert value() is outer
        assert value() is None
        for name, other in others.items():
            assert getattr(instruments.current(), name) is other
    assert instruments.current() == instruments.Slots()


def test_unknown_slot_is_rejected():
    with pytest.raises(ValueError):
        with instruments.use(tracer=object()):
            pass  # pragma: no cover
    assert instruments.current() == instruments.Slots()


_BUILT: list = []


@pytest.fixture
def inner_flight_experiment():
    """An experiment whose simulator is built inside its own
    ``use_flight`` block."""

    @register_experiment("_inner_flight_test")
    def _inner_flight(spec):
        with use_flight(FlightRecorder()):
            sim = Simulator()
            machine = build_machine(sim, 2, 2, 2)
        _BUILT.append(sim)
        run_exchange(sim, machine.node((0, 0, 0)).slice(0),
                     machine.node((1, 1, 1)).slice(0))
        return Outcome("inner flight", sim.now, (Measurement("t_ns", sim.now),))

    _BUILT.clear()
    try:
        yield ExperimentSpec("_inner_flight_test")
    finally:
        _REGISTRY.pop("_inner_flight_test")
        _BUILT.clear()


def test_run_counts_and_outer_profiler_sees_a_sim_built_in_an_inner_block(
    inner_flight_experiment,
):
    with use_profiling() as profiler:
        result = run_experiment(inner_flight_experiment)
    [sim] = _BUILT
    assert sim.events_executed > 0
    assert result.meta["events_executed"] == sim.events_executed
    assert profiler.sims == [sim]
    assert profiler.events_total == sim.events_executed


def test_a_sim_built_before_use_profiling_is_profiled_only_if_attached():
    def tick(sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()

    before, attached = Simulator(), Simulator()
    with use_profiling() as profiler:
        profiler.attach(attached)
        inside = Simulator()
        for sim in (before, attached, inside):
            tick(sim)
    assert before._profiler is None
    assert attached._profiler is profiler and inside._profiler is profiler
    assert profiler.events_total == 10
    profiler.detach_all()
    assert attached._profiler is None and inside._profiler is None
