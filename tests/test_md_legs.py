"""The Anton side runs on continuations: one execution model.

Every phase of a step (positions, bonded forces, the HTIS, the FFT,
integration and the thermostat) steps per-node legs on counter, hold
and send continuations, so neither a step pair nor the bond phase run
alone for the Fig. 11 harness builds an engine process or a waitable
combinator.  Nor do the measurement harnesses: the ping-pong
(``latency``, ``fig5``), the incast (``congestion``,
``fault_sensitivity``), the Fig. 7 transfer, the attribution write and
a counted gather run as :class:`~repro.asic.slice_.Steps` programs.
The constructors are counted through a patched ``__init__``.
"""

from __future__ import annotations

import pytest

import repro.engine.event as event_mod
from repro.analysis.mdstep import build_dhfr_md
from repro.engine.process import Process
from repro.runner import run_experiment
from tests.test_transport_golden import SPECS


@pytest.fixture
def constructed(monkeypatch) -> dict[str, int]:
    """Counts of ``Process``, ``AllOf`` and (where the engine still has
    it) ``AnyOf`` objects constructed while the test runs."""
    counts: dict[str, int] = {}
    classes = [Process, event_mod.AllOf, getattr(event_mod, "AnyOf", None)]
    for cls in filter(None, classes):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_step_pair_builds_no_process(constructed):
    md = build_dhfr_md((2, 2, 2), atoms=512)
    reports = [md.run_step("range_limited"), md.run_step("long_range")]
    assert all(r.total_ns > 0 for r in reports)
    assert constructed == {}


def test_bond_phase_only_builds_no_process(constructed):
    md = build_dhfr_md((2, 2, 2), atoms=512)
    assert md.run_bond_phase_only() > 0
    assert constructed == {}


@pytest.mark.parametrize(
    "name", ["latency", "fig5", "congestion", "fault_sensitivity"])
def test_harness_spec_builds_no_process(constructed, name):
    assert run_experiment(SPECS[name]).elapsed_ns > 0
    assert constructed == {}


def test_transfer_builds_no_process(constructed):
    from repro.analysis.transfer import anton_transfer_ns

    assert anton_transfer_ns(2048, 8, hops=1, shape=(4, 4, 4)) > 0
    assert constructed == {}


def test_attribution_builds_no_process(constructed):
    from repro.analysis.attribution import measure_attribution

    assert measure_attribution(hops=1, shape=(4, 4, 4)).elapsed_ns == 162.0
    assert constructed == {}


def test_counted_gather_round_builds_no_process(constructed, sim, machine222):
    from repro.asic.slice_ import Join
    from repro.comm import CountedGather, GatherSource

    target = machine222.node((0, 0, 0)).slice(0)
    a = machine222.node((1, 0, 0)).slice(0)
    g = CountedGather(target, "g", [GatherSource(a.node, a.name, 2)])
    join = Join(sim, 2)
    g.send_from(a, ["x", "y"], join.ended, payload_bytes=8)
    g.wait(target, join.ended)
    assert sim.run(until=join.done) > 0
    assert g.gathered() == ["x", "y"]
    assert constructed == {}


def test_counting_sees_a_process(constructed, sim):
    """The patch counts what it is meant to count."""
    def idle():
        yield sim.timeout(1.0)

    sim.run(until=sim.all_of([sim.process(idle())]))
    assert constructed == {"Process": 1, "AllOf": 1}
