"""The MD step runs as legs: one execution model for the model.

Every phase of a step (positions, bonded forces, the HTIS, the FFT,
integration and the thermostat) steps per-node legs on counter, hold
and send continuations, so neither a step pair nor the bond phase run
alone for the Fig. 11 harness builds an engine process or a waitable
combinator.  The constructors are counted through a patched
``__init__``.
"""

from __future__ import annotations

import pytest

import repro.engine.event as event_mod
from repro.analysis.mdstep import build_dhfr_md
from repro.engine.process import Process


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


def test_counting_sees_a_process(constructed, sim):
    """The patch counts what it is meant to count."""
    def idle():
        yield sim.timeout(1.0)

    sim.run(until=sim.all_of([sim.process(idle())]))
    assert constructed == {"Process": 1, "AllOf": 1}
