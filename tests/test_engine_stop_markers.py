"""An :class:`~repro.engine.event.Event` is only a run's stop marker.

Software waits in continuation slots, never on an event: a hold queued
behind a busy unit waits in the unit's queue, and an in-order packet
waits in its predecessor's delivery gate.  So a run builds an event
only where something may stop on it: a step's legs, a collective's or
a harness's run.  Constructions are counted through a patched
``Event.__init__``.
"""

from __future__ import annotations

import pytest

from repro.asic import build_machine
from repro.comm import MigrationProtocol
from repro.engine import Event, Simulator
from repro.runner import ExperimentSpec, run_experiment


@pytest.fixture
def events_built(monkeypatch) -> list[int]:
    """A one-item list counting the events built from now on."""
    built = [0]
    init = Event.__init__

    def counting(self, *args, **kwargs) -> None:
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting)
    return built


def test_mdstep_pair_builds_only_its_stop_markers(events_built):
    """Each step's legs end on one join, and the thermostat's
    all-reduce, run inside the long-range step, is one collective run:
    three events for the pair, none per hold or per packet."""
    run_experiment(ExperimentSpec("mdstep", shape=(2, 2, 2), rounds=2))
    assert events_built[0] == 3


@pytest.mark.parametrize("per_node", [1, 4])
def test_inorder_migration_builds_none_per_packet(events_built, per_node):
    """Every migration message and flush is an in-order packet; the
    exchange builds its run's one event, whatever it sends."""
    sim = Simulator()
    machine = build_machine(sim, 3, 3, 3)
    torus = machine.torus
    moves = {}
    for c in torus.nodes():
        neighbors = torus.moore_neighbors(c)
        moves[c] = [(neighbors[i % len(neighbors)], f"{c}-{i}")
                    for i in range(per_node)]
    events_built[0] = 0
    result = MigrationProtocol(machine).run(moves)
    assert result.messages_received == 27 * per_node
    assert events_built[0] == 1
