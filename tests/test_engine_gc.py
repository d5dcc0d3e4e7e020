"""The run loop and the cyclic garbage collector.

:meth:`Simulator.run` pauses the collector while it runs.  That is only
sound because two things hold, and these tests pin both:

* no run loop makes cyclic garbage, so a paused collector misses
  nothing it could have freed (``TestRunLoopMakesNoCycle``);
* a machine is no reference cycle, so a machine an experiment drops is
  freed at once by reference counting, not at the next full collection
  (``TestDroppedMachineIsFreed``).

``TestCollectorState`` pins that ``run`` leaves the collector as it
found it, on every way out of the loop.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.asic.client import NetworkClient
from repro.asic.node import Machine, build_machine
from repro.asic.sync_counter import SyncCounter
from repro.engine.event import Event
from repro.engine.simulator import Simulator
from repro.runner import Captures, run_experiment
from tests.test_transport_golden import SPECS


@contextmanager
def saving_garbage() -> Iterator[None]:
    """Collector off and ``gc.DEBUG_SAVEALL`` set inside the block, so
    a ``gc.collect()`` there moves whatever cyclic garbage it finds to
    ``gc.garbage`` instead of freeing it.  Restores both on exit and
    empties ``gc.garbage``."""
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@contextmanager
def run_garbage() -> Iterator[list[int]]:
    """Wrap :meth:`Simulator.run` inside the block: each call collects
    on entry, runs with the collector off and ``gc.DEBUG_SAVEALL`` set,
    and collects again on exit.  Yields the list that receives, per
    call, the number of cyclic-garbage objects that call left."""
    counts: list[int] = []
    inner = Simulator.run

    def run(self, until=None):
        gc.collect()
        with saving_garbage():
            try:
                return inner(self, until)
            finally:
                gc.collect()
                counts.append(len(gc.garbage))

    Simulator.run = run
    try:
        yield counts
    finally:
        Simulator.run = inner


@contextmanager
def machines_built() -> Iterator[list[Machine]]:
    """Collect every :class:`Machine` constructed inside the block.

    Hooks the constructor rather than ``build_machine``, which some
    modules import at load time, out of reach of a patch."""
    built: list[Machine] = []
    init = Machine.__init__

    def recording_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        built.append(self)

    Machine.__init__ = recording_init
    try:
        yield built
    finally:
        Machine.__init__ = init


def garbage_of_dropped_machines(spec) -> int:
    """Run ``spec``, then drop every machine it built: the number of
    cyclic-garbage objects left behind.  Asserts that the drop freed
    each machine by reference counting alone."""
    with machines_built() as built:
        run_experiment(spec)
    assert built, f"{spec.name} built no machine"
    refs = [weakref.ref(m) for m in built]
    gc.collect()
    with saving_garbage():
        del built[:]
        alive = [r for r in refs if r() is not None]
        gc.collect()
        found = len(gc.garbage)
    assert not alive, f"{len(alive)} machine(s) outlived their last reference"
    return found


@pytest.fixture
def strong_client_network(monkeypatch):
    """Plant the reference cycle a machine used to be: each client
    keeps a strong reference to its network."""
    init = NetworkClient.__init__

    def strong_init(self, sim, network, *args, **kwargs) -> None:
        init(self, sim, network, *args, **kwargs)
        self.network = network

    monkeypatch.setattr(NetworkClient, "__init__", strong_init)


class TestRunLoopMakesNoCycle:
    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("captured", [False, True], ids=["bare", "captured"])
    def test_registered_spec(self, name, captured):
        captures = Captures(flight=True, profile=True) if captured else None
        with run_garbage() as counts:
            run_experiment(SPECS[name], captures)
        assert counts, f"{name} never entered Simulator.run"
        assert counts == [0] * len(counts)

    def test_mdstep_step_pair_on_one_machine(self):
        from repro.analysis.mdstep import build_dhfr_md

        md = build_dhfr_md((2, 2, 2), atoms=512)
        with run_garbage() as counts:
            md.run_step("range_limited")
            md.run_step("long_range")
        assert counts and counts == [0] * len(counts)

    def test_allreduce_ops_on_one_machine(self):
        from repro.comm.collectives import AllReduce

        machine = build_machine(Simulator(), 4, 4, 4)
        allreduce = AllReduce(machine, payload_bytes=32)
        with run_garbage() as counts:
            first = allreduce.run()
            second = allreduce.run()
        assert first.value == second.value
        assert counts == [0, 0]

    def test_catches_a_planted_cycle(self):
        """A continuation that holds its own counter, parked in that
        counter's slot for a target never reached, is cyclic garbage
        once the run ends."""
        sim = Simulator()

        def park(counter):
            counter.on_target(1, print, (counter,))

        sim.schedule(1.0, park, SyncCounter(sim, "never"))
        with run_garbage() as counts:
            sim.run()
        assert counts[0] > 0


class TestDroppedMachineIsFreed:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_registered_spec(self, name):
        assert garbage_of_dropped_machines(SPECS[name]) == 0

    def test_catches_a_strong_client_network(self, strong_client_network):
        assert garbage_of_dropped_machines(SPECS["latency"]) > 0

    def test_client_outliving_its_machine_raises(self):
        machine = build_machine(Simulator(), 2, 2, 2)
        slice0 = machine.node((0, 0, 0)).slice(0)
        del machine
        with pytest.raises(ReferenceError):
            slice0.network.torus


def _drained(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()


def _until_time(sim):
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)


def _until_event(sim):
    done = Event()
    sim.schedule(3.0, done.succeed)
    sim.run(until=done)


def _action_raises(sim):
    def boom():
        raise KeyError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(KeyError):
        sim.run()


def _nested_run(sim):
    inner = Simulator()
    inner.schedule(1.0, lambda: None)
    after_inner: list[bool] = []

    def nest():
        inner.run()
        after_inner.append(gc.isenabled())

    sim.schedule(1.0, nest)
    sim.run()
    assert inner.events_executed == 1
    assert after_inner == [False], "the nested run resumed the collector"


WAYS_OUT = {
    "drained": _drained,
    "until_time": _until_time,
    "until_event": _until_event,
    "action_raises": _action_raises,
    "nested_run": _nested_run,
}


class TestCollectorState:
    @pytest.mark.parametrize("way", sorted(WAYS_OUT))
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_run_restores_the_collector(self, way, enabled):
        seen: list[bool] = []
        sim = Simulator()
        sim.schedule(0.0, lambda: seen.append(gc.isenabled()))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            WAYS_OUT[way](sim)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled
        assert seen == [False], "the collector ran inside the loop"
