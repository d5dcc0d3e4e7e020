"""Tests that the generator-process machinery stays removed.

The engine has one execution model: an event's action is a plain
function and its args tuple, and simulated software (the Anton legs
and slice programs, the commodity-cluster node programs) is written as
continuations (:mod:`repro.asic.slice_`).  ``Process``, the waitables
only a process could yield (``Timeout``, ``AllOf``) and the exception
only a process could catch (``Interrupt``) are gone, with the
simulator's factories for them and the module that held ``Process``.

An :class:`~repro.engine.event.Event` is only the stop marker of a run:
nothing attaches a callback to it, so its callback list, the
simulator's dispatch of it and its factory are gone, and so are the
resource's event-returning request and the hold that waited on one.

Every single-server unit is a booking slot, as a link direction is: a
hold books its unit and schedules its own continuation at its end.  So
the unit's waiter queue, its acquire and release, the start and end
events of a hold, and the module-level hold that made them are gone;
the busy time is read from the derived ``busy_ns``.  With booked
holds the commodity cluster keeps no event only for same-instant
order: the zero-delay first step of every node program and the event
that started a message's flight are gone.
"""

import importlib

import pytest

import repro.asic.slice_
import repro.baselines.cluster
import repro.engine
import repro.engine.event
from repro.baselines.cluster import ClusterNetwork
from repro.engine import Event, Resource, Simulator


class TestProcessMachineryIsGone:
    @pytest.mark.parametrize("name", ["Process", "AllOf", "Timeout", "Interrupt"])
    def test_engine_exports_no_process_names(self, name):
        assert name not in repro.engine.__all__
        assert not hasattr(repro.engine, name)
        assert not hasattr(repro.engine.event, name)

    @pytest.mark.parametrize("name", ["process", "timeout", "all_of"])
    def test_simulator_has_no_process_factory(self, name):
        assert not hasattr(Simulator, name)

    def test_process_module_does_not_import(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.engine.process")


class TestEventCallbacksAreGone:
    @pytest.mark.parametrize("owner, name", [
        (Event, "add_callback"),
        (Event, "callbacks"),
        (Simulator, "_dispatch"),
        (Simulator, "event"),
        (Resource, "request"),
        (repro.asic.slice_, "_QueuedHold"),
    ])
    def test_name_is_gone(self, owner, name):
        assert not hasattr(owner, name)


class TestUnitQueueIsGone:
    @pytest.mark.parametrize("owner, name", [
        (repro.asic.slice_, "_start_hold"),
        (repro.asic.slice_, "_end_hold"),
        (repro.asic.slice_, "hold"),
        (Resource, "try_acquire"),
        (Resource, "wait"),
        (Resource, "release"),
        (Resource, "_waiters"),
        (Resource, "total_busy_ns"),
        (repro.baselines.cluster, "START"),
        (ClusterNetwork, "_fly"),
    ])
    def test_name_is_gone(self, owner, name):
        assert not hasattr(owner, name)
