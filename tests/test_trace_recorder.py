"""Regression tests for the zero-window utilization guards on
TorusLink / Resource."""

import pytest

from repro.engine import Simulator
from repro.engine.resource import Resource
from repro.network.link import LinkId, TorusLink


@pytest.fixture
def sim():
    return Simulator()


class TestUtilizationGuards:
    def test_link_utilization_zero_window(self, sim):
        link = TorusLink(sim, LinkId((0, 0, 0), "x", +1), (1, 0, 0))
        assert link.utilization(0.0) == 0.0
        assert link.utilization(-1.0) == 0.0
        # Implicit window at simulated time 0 is also zero-length.
        assert link.utilization() == 0.0
        # A channel booked from time 0 still reports a zero window as 0.
        assert link.book(10.0, 32) == 0.0
        assert link.utilization() == 0.0
        assert link.utilization(0.0) == 0.0
        assert link.utilization(5.0) == 0.0  # nothing streamed by now

    def test_resource_utilization_zero_window(self, sim):
        res = Resource(sim, name="r")
        assert res.utilization(0.0) == 0.0
        assert res.utilization() == 0.0

    def test_nonzero_window_still_measures(self, sim):
        res = Resource(sim, name="r")
        res.hold(25.0, lambda: None, ())
        sim.run()
        sim.schedule(75.0, lambda: None)
        sim.run()
        assert res.utilization() == pytest.approx(0.25)

    def test_peak_queue_length_counts_waiters(self, sim):
        res = Resource(sim, name="r")
        assert res.peak_queue_length == 0
        for _ in range(3):
            res.hold(10.0, lambda: None, ())
        sim.run()
        assert res.peak_queue_length == 2  # two behind the holder
