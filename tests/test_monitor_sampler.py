"""Unit tests for the ring-buffer series and time-series sampler."""

import pytest

from repro.monitor.sampler import TimeSeriesSampler
from repro.monitor.series import RingSeries


class TestRingSeries:
    def test_append_and_order(self):
        s = RingSeries("s", capacity=4)
        for i in range(3):
            s.append(float(i), float(i * 10))
        assert len(s) == 3
        assert s.samples() == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]
        assert s.values() == [0.0, 10.0, 20.0]
        assert s.dropped == 0

    def test_overwrite_oldest_counts_dropped(self):
        s = RingSeries("s", capacity=3)
        for i in range(5):
            s.append(float(i), float(i))
        assert len(s) == 3
        assert s.dropped == 2
        assert s.total_seen == 5
        # Only the most recent capacity samples survive, in time order.
        assert s.samples() == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]

    def test_last(self):
        s = RingSeries("s", capacity=2)
        with pytest.raises(ValueError, match="empty"):
            s.last
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        s.append(3.0, 30.0)  # wraps
        assert s.last == (3.0, 30.0)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            RingSeries("s", capacity=0)


class TestTimeSeriesSampler:
    def test_fast_probes_sample_every_tick(self):
        sampler = TimeSeriesSampler(interval_ns=10.0, capacity=16)
        calls = []
        sampler.probe("a", lambda: calls.append("a") or 1.0)
        for t in range(5):
            sampler.sample(float(t))
        assert len(calls) == 5
        assert len(sampler.series["a"]) == 5

    def test_slow_probes_decimated(self):
        sampler = TimeSeriesSampler(interval_ns=10.0, capacity=16)
        sampler.probe("fast", lambda: 1.0)
        sampler.probe("slow", lambda: 2.0, slow=True)
        for t in range(9):
            sampler.sample(float(t))
        assert len(sampler.series["fast"]) == 9
        # Slow cadence: ticks 0, 4, 8.
        assert [t for t, _ in sampler.series["slow"].samples()] == [0.0, 4.0, 8.0]

    def test_duplicate_probe_rejected(self):
        sampler = TimeSeriesSampler()
        sampler.probe("x", lambda: 0.0)
        with pytest.raises(ValueError, match="already registered"):
            sampler.probe("x", lambda: 0.0)

    def test_dropped_samples_aggregated(self):
        sampler = TimeSeriesSampler(interval_ns=1.0, capacity=2)
        sampler.probe("a", lambda: 0.0)
        sampler.probe("b", lambda: 0.0)
        for t in range(5):
            sampler.sample(float(t))
        assert sampler.dropped_samples == 6  # 3 dropped per series
        assert sampler.samples_recorded == 4  # 2 retained per series

    def test_iteration_sorted_by_name(self):
        sampler = TimeSeriesSampler()
        for name in ("zeta", "alpha", "mid"):
            sampler.probe(name, lambda: 0.0)
        assert [s.name for s in sampler] == ["alpha", "mid", "zeta"]
        assert len(sampler) == 3

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="interval_ns"):
            TimeSeriesSampler(interval_ns=0.0)
