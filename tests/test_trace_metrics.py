"""Unit tests for the metrics registry (trace/metrics.py)."""

import pytest

from repro import instruments
from repro.trace.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    use_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter("c")
        with pytest.raises(ValueError, match="monotonic"):
            c.inc(-1)
        assert c.value == 0

    def test_snapshot(self):
        c = Counter("c")
        c.inc(3)
        assert c.snapshot() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(12)
        assert g.value == 3

    def test_watermarks(self):
        g = Gauge("g")
        for v in (3, 8, -2, 5):
            g.set(v)
        assert g.high_watermark == 8
        assert g.low_watermark == -2

    def test_snapshot_includes_watermarks_after_first_set(self):
        g = Gauge("g")
        assert "high_watermark" not in g.snapshot()
        g.set(1)
        snap = g.snapshot()
        assert snap["high_watermark"] == 1
        assert snap["low_watermark"] == 1


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("h")
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 60.0
        assert h.mean == 20.0

    def test_percentiles_on_known_distribution(self):
        h = Histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.p50 == 50.0
        assert h.p90 == 90.0
        assert h.p99 == 99.0
        assert h.min == 1.0
        assert h.max == 100.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentiles_ordered(self):
        h = Histogram("h")
        for v in (5.0, 1.0, 9.0, 2.0, 7.0):
            h.observe(v)
        assert h.min <= h.p50 <= h.p90 <= h.p99 <= h.max

    def test_empty_histogram_has_no_percentiles(self):
        h = Histogram("h")
        with pytest.raises(ValueError, match="no observations"):
            h.p50
        assert h.snapshot() == {"type": "histogram", "count": 0}

    def test_percentile_out_of_range(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(101)

    def test_observations_after_a_query_are_included(self):
        h = Histogram("h")
        h.observe(1.0)
        assert h.p99 == 1.0
        h.observe(100.0)
        assert h.p99 == 100.0  # sorted cache invalidated


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_name_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="counter"):
            reg.gauge("a")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.gauge("a")
        assert reg.names() == ["a", "z"]
        assert "a" in reg and "missing" not in reg

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(7.0)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 2
        assert snap["h"]["p50"] == 7.0

    def test_summary_renders_all_metrics(self):
        reg = MetricsRegistry()
        reg.counter("net.packets").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat_ns").observe(162.0)
        text = reg.summary()
        assert "net.packets" in text
        assert "depth" in text
        assert "lat_ns" in text
        assert "p99" in text

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.clear()
        assert len(reg) == 0


class TestAmbientRegistry:
    """The comm call sites read the registry slot on every call, so an
    all-reduce reports into whichever registry is in force when it
    runs."""

    def test_default_is_none(self):
        assert instruments.current().registry is None

    @staticmethod
    def runs(reg):
        name = "comm.allreduce.runs"
        return reg.get(name).value if name in reg else 0

    def test_use_registry_installs_and_restores(self, machine222):
        from repro.comm.collectives import AllReduce

        ar = AllReduce(machine222, payload_bytes=0)
        reg, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(reg) as r:
            assert r is reg
            ar.run()
            with use_registry(inner):
                ar.run()
            ar.run()
        ar.run()
        assert (self.runs(reg), self.runs(inner)) == (2, 1)

    def test_restored_after_exception(self, machine222):
        from repro.comm.collectives import AllReduce

        ar = AllReduce(machine222, payload_bytes=0)
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(reg):
                raise RuntimeError("boom")
        ar.run()
        assert self.runs(reg) == 0
