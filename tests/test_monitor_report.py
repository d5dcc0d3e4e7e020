"""Tests for the health-report renderers (monitor/report.py): the
self-contained HTML report and the Prometheus text exposition."""

from html.parser import HTMLParser

import pytest

from tests.conftest import run_exchange

from repro.monitor.health import HealthMonitor
from repro.monitor.report import render_html_report, render_prometheus
from repro.trace.metrics import MetricsRegistry

#: Elements that never take a closing tag.
_VOID = {"meta", "br", "hr", "img", "input", "link", "col", "wbr"}


class _StrictParser(HTMLParser):
    """Flags unbalanced tags — enough to catch malformed markup."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if not self.stack:
            self.errors.append(f"closing </{tag}> with empty stack")
        elif self.stack[-1] != tag:
            self.errors.append(
                f"closing </{tag}> but <{self.stack[-1]}> is open")
        else:
            self.stack.pop()


@pytest.fixture
def monitored_run(sim, machine222):
    """A small monitored exchange with a registry feeding percentiles."""
    registry = MetricsRegistry(histogram_max_samples=64)
    h = registry.histogram("net.packet_latency_ns", help="end-to-end")
    monitor = HealthMonitor(sim, machine222, interval_ns=10.0)
    run_exchange(sim, machine222.node(0).slice(0), machine222.node(1).slice(0))
    for i in range(100):
        h.observe(162.0 + (i * 13 % 97))
    verdict = monitor.finalize()
    return verdict, monitor, registry


class TestHtmlReport:
    def test_well_formed_and_sections_present(self, monitored_run):
        verdict, monitor, registry = monitored_run
        doc = render_html_report(verdict, monitor.sampler, (2, 2, 2),
                                 registry=registry, experiment="exchange")
        parser = _StrictParser()
        parser.feed(doc)
        parser.close()
        assert parser.errors == []
        assert parser.stack == []
        # The report's advertised sections all render.
        assert "HEALTHY" in doc
        assert "Link utilization" in doc
        assert "heatmap" in doc
        assert "streaming sketch vs exact" in doc
        assert "packet_conservation" in doc
        assert "exchange" in doc

    def test_self_contained(self, monitored_run):
        verdict, monitor, registry = monitored_run
        doc = render_html_report(verdict, monitor.sampler, (2, 2, 2),
                                 registry=registry)
        # No external assets: archivable as a single CI artifact.
        for needle in ("http://", "https://", "src=", "@import"):
            assert needle not in doc
        assert "<svg" in doc          # charts are inline SVG
        assert "<style>" in doc       # CSS is inline

    def test_status_never_color_alone(self, monitored_run):
        verdict, monitor, _ = monitored_run
        doc = render_html_report(verdict, monitor.sampler, (2, 2, 2))
        # Each check row carries an icon + text label, not just color.
        assert doc.count("pass") >= len(verdict.checks)

    def test_unhealthy_banner(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=10.0)
        machine222.network.packets_injected += 1  # stranded packet
        verdict = monitor.finalize()
        doc = render_html_report(verdict, monitor.sampler, (2, 2, 2))
        assert "UNHEALTHY" in doc
        assert "fail" in doc

    def test_renders_without_registry(self, sim, machine222):
        verdict = HealthMonitor(sim, machine222).finalize()
        doc = render_html_report(verdict, HealthMonitor(
            sim, machine222).sampler, (2, 2, 2))
        assert "<html" in doc


class TestPrometheus:
    def test_exposition_format(self, monitored_run):
        verdict, monitor, registry = monitored_run
        text = render_prometheus(verdict, monitor.sampler, registry=registry)
        lines = text.splitlines()
        helps = [l for l in lines if l.startswith("# HELP ")]
        types = [l for l in lines if l.startswith("# TYPE ")]
        assert helps and len(helps) == len(types)
        # Every metric family wears the repro_ prefix.
        for line in helps:
            assert line.split()[2].startswith("repro_")

    def test_core_gauges(self, monitored_run):
        verdict, monitor, registry = monitored_run
        text = render_prometheus(verdict, monitor.sampler, registry=registry)
        assert "repro_healthy 1" in text
        assert "repro_sim_time_ns" in text
        assert 'repro_health_check_status{check="packet_conservation"} 0' in text
        # One labelled last-value sample per series, links included.
        assert 'repro_monitor_series_last{series="link.n000.x+.busy_ns"}' in text

    def test_registry_summary_quantiles(self, monitored_run):
        verdict, monitor, registry = monitored_run
        text = render_prometheus(verdict, monitor.sampler, registry=registry)
        assert "# TYPE repro_net_packet_latency_ns summary" in text
        assert 'quantile="0.99"' in text
        assert "repro_net_packet_latency_ns_count 100" in text

    def test_unhealthy_run(self, sim, machine222):
        monitor = HealthMonitor(sim, machine222, interval_ns=10.0)
        machine222.network.packets_injected += 1
        verdict = monitor.finalize()
        text = render_prometheus(verdict, monitor.sampler)
        assert "repro_healthy 0" in text
        assert 'repro_health_check_status{check="packet_conservation"} 2' in text
