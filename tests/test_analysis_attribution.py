"""Trace-derived latency attribution (analysis/attribution.py).

The regression anchor for the observability stack: the breakdown
derived purely from recorded spans must land on the paper's Fig. 6
calibration constants, and its total must equal the simulated
end-to-end latency *exactly* — any drift means the analyzer and the
transport disagree about where time went.
"""

import pytest

from repro.__main__ import main
from repro.analysis.attribution import (
    Attribution,
    Component,
    PathSegment,
    attribute_flight,
    measure_attribution,
    render_attribution,
)
from repro.constants import (
    DST_RING_NS,
    HEADER_BYTES,
    LINK_ADAPTER_NS,
    POLL_SUCCESS_NS,
    SLICE_SEND_NS,
    SRC_RING_NS,
    THROUGH_RING_NS,
    TORUS_LINK_EFFECTIVE_GBPS,
    WIRE_NS,
    ZERO_HOP_NS,
)

#: Satellite acceptance tolerance: trace-derived categories must match
#: the calibration constants to within one nanosecond.
TOL_NS = 1.0


class TestFig6Regression:
    def test_zero_hop_breakdown(self):
        m = measure_attribution(hops=0, shape=(4, 4, 4))
        t = m.attribution.totals
        assert t[Component.SOFTWARE_SEND] == pytest.approx(SLICE_SEND_NS, abs=TOL_NS)
        assert t[Component.SRC_RING] == pytest.approx(SRC_RING_NS, abs=TOL_NS)
        assert t[Component.RECEIVE] == pytest.approx(POLL_SUCCESS_NS, abs=TOL_NS)
        assert t[Component.UNATTRIBUTED] == 0.0
        assert m.attribution.total_ns == m.elapsed_ns == ZERO_HOP_NS

    def test_one_hop_is_the_162ns_write(self):
        m = measure_attribution(hops=1, shape=(4, 4, 4))
        t = m.attribution.totals
        assert t[Component.SOFTWARE_SEND] == pytest.approx(SLICE_SEND_NS, abs=TOL_NS)
        assert t[Component.SRC_RING] == pytest.approx(SRC_RING_NS, abs=TOL_NS)
        assert t[Component.LINK_ADAPTER] == pytest.approx(
            2 * LINK_ADAPTER_NS, abs=TOL_NS
        )
        assert t[Component.DST_RING] == pytest.approx(DST_RING_NS, abs=TOL_NS)
        assert t[Component.RECEIVE] == pytest.approx(POLL_SUCCESS_NS, abs=TOL_NS)
        assert m.attribution.total_ns == m.elapsed_ns == 162.0

    def test_three_hop_breakdown(self):
        # Fig. 5's 3-hop destination on the paper machine is (3,0,0):
        # three X crossings, two transit rings.
        m = measure_attribution(hops=3, shape=(8, 8, 8))
        t = m.attribution.totals
        assert m.destination == (3, 0, 0)
        assert t[Component.LINK_ADAPTER] == pytest.approx(
            3 * 2 * LINK_ADAPTER_NS, abs=TOL_NS
        )
        assert t[Component.TRANSIT_RING] == pytest.approx(
            2 * THROUGH_RING_NS["x"], abs=TOL_NS
        )
        assert t[Component.DST_RING] == pytest.approx(DST_RING_NS, abs=TOL_NS)
        assert t[Component.UNATTRIBUTED] == 0.0
        assert m.attribution.total_ns == m.elapsed_ns

    def test_mixed_dimension_path_charges_wire_extra(self):
        # 3 hops on 4x4x4 goes (2,1,0): two X, one Y — the Y crossing
        # pays the extra wire delay over X.
        m = measure_attribution(hops=3, shape=(4, 4, 4))
        t = m.attribution.totals
        assert m.destination == (2, 1, 0)
        assert t[Component.WIRE] == pytest.approx(
            WIRE_NS["y"] - WIRE_NS["x"], abs=TOL_NS
        )
        assert t[Component.TRANSIT_RING] == pytest.approx(
            THROUGH_RING_NS["x"] + THROUGH_RING_NS["y"], abs=TOL_NS
        )
        assert m.attribution.total_ns == m.elapsed_ns

    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    @pytest.mark.parametrize("payload", [0, 256])
    def test_total_always_equals_simulated_end_to_end(self, hops, payload):
        m = measure_attribution(hops=hops, shape=(4, 4, 4), payload_bytes=payload)
        assert m.attribution.total_ns == m.elapsed_ns
        # Segments tile the journey with no gaps or overlaps.
        m.attribution.check()

    def test_payload_serialization_charged_once(self):
        m = measure_attribution(hops=3, shape=(8, 8, 8), payload_bytes=256)
        wire_bits = (HEADER_BYTES + 256) * 8.0
        extra = wire_bits / TORUS_LINK_EFFECTIVE_GBPS - (
            HEADER_BYTES * 8.0 / TORUS_LINK_EFFECTIVE_GBPS
        )
        t = m.attribution.totals
        # Virtual cut-through: the payload's extra serialization shows
        # up once, not once per hop.
        assert t[Component.SERIALIZATION] == pytest.approx(extra, abs=TOL_NS)
        assert m.attribution.total_ns == m.elapsed_ns


class TestContention:
    def test_queue_wait_is_attributed(self):
        from repro.asic import build_machine
        from repro.asic.slice_ import poll_step, run_programs, write_step
        from repro.engine import Simulator
        from repro.trace.flight import FlightRecorder, use_flight

        sim = Simulator()
        fl = FlightRecorder()
        with use_flight(fl):
            machine = build_machine(sim, 2, 2, 2)
        dst = machine.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 2)
        # Two slices of one node inject simultaneously into the same
        # outgoing X+ link; the second 256 B packet must queue.
        senders = [machine.node((0, 0, 0)).slice(i) for i in (0, 1)]

        run_programs(sim, [
            (s, [write_step((1, 0, 0), "slice0", counter_id="rx",
                            address=("rx", slot), payload_bytes=256)])
            for slot, s in enumerate(senders)
        ] + [(dst, [poll_step("rx", 2)])])
        waits = {
            f.packet_id: attribute_flight(f, fl).ns(Component.QUEUE_WAIT)
            for f in fl.packets()
        }
        # Both 256 B packets cross link (0,0,0)->x+; one of them queues.
        assert sorted(waits.values())[0] == 0.0
        assert sorted(waits.values())[1] > 0.0
        for f in fl.packets():
            attribute_flight(f, fl).check()


class TestAttributionObject:
    def test_check_rejects_gappy_segments(self):
        attr = Attribution(packet_id=1, start_ns=0.0, end_ns=100.0)
        attr.segments.append(PathSegment(Component.SRC_RING, 0.0, 40.0))
        with pytest.raises(AssertionError, match="covers"):
            attr.check()

    def test_totals_include_every_category(self):
        attr = Attribution(packet_id=1, start_ns=0.0, end_ns=0.0)
        assert set(attr.totals) == set(Component)

    def test_attribute_flight_requires_delivery(self):
        m = measure_attribution(hops=1, shape=(4, 4, 4))
        flight = m.attribution  # re-run for a real undelivered flight
        from repro.trace.flight import PacketFlight

        undelivered = PacketFlight(
            packet_id=7, kind="write", src_node=(0, 0, 0), src_client="slice0",
            dst_node=(1, 0, 0), dst_client="slice0", payload_bytes=0,
            wire_bytes=32, multicast=False, in_order=False, inject_ns=0.0,
        )
        with pytest.raises(ValueError, match="never delivered"):
            attribute_flight(undelivered)


class TestReportDeterminism:
    def test_rendered_report_is_byte_identical_across_runs(self):
        # Same experiment, two fresh processes' worth of state: raw
        # packet ids differ (they are process-global), but the report
        # renumbers densely, so the bytes must match.
        a = measure_attribution(hops=3, shape=(4, 4, 4))
        b = measure_attribution(hops=3, shape=(4, 4, 4))
        assert a.attribution.packet_id != b.attribution.packet_id
        ra = render_attribution(a.attribution, local_id=0)
        rb = render_attribution(b.attribution, local_id=0)
        assert ra == rb
        assert "162" not in ra  # sanity: it's the 292 ns 3-hop table
        assert "292.0" in ra


class TestAttributeCli:
    @pytest.mark.parametrize("hops", [0, 1, 3])
    def test_latency_attribution_matches_simulation(self, hops, capsys):
        rc = main(["attribute", "latency", "--hops", str(hops),
                   "--shape", "4x4x4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "attributed total - simulated end-to-end: 0.000 ns" in out
        assert "TOTAL (trace-derived)" in out

    def test_traced_experiment_reports_phases_and_hotspots(self, capsys):
        rc = main(["attribute", "congestion", "--shape", "2x2x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hotspot" in out.lower() or "wait ns" in out
