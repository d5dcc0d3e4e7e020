"""Unit tests for the packet flight recorder (trace/flight.py)."""

from array import array

import pytest

from tests.conftest import run_exchange

from repro.asic import build_machine
from repro.asic.slice_ import (
    Steps, accum_step, poll_accum_step, poll_step, run_programs, write_step,
)
from repro.analysis.critical_path import link_hotspots
from repro.engine import Simulator
from repro.network.multicast import compile_pattern
from repro.network.packet import WritePacket
from repro.trace.flight import (
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    use_flight,
)
from repro.trace.export import dumps_chrome_trace, flight_summary, jsonl_lines
from repro.trace.metrics import MetricsRegistry


def traced_machine(shape=(2, 2, 2)):
    sim = Simulator()
    fl = FlightRecorder()
    with use_flight(fl):
        machine = build_machine(sim, *shape)
    return sim, machine, fl


class TestAttachment:
    def test_default_network_uses_null_recorder(self, machine222):
        assert machine222.network.flight is NULL_FLIGHT
        assert machine222.network.flight.enabled is False

    def test_ambient_recorder_picked_up_at_construction(self):
        sim, machine, fl = traced_machine()
        assert machine.network.flight is fl
        # The context exited; new networks go back to the null recorder.
        assert build_machine(Simulator(), 2, 2, 2).network.flight is NULL_FLIGHT

    def test_bare_network_reads_the_flight_slot(self):
        from repro.network.network import Network
        from repro.topology.torus import Torus3D

        sim = Simulator()
        fl = FlightRecorder()
        with use_flight(fl):
            net = Network(sim, Torus3D(2, 2, 2))
        assert net.flight is fl


class TestUnicastSpans:
    def test_hop_count_equals_route_length(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((1, 1, 0)).slice(0)
        run_exchange(sim, src, dst)
        [flight] = fl.packets()
        route = machine.torus.route((0, 0, 0), (1, 1, 0))
        assert len(flight.hops) == len(route) == 2
        assert [(h.dim, h.sign) for h in flight.hops] == [
            (hop.dim, hop.sign) for hop in route
        ]

    def test_span_nesting_and_causality(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((1, 1, 0)).slice(0)
        run_exchange(sim, src, dst, payload_bytes=64)
        [flight] = fl.packets()
        t = flight.inject_ns
        for hop in flight.hops:
            assert t <= hop.enqueue_ns <= hop.grant_ns < hop.release_ns
            t = hop.grant_ns  # next hop starts after this grant
        assert flight.deliveries[-1].time_ns >= flight.hops[-1].grant_ns
        assert flight.latency_ns > 0
        assert flight.payload_bytes == 64

    def test_uncontended_hop_has_no_wait(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((1, 0, 0)).slice(0)
        run_exchange(sim, src, dst)
        [flight] = fl.packets()
        assert flight.queue_wait_ns == 0.0
        assert fl.contended_hops() == 0
        assert all(h.queue_depth == 0 for h in flight.hops)

    def test_delivery_records_destination(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((0, 0, 1)).slice(0)
        run_exchange(sim, src, dst)
        [flight] = fl.packets()
        [d] = flight.deliveries
        assert tuple(d.node) == (0, 0, 1)
        assert d.client == "slice0"


class TestContention:
    def make_contended_run(self):
        """Two slices on one node send 256 B to the same neighbour at
        the same time: they share the single outgoing link."""
        sim, machine, fl = traced_machine()
        a0 = machine.node((0, 0, 0)).slice(0)
        a1 = machine.node((0, 0, 0)).slice(1)
        dst = machine.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 2)

        run_programs(sim, [
            (s, [write_step((1, 0, 0), "slice0", counter_id="c",
                            address=("rx", slot), payload_bytes=256)])
            for slot, s in enumerate((a0, a1))
        ] + [(dst, [poll_step("c", 2)])])
        return fl

    def test_queue_wait_recorded(self):
        fl = self.make_contended_run()
        waits = [f.queue_wait_ns for f in fl.packets()]
        assert fl.contended_hops() == 1
        assert max(waits) > 0
        assert min(waits) == 0  # the winner streamed immediately

    def test_queue_depth_series(self):
        fl = self.make_contended_run()
        [link] = [
            name for name, s in fl.queue_depth_series.items() if s
        ]
        depths = [d for _, d in fl.queue_depth_series[link]]
        assert max(depths) == 1  # one waiter behind the winner
        assert depths[-1] == 0  # drained by the end
        assert fl.max_queue_depth() == 1
        assert fl.max_queue_depth(link) == 1

    def test_metrics_fed(self):
        fl = self.make_contended_run()
        m = MetricsRegistry()
        fl.publish_metrics(m)
        assert m.counter("net.packets_injected").value == 2
        assert m.counter("net.packets_delivered").value == 2
        assert m.counter("net.link_traversals").value == 2
        assert m.histogram("net.hop_wait_ns").count == 1
        assert m.histogram("net.packet_latency_ns").count == 2
        assert m.gauge("net.queue_depth").high_watermark == 1

    def test_link_busy_time_is_serialization(self):
        fl = self.make_contended_run()
        [link] = [n for n, occ in fl.link_occupancy.items() if len(occ) == 2]
        # Two 256 B packets: busy time is twice one serialization.
        per_packet = fl.link_busy_ns(link) / 2
        assert per_packet == pytest.approx((32 + 256) * 8.0 / 36.8)


class TestMulticast:
    def make_multicast_run(self, targets):
        sim, machine, fl = traced_machine()
        net = machine.network
        for node in targets:
            machine.node(node).slice(0).memory.allocate("mc", 1)
        pattern = compile_pattern(net.torus, (0, 0, 0), targets)
        packet = WritePacket(
            src_node=net.torus.coord((0, 0, 0)), src_client="slice0",
            dst_node=net.torus.coord((0, 0, 0)), dst_client="slice0",
            counter_id="mc", address=("mc", 0),
            pattern_id=net.register_pattern(pattern),
        )
        net.inject(packet)
        sim.run()
        assert net.packets_completed == 1
        [flight] = fl.packets()
        return machine, flight

    def test_failed_analysis_leaves_the_logs_growable(self):
        """An analysis that raises keeps no hold on the logs: its frames
        live on in the traceback, and recording continues."""
        from repro.congestion.decompose import decompose_run

        targets = {(1, 0, 0): ("slice0",), (0, 1, 0): ("slice0",)}
        machine, flight = self.make_multicast_run(targets)
        fl = machine.network.flight
        with pytest.raises(ValueError) as failed:
            decompose_run(fl, None)  # a multicast branch needs the torus
        hops = len(fl.hop_link)
        src = machine.node((0, 0, 0)).slice(0)
        run_exchange(machine.network.sim, src,
                     machine.node((1, 1, 0)).slice(1), buffer="after")
        assert failed.traceback and len(fl.hop_link) > hops

    def test_per_branch_spans_are_causal(self):
        """Every branch of the replication tree reconstructs as a
        causal chain of hop spans ending at its delivery node."""
        from repro.analysis.critical_path import branch_hops

        targets = {(1, 0, 0): ("slice0",), (0, 1, 0): ("slice0",),
                   (1, 1, 0): ("slice0",), (1, 1, 1): ("slice0",)}
        machine, flight = self.make_multicast_run(targets)
        torus = machine.torus
        for delivery in flight.deliveries:
            chain = branch_hops(flight, torus, delivery)
            assert tuple(chain[0].from_node) == (0, 0, 0)
            for prev, nxt in zip(chain, chain[1:]):
                # The child hop leaves the node the parent entered, and
                # cannot be granted before its parent was.
                assert tuple(torus.neighbor(prev.from_node, prev.dim,
                                            prev.sign)) == tuple(nxt.from_node)
                assert nxt.enqueue_ns >= prev.grant_ns
            last = chain[-1]
            assert tuple(torus.neighbor(last.from_node, last.dim, last.sign)) \
                == tuple(delivery.node)
            assert delivery.time_ns >= last.grant_ns

    def test_shared_trunk_recorded_once(self):
        """Branches to (1,0,0) and (1,1,0) share the first X hop: the
        tree replicates at (1,0,0), it does not send twice from the
        source."""
        targets = {(1, 0, 0): ("slice0",), (1, 1, 0): ("slice0",)}
        machine, flight = self.make_multicast_run(targets)
        x_hops = [h for h in flight.hops
                  if tuple(h.from_node) == (0, 0, 0) and h.dim == "x"]
        assert len(x_hops) == 1

    def test_hops_match_compiled_tree(self):
        sim, machine, fl = traced_machine()
        net = machine.network
        targets = {(1, 0, 0): ("slice0",), (0, 1, 0): ("slice0",),
                   (1, 1, 0): ("slice0",)}
        for node in targets:
            machine.node(node).slice(0).memory.allocate("mc", 1)
        pattern = compile_pattern(net.torus, (0, 0, 0), targets)
        pattern_id = net.register_pattern(pattern)
        packet = WritePacket(
            src_node=net.torus.coord((0, 0, 0)), src_client="slice0",
            dst_node=net.torus.coord((0, 0, 0)), dst_client="slice0",
            counter_id="mc", address=("mc", 0), pattern_id=pattern_id,
        )
        net.inject(packet)
        sim.run()
        assert net.packets_completed == 1
        [flight] = fl.packets()
        assert flight.multicast
        assert len(flight.hops) == pattern.total_link_traversals
        assert len(flight.deliveries) == len(targets)


class TestDeliveryOrder:
    def test_same_time_deliveries_in_canonical_order(self):
        """Deliveries at one time are read by node rank (x fastest),
        then client name, whatever order the engine recorded them in:
        the last delivery is a property of the model."""
        from repro.network.packet import Packet
        from repro.topology.torus import NodeCoord

        origin = NodeCoord(0, 0, 0)
        orders = [
            [((1, 1, 1), "a", 9.0), ((0, 0, 1), "b", 9.0),
             ((0, 0, 1), "a", 9.0), ((1, 0, 0), "a", 5.0)],
            [((1, 0, 0), "a", 5.0), ((0, 0, 1), "a", 9.0),
             ((1, 1, 1), "a", 9.0), ((0, 0, 1), "b", 9.0)],
        ]
        seen = []
        for recorded in orders:
            fl = FlightRecorder()
            packet = Packet(origin, "a", origin, "a", pattern_id=0)
            fl.packet_injected(packet, 0.0)
            for node, client, t in recorded:
                fl.packet_delivered(packet, node, client, t)
            [flight] = fl.packets()
            seen.append([(d.node, d.client, d.time_ns)
                         for d in flight.deliveries])
            assert flight.delivered_ns == 9.0
            last = fl.last_delivery_rows()[0]
            assert (fl.delivery_node[last], fl.delivery_client[last]) == (
                (1, 1, 1), "a")
        assert seen[0] == seen[1] == [
            ((1, 0, 0), "a", 5.0), ((0, 0, 1), "a", 9.0),
            ((0, 0, 1), "b", 9.0), ((1, 1, 1), "a", 9.0),
        ]


class TestNonPerturbation:
    def test_recording_does_not_change_simulated_time(self):
        def measure(traced):
            sim = Simulator()
            if traced:
                fl = FlightRecorder()
                with use_flight(fl):
                    machine = build_machine(sim, 2, 2, 2)
            else:
                machine = build_machine(sim, 2, 2, 2)
            src = machine.node((0, 0, 0)).slice(0)
            dst = machine.node((1, 0, 0)).slice(0)
            return run_exchange(sim, src, dst)

        assert measure(traced=False) == measure(traced=True) == 162.0

    def test_disabling_mid_run_stops_recording(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((1, 0, 0)).slice(0)
        run_exchange(sim, src, dst)
        fl.enabled = False
        run_exchange(sim, src, dst, counter="c2")
        assert len(fl) == 1

    def test_null_recorder_hooks_are_noops(self):
        null = NullFlightRecorder()
        null.packet_injected(None, 0.0)
        null.hop_booked(None, None, 0.0, None)
        null.packet_delivered(None, (0, 0, 0), "slice0", 0.0)

    def test_clear(self):
        fl = TestContention().make_contended_run()
        fl.clear()
        assert len(fl) == 0
        assert fl.links() == []


class TestAccumulation:
    def make_accum_run(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        node = machine.node((1, 0, 0))

        run_programs(sim, [
            (src, [accum_step((1, 0, 0), "accum0", counter_id="c", address="f",
                              payload=2.0, payload_bytes=8)] * 3),
            (node.slice(0), [poll_accum_step(node.accum[0], "c", 3)]),
        ])
        return machine, fl

    def test_accum_packets_recorded_as_flights(self):
        machine, fl = self.make_accum_run()
        flights = fl.packets()
        assert len(flights) == 3
        for f in flights:
            assert f.kind == "accum"
            assert not f.multicast
            assert f.payload_bytes == 8
            [d] = f.deliveries
            assert tuple(d.node) == (1, 0, 0)
            assert d.client == "accum0"
            # The accumulation write crosses one X link.
            assert len(f.hops) == 1 and f.hops[0].dim == "x"
            assert f.send_begin_ns is not None
            assert f.send_begin_ns <= f.inject_ns

    def test_accum_flights_attribute_exactly(self):
        from repro.analysis.attribution import attribute_flight

        machine, fl = self.make_accum_run()
        for f in fl.packets():
            attr = attribute_flight(f, fl)
            attr.check()
            assert attr.total_ns == f.deliveries[-1].time_ns - f.send_begin_ns

    def test_accum_semantics_unperturbed(self):
        machine, fl = self.make_accum_run()
        accum = machine.node((1, 0, 0)).accum[0]
        assert accum.value("f") == pytest.approx(6.0)
        assert accum.counter("c").count == 3


class TestPollJoin:
    def test_poll_for_matches_consuming_poll(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((1, 0, 0)).slice(0)
        run_exchange(sim, src, dst)
        [flight] = fl.packets()
        poll = fl.poll_for(flight)
        assert poll is not None
        assert tuple(poll.node) == (1, 0, 0)
        assert poll.client == "slice0"
        assert poll.counter_id == "c"
        assert poll.trigger_ns >= flight.deliveries[-1].time_ns
        assert poll.done_ns > poll.trigger_ns

    def test_poll_for_without_poller_is_none(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 1)

        Steps(src, [write_step((1, 0, 0), "slice0", counter_id="nobody",
                               address=("rx", 0))]).start()
        sim.run()
        [flight] = fl.packets()
        assert flight.deliveries
        assert fl.poll_for(flight) is None


class TestPhases:
    def test_closed_phases_in_begin_order(self):
        fl = FlightRecorder()
        fl.phase_begin("a", 0.0)
        fl.phase_begin("b", 10.0)
        fl.phase_end("b", 20.0)
        fl.phase_end("a", 30.0)
        closed = fl.closed_phases()
        assert [p.name for p in closed] == ["a", "b"]
        assert fl.phase("a").end_ns == 30.0

    def test_unmatched_phase_end_raises(self):
        fl = FlightRecorder()
        with pytest.raises(RuntimeError, match="without an open phase_begin"):
            fl.phase_end("never-opened", 1.0)


class _CountingLog(array):
    """A log column that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        _CountingLog.iterations += 1
        return super().__iter__()


def _link_log_iterations(shape, analysis):
    """How often ``analysis`` iterates the hop and sample logs' link
    columns on an ``allreduce`` capture of ``shape``, caches included
    (the capture is absorbed into a fresh recorder, which has none),
    and how many links the capture has."""
    from repro.runner import Captures, ExperimentSpec, run_experiment

    captured = run_experiment(
        ExperimentSpec("allreduce", shape=shape), Captures(flight=True)
    ).flight
    fl = FlightRecorder()
    fl.absorb(captured)
    fl.hop_link = _CountingLog("q", fl.hop_link)
    fl.sample_link = _CountingLog("q", fl.sample_link)
    _CountingLog.iterations = 0
    analysis(fl)
    return _CountingLog.iterations, len(fl.links())


class TestPerLinkViews:
    """Every per-link view is one grouping of the logs, built once per
    log state: an analysis that reads each link's view costs one pass,
    not one pass per link."""

    @pytest.mark.parametrize("analysis", [
        lambda fl: list(jsonl_lines(fl)),
        dumps_chrome_trace,
        flight_summary,
        link_hotspots,
    ], ids=["jsonl_lines", "dumps_chrome_trace", "flight_summary",
            "link_hotspots"])
    def test_link_columns_read_independently_of_link_count(self, analysis):
        small, small_links = _link_log_iterations((2, 2, 2), analysis)
        large, large_links = _link_log_iterations((4, 4, 4), analysis)
        assert large_links > 4 * small_links
        assert large == small

    def test_views_are_cached_and_read_only(self):
        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        for dst in ((1, 0, 0), (1, 1, 0)):
            run_exchange(sim, src, machine.node(dst).slice(0),
                         buffer=f"rx{dst}")
        occupancy = fl.link_occupancy
        assert fl.link_occupancy is occupancy
        assert fl.queue_depth_series is fl.queue_depth_series
        [link] = [n for n, occ in occupancy.items() if len(occ) == 2]
        with pytest.raises(TypeError):
            occupancy[link] = ()
        with pytest.raises(AttributeError):
            occupancy[link].append((0.0, 0.0, 0))
        # More recording builds the views afresh.
        run_exchange(sim, src, machine.node((0, 1, 0)).slice(0),
                     buffer="rx3")
        assert fl.link_occupancy is not occupancy
        assert sum(map(len, fl.link_occupancy.values())) == len(fl.hop_link)
