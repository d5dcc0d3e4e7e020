"""Critical-path analysis (analysis/critical_path.py): multicast
branch reconstruction, per-phase critical packets, link hotspots."""

import pytest

from repro.analysis.critical_path import (
    branch_hops,
    branch_paths,
    critical_flight,
    link_hotspots,
    phase_reports,
    render_hotspots,
    render_phase_reports,
)
from repro.asic import build_machine
from repro.comm.collectives import AllReduce
from repro.engine import Simulator
from repro.network.multicast import compile_pattern
from repro.network.packet import WritePacket
from repro.trace.flight import FlightRecorder, use_flight


def traced_machine(shape=(2, 2, 2)):
    sim = Simulator()
    fl = FlightRecorder()
    with use_flight(fl):
        machine = build_machine(sim, *shape)
    return sim, machine, fl


def run_multicast(sim, machine, fl, targets):
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
    return flight


class TestBranchReconstruction:
    def test_unicast_branch_equals_hop_list(self):
        from tests.conftest import run_exchange

        sim, machine, fl = traced_machine()
        src = machine.node((0, 0, 0)).slice(0)
        dst = machine.node((1, 1, 0)).slice(0)
        run_exchange(sim, src, dst)
        [flight] = fl.packets()
        chain = branch_hops(flight, machine.torus, flight.deliveries[-1])
        assert chain == flight.hops

    def test_multicast_branches_are_causal_chains(self):
        sim, machine, fl = traced_machine((4, 4, 4))
        targets = {
            (1, 0, 0): ("slice0",), (2, 0, 0): ("slice0",),
            (1, 1, 0): ("slice0",), (2, 1, 1): ("slice0",),
        }
        flight = run_multicast(sim, machine, fl, targets)
        torus = machine.torus
        paths = branch_paths(flight, torus)
        assert len(paths) == len(targets)
        for delivery, chain in paths:
            # Chain starts at the source and ends at the delivery node.
            assert tuple(chain[0].from_node) == (0, 0, 0)
            last = chain[-1]
            assert tuple(torus.neighbor(last.from_node, last.dim, last.sign)) \
                == tuple(delivery.node)
            # Each hop leaves the node the previous hop entered, later.
            for prev, nxt in zip(chain, chain[1:]):
                assert tuple(torus.neighbor(prev.from_node, prev.dim, prev.sign)) \
                    == tuple(nxt.from_node)
                assert nxt.grant_ns >= prev.grant_ns
            # The branch length is the torus distance to the target.
            assert len(chain) == torus.hops((0, 0, 0), delivery.node)

    def test_branch_hops_unknown_delivery_raises(self):
        from repro.trace.flight import Delivery

        sim, machine, fl = traced_machine()
        flight = run_multicast(sim, machine, fl, {(1, 0, 0): ("slice0",)})
        bogus = Delivery(node=(0, 1, 1), client="slice0", time_ns=0.0)
        with pytest.raises(ValueError, match="no recorded hop"):
            branch_hops(flight, machine.torus, bogus)


class TestPhaseReports:
    def make_allreduce_capture(self):
        _, machine, fl = traced_machine()
        AllReduce(machine, payload_bytes=32).run()
        return machine, fl

    def test_reports_cover_closed_phases(self):
        machine, fl = self.make_allreduce_capture()
        reports = phase_reports(fl, machine.torus)
        assert len(reports) == 1
        r = reports[0]
        assert r.name.startswith("allreduce[32B]")
        assert r.packets > 0 and r.deliveries > 0
        assert r.duration_ns > 0

    def test_critical_packet_attribution_ends_at_phase_close(self):
        machine, fl = self.make_allreduce_capture()
        [r] = phase_reports(fl, machine.torus)
        assert r.critical_attribution is not None
        assert r.critical_local_id is not None
        # The critical chain's delivery is the last one in the window.
        last = max(
            d.time_ns
            for f in fl.packets()
            for d in f.deliveries
            if r.phase.begin_ns <= d.time_ns <= r.phase.end_ns
        )
        assert r.critical_delivery.time_ns == last
        r.critical_attribution.check()

    def test_critical_flight_tie_break_is_deterministic(self):
        machine, fl = self.make_allreduce_capture()
        a = critical_flight(fl, 0.0, float("inf"))
        b = critical_flight(fl, 0.0, float("inf"))
        assert a == b

    def test_render_is_deterministic_across_runs(self):
        m1, fl1 = self.make_allreduce_capture()
        m2, fl2 = self.make_allreduce_capture()
        t1 = render_phase_reports(phase_reports(fl1, m1.torus))
        t2 = render_phase_reports(phase_reports(fl2, m2.torus))
        assert t1 == t2


class TestLinkHotspots:
    def make_incast(self):
        """4-to-1 incast onto (0,0,0): heavy queueing on its in-links."""
        sim, machine, fl = traced_machine()
        dst = machine.node((0, 0, 0)).slice(0)
        senders = [c for c in machine.torus.nodes() if c != (0, 0, 0)][:4]
        dst.memory.allocate("sink", len(senders))

        def send(c, slot):
            s = machine.node(c).slice(0)
            for _ in range(3):
                yield from s.send_write(
                    (0, 0, 0), "slice0", counter_id="sink",
                    address=("sink", slot), payload_bytes=256,
                )

        def recv():
            yield from dst.poll("sink", 3 * len(senders))

        procs = [sim.process(send(c, i)) for i, c in enumerate(senders)]
        procs.append(sim.process(recv()))
        sim.run(until=sim.all_of(procs))
        return fl

    def test_ranked_worst_first_with_percentiles(self):
        fl = self.make_incast()
        spots = link_hotspots(fl)
        waits = [s.wait_ns for s in spots]
        assert waits == sorted(waits, reverse=True)
        worst = spots[0]
        assert worst.wait_ns > 0
        assert worst.traversals > 0 and worst.busy_ns > 0
        assert (worst.max_queue_depth >= worst.p99_queue_depth
                >= worst.p90_queue_depth >= worst.p50_queue_depth >= 0)
        assert link_hotspots(fl, top=2) == spots[:2]

    def test_render_hotspots(self):
        fl = self.make_incast()
        text = render_hotspots(link_hotspots(fl, top=3))
        assert "wait ns" in text

    def test_quiet_network_has_empty_ranking(self):
        sim, machine, fl = traced_machine()
        assert link_hotspots(fl) == []
