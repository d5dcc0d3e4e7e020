"""Unit tests for the migration protocol (§IV.B.5)."""

import pytest

from repro.asic import build_machine
from repro.comm import MigrationProtocol
from repro.engine import Simulator
from repro.topology import NodeCoord


def test_empty_migration_measures_sync_cost(sim, machine222):
    mig = MigrationProtocol(machine222)
    r = mig.run()
    assert r.messages_sent == 0
    assert r.messages_received == 0
    # The pure synchronization (flush multicast + drain) costs well
    # under a couple of microseconds; the paper measures 0.56 µs.
    assert 0.2 < r.elapsed_us < 2.0


def test_payloads_arrive_at_destinations(sim, machine222):
    mig = MigrationProtocol(machine222)
    torus = machine222.torus
    moves = {
        torus.coord((0, 0, 0)): [(torus.coord((1, 0, 0)), "atom-a"),
                                 (torus.coord((0, 1, 0)), "atom-b")],
        torus.coord((1, 1, 1)): [(torus.coord((0, 1, 1)), "atom-c")],
    }
    r = mig.run(moves)
    assert r.messages_sent == 3
    assert r.received_payloads[torus.coord((1, 0, 0))] == ["atom-a"]
    assert r.received_payloads[torus.coord((0, 1, 0))] == ["atom-b"]
    assert r.received_payloads[torus.coord((0, 1, 1))] == ["atom-c"]


def test_non_neighbor_move_rejected(sim):
    m = build_machine(sim, 4, 4, 4)
    mig = MigrationProtocol(m)
    torus = m.torus
    with pytest.raises(ValueError, match="nearest"):
        mig.run({torus.coord((0, 0, 0)): [(torus.coord((2, 0, 0)), "far")]})


def test_protocol_correct_under_reordering():
    """With reorder jitter on, the in-order flush must still never
    overtake migration messages — no message may be lost."""
    for seed in range(3):
        sim = Simulator()
        m = build_machine(sim, 3, 3, 3, reorder_jitter_ns=300.0, seed=seed)
        mig = MigrationProtocol(m)
        torus = m.torus
        moves = {}
        for c in torus.nodes():
            neigh = torus.moore_neighbors(c)
            moves[c] = [(neigh[i % len(neigh)], f"{c}-{i}") for i in range(4)]
        r = mig.run(moves)
        assert r.messages_received == r.messages_sent == 4 * 27


def test_migration_reusable(sim, machine222):
    mig = MigrationProtocol(machine222)
    torus = machine222.torus
    r1 = mig.run()
    r2 = mig.run({torus.coord((0, 0, 0)): [(torus.coord((1, 0, 0)), 1)]})
    assert r2.messages_received == 1


def test_fifo_watermark_reported(sim, machine222):
    mig = MigrationProtocol(machine222)
    torus = machine222.torus
    src = torus.coord((0, 0, 0))
    dst = torus.coord((1, 0, 0))
    r = mig.run({src: [(dst, i) for i in range(10)]})
    assert r.fifo_high_watermark >= 1


def test_512_node_sync_near_paper():
    """Empty migration on the full 8×8×8 machine: the flush
    synchronization should land near the paper's 0.56 µs."""
    sim = Simulator()
    m = build_machine(sim, 8, 8, 8)
    r = MigrationProtocol(m).run()
    assert r.elapsed_us == pytest.approx(0.56, rel=0.5)


def _busy_moves(torus, per_node=4):
    moves = {}
    for c in torus.nodes():
        neigh = torus.moore_neighbors(c)
        moves[c] = [(neigh[i % len(neigh)], i) for i in range(per_node)]
    return moves


@pytest.mark.parametrize("busy, ratchet", [(False, 6144), (True, 8768)],
                         ids=["empty", "busy"])
def test_migration_event_ratchet(busy, ratchet):
    """One 4×4×4 migration executes at most this many engine events:
    each node's leg starts in one event and then runs on
    continuations (6,464 empty and 9,216 with 4 atoms leaving each
    node when the halves ran as processes)."""
    sim = Simulator()
    m = build_machine(sim, 4, 4, 4)
    MigrationProtocol(m).run(_busy_moves(m.torus) if busy else None)
    assert sim.events_executed <= ratchet


def test_migration_on_a_single_node():
    """No neighbours: the flush counter's target is 0, so the receiver
    polls at once, behind the sender's scan on the same core."""
    sim = Simulator()
    m = build_machine(sim, 1, 1, 1)
    r = MigrationProtocol(m).run(scan_atoms={(0, 0, 0): 10})
    assert r.messages_received == 0
    assert r.elapsed_ns > 0


def test_fifo_overflow_under_monitoring():
    """Three messages from each of a node's 26 neighbours overflow its
    64-entry FIFO; the receiver still takes every one, in order per
    sender, and the monitor's FIFO conservation check stays green."""
    from repro.monitor.health import use_monitoring

    sim = Simulator()
    with use_monitoring(interval_ns=20.0) as session:
        m = build_machine(sim, 3, 3, 3)
    torus = m.torus
    dst = torus.coord((1, 1, 1))
    moves = {c: [(dst, (c, i)) for i in range(3)] for c in torus.moore_neighbors(dst)}
    r = MigrationProtocol(m).run(moves)
    fifo = m.node(dst).slices[3].fifo
    assert fifo.backpressure_stalls > 0
    assert fifo.high_watermark == fifo.capacity == 64
    assert r.messages_received == r.messages_sent == 78
    got = r.received_payloads[dst]
    for c in moves:
        assert [p for p in got if p[0] == c] == [(c, 0), (c, 1), (c, 2)]
    assert fifo.total_received == fifo.total_consumed + len(fifo) == 78
    verdict = session.monitors[0].finalize()
    # The monitor saw the parked packets (a warning), and never a lost
    # message or a ring beyond its capacity (an error).
    check = verdict.check("fifo_depth_bounds")
    assert check.status == "warning" and "backpressure" in check.detail
    assert verdict.healthy


def test_flush_poll_is_recorded_in_the_flight_record():
    """The receiver's successful flush poll goes through the slice's
    poll hook, so a flight capture holds one per node and the phase's
    critical path ends with it."""
    from repro.analysis.attribution import Component
    from repro.analysis.critical_path import phase_reports
    from repro.trace.flight import FlightRecorder, use_flight

    sim = Simulator()
    fl = FlightRecorder()
    with use_flight(fl):
        m = build_machine(sim, 2, 2, 2)
    r = MigrationProtocol(m).run()
    polls = [p for p in fl.polls if p.counter_id == "mig-flush"]
    assert len(polls) == 8
    assert max(p.done_ns for p in polls) == max(r.per_node_done_ns.values())
    [report] = [x for x in phase_reports(fl, m.torus) if x.name == "migration#1"]
    last = report.critical_attribution.segments[-1]
    assert last.component is Component.RECEIVE
    assert last.end_ns == report.phase.end_ns
