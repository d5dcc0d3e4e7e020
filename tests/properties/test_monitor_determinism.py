"""Property-based test: the health monitor is a passive observer.

A monitored run and a bare run of the same experiment must agree on
*every* simulated observable — final clock, packet books, events
executed, delivered payloads — for any shape, interval, and payload.
The monitor hook lives outside the event queue (it never occupies a
queue entry), so this holds exactly, not just
statistically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import build_machine
from repro.comm.collectives import AllReduce
from repro.engine import Simulator
from repro.monitor.health import HealthMonitor, use_monitoring
from tests.conftest import run_exchange


def _fingerprint(sim, machine):
    net = machine.network
    return (
        sim.now,
        sim.events_executed,
        net.packets_injected,
        net.packets_delivered,
        net.packets_completed,
        net.link_traversals,
    )


coords = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@given(coords, st.integers(0, 128), st.floats(1.0, 500.0))
@settings(max_examples=20, deadline=None)
def test_monitored_exchange_bit_identical(dst, payload, interval_ns):
    """One-way exchange: monitoring changes nothing observable."""
    results = []
    for monitored in (False, True):
        sim = Simulator()
        machine = build_machine(sim, 3, 3, 3)
        monitor = (HealthMonitor(sim, machine, interval_ns=interval_ns)
                   if monitored else None)
        src = machine.node((0, 0, 0)).slice(0)
        rcv = machine.node(dst).slice(1 if dst == (0, 0, 0) else 0)
        elapsed = run_exchange(sim, src, rcv, payload_bytes=payload)
        if monitor is not None:
            assert monitor.finalize().healthy
        results.append((elapsed, _fingerprint(sim, machine)))
    assert results[0] == results[1]


@given(st.sampled_from([(2, 2, 2), (3, 2, 2), (4, 2, 2)]),
       st.integers(0, 256))
@settings(max_examples=10, deadline=None)
def test_monitored_allreduce_bit_identical(shape, payload_bytes):
    """A full collective — thousands of events — stays bit-identical,
    including through the ambient use_monitoring() entry point."""
    results = []
    for monitored in (False, True):
        sim = Simulator()
        if monitored:
            with use_monitoring(interval_ns=50.0) as session:
                machine = build_machine(sim, *shape)
        else:
            session = None
            machine = build_machine(sim, *shape)
        report = AllReduce(machine, payload_bytes=payload_bytes).run()
        if session is not None:
            for v in session.finalize():
                assert v.healthy
        results.append((report.elapsed_ns, _fingerprint(sim, machine)))
    assert results[0] == results[1]
