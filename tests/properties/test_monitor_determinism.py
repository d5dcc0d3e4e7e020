"""Property-based tests: the health monitor is a passive observer, and
what it samples is the model's state on its grid.

A monitored run and a bare run of the same experiment must agree on
*every* simulated observable — final clock, packet books, events
executed, delivered payloads — for any shape, interval, and payload.
The monitor hook lives outside the event queue (it never occupies a
queue entry), so this holds exactly, not just
statistically.

The other way round, engine events that do nothing must not move a
sample: every model series, the tick count and the verdict of a run
with no-op events scheduled among the model's are byte-identical to
those of the run without them.  Only the ``engine.*`` series, which
count events, may differ.
"""

from dataclasses import asdict
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mdstep import build_dhfr_md
from repro.asic import build_machine
from repro.bench.results import canonical_json
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


#: The monitor's grid, in simulated ns.
_INTERVAL_NS = 50.0


def _monitoring():
    # The ring holds every tick: the mdstep pair crosses 602 grid times.
    return use_monitoring(interval_ns=_INTERVAL_NS, series_capacity=1024)


def _allreduce():
    with _monitoring() as session:
        machine = build_machine(Simulator(), 4, 4, 4)
    return session, machine.sim, lambda: AllReduce(machine, payload_bytes=32).run()


def _mdstep_pair():
    with _monitoring() as session:
        md = build_dhfr_md((2, 2, 2), atoms=512)

    def pair() -> None:
        md.run_step("range_limited")
        md.run_step("long_range")

    return session, md.sim, pair


def _noop() -> None:
    pass


def _observed(build, noops_ns=()) -> tuple[float, str]:
    """The run's final clock, and its model series, tick count and
    verdict as canonical JSON, with no-op events scheduled at
    ``noops_ns`` before it starts."""
    session, sim, run = build()
    for t in noops_ns:
        sim.schedule(t, _noop)
    run()
    monitor = session.monitor
    verdict = monitor.finalize()
    assert verdict.healthy and not verdict.dropped_samples
    return sim.now, canonical_json({
        "series": {s.name: s.samples() for s in monitor.sampler
                   if not s.name.startswith("engine.")},
        "ticks": monitor.sampler.ticks,
        "verdict": asdict(verdict),
    })


_reference = cache(_observed)

#: ``(on_grid, f)``: a no-op at fraction ``f`` of the run, moved down
#: onto the grid when ``on_grid``.
noops = st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)),
                 min_size=1, max_size=30)


def _instants(end_ns: float, draws) -> list[float]:
    return [
        (f * end_ns // _INTERVAL_NS) * _INTERVAL_NS if on_grid else f * end_ns
        for on_grid, f in draws
    ]


@given(noops)
@settings(max_examples=20, deadline=None)
def test_noop_events_move_no_allreduce_sample(draws):
    """A 4×4×4 all-reduce: no-ops at any instants up to its last event."""
    end_ns, expected = _reference(_allreduce)
    assert _observed(_allreduce, _instants(end_ns, draws)) == (end_ns, expected)


@given(noops)
@settings(max_examples=8, deadline=None)
def test_noop_events_move_no_mdstep_sample(draws):
    """An ``mdstep`` 2×2×2 step pair, whose two steps are two runs."""
    end_ns, expected = _reference(_mdstep_pair)
    assert _observed(_mdstep_pair, _instants(end_ns, draws)) == (end_ns, expected)
