"""Property: a torus link's booking channel is an engine ``Resource``.

The link keeps one booking slot, ``free_at``: a packet arriving at
``t`` is granted at ``max(t, free_at)`` and pushes ``free_at`` on by
its hold, so a grant is known on arrival and no release is scheduled.
The link counts a packet as carried from its booked grant on, with no
grant event: the test drives it with bookings only, and observes each
grant from an event of its own.  The oracle is the FCFS ``Resource``
occupied through ``hold``, which queues a hold behind a busy unit and
starts it when the holder releases; a hold's grant is its end less its
duration, and the oracle counts a packet and its bytes as carried from
that grant on.  Both are driven by the same random script of arrivals
on integer instants, each arrival with an integer hold and its own
byte count.  Every
arrival must be granted at the same time, and ``busy_ns``,
``queue_length``, ``utilization``, ``packets_carried`` and
``bytes_carried`` read between instants (at every half-integer time
and at every integer time, after its events) must agree.

An instant's arrivals run after everything already due at it (the
releases and grants that fall there), as a hop's arrival follows the
packet's head latency: both runs start them from one kick per instant
that re-queues them at the back of the instant.  The ``Resource`` so
counts a packet granted at an arrival's instant as served when the
arrival queues, while a link booking counts it as waiting, whatever
the order of the instant's events.  ``peak_queue_length`` is therefore
checked against that rule applied to the oracle's grant times, and is
never below the oracle's own peak.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic.slice_ import hold
from repro.engine import Resource, Simulator
from repro.network.link import LinkId, TorusLink

#: Integer instants and holds make ties common: an arrival at exactly
#: the time the channel frees, and several arrivals at one instant.
_arrival = st.tuples(st.integers(0, 12).map(float),
                     st.integers(1, 4).map(float))


def _kick(sim, script, arrive):
    """One event per instant that appends its arrivals, in script
    order, behind every event already due then."""
    by_time: dict[float, list] = {}
    for k, (when, hold_ns) in enumerate(script):
        by_time.setdefault(when, []).append((k, hold_ns))
    for when, arrivals in by_time.items():
        sim.schedule(when, lambda arrivals=arrivals: [
            sim.schedule_now(arrive, a) for a in arrivals])


def _read_between_instants(sim, script, read):
    """Run to every half-integer and integer time until the channel has
    drained (a bound: the last arrival plus every hold), and read the
    telemetry there."""
    horizon = max(when for when, _ in script) + sum(h for _, h in script)
    samples = []
    t = 0.5
    while t <= horizon + 1.0:
        sim.run(until=t)
        samples.append((t,) + read())
        t += 0.5
    return samples


def _nbytes(k: int) -> int:
    return 32 + 8 * k


def _run_resource(script):
    sim = Simulator()
    res = Resource(sim, name="r")
    grants = {}

    def ended(k, hold_ns):
        grants[k] = sim.now - hold_ns

    def arrive(k, hold_ns):
        hold(res, hold_ns, ended, (k, hold_ns))

    def read():
        busy = res.total_busy_ns
        if res._busy_since is not None:
            busy += sim.now - res._busy_since
        return (busy, res.queue_length, res.utilization(),
                res.utilization(5.0), res.peak_queue_length)

    _kick(sim, script, arrive)
    reads = _read_between_instants(sim, script, read)
    # Every hold has ended by the last read, so every grant is known.
    samples = []
    for t, busy, depth, util, util5, peak in reads:
        served = [k for k, grant in grants.items() if grant <= t]
        samples.append((t, busy, depth, util, util5, len(served),
                        sum(_nbytes(k) for k in served), peak))
    return grants, samples


def _run_link(script):
    sim = Simulator()
    link = TorusLink(sim, LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    grants = {}

    def granted(k):
        grants[k] = sim.now

    def arrive(k, hold_ns):
        grant = link.book(hold_ns, _nbytes(k))
        if grant == sim.now:
            granted(k)
        else:
            sim.schedule_at(grant, granted, (k,))

    def read():
        return (link.busy_ns, link.queue_length, link.utilization(),
                link.utilization(5.0), link.packets_carried,
                link.bytes_carried, link.peak_queue_length)

    _kick(sim, script, arrive)
    return grants, _read_between_instants(sim, script, read)


def _peaks_by_rule(script, grants, times):
    """The deepest queue a booking has seen by each time in ``times``,
    from the grant times alone.  A packet arriving at ``t`` waits if it
    is granted after ``t``; the depth it sees is every packet booked
    before it, or itself, that waits and is granted at ``t`` or later.
    Bookings run in arrival-instant order, an instant's in script
    order."""
    order = sorted(range(len(script)), key=lambda k: (script[k][0], k))
    depths = []
    for i, k in enumerate(order):
        t = script[k][0]
        if grants[k] > t:
            depth = sum(1 for j in order[:i + 1]
                        if grants[j] > script[j][0] and grants[j] >= t)
            depths.append((t, depth))
    return [max([d for when, d in depths if when <= t], default=0)
            for t in times]


@given(st.lists(_arrival, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_link_channel_matches_resource(script):
    link_grants, link_reads = _run_link(script)
    res_grants, res_reads = _run_resource(script)
    assert link_grants == res_grants
    assert ([r[:-1] for r in link_reads] == [r[:-1] for r in res_reads])
    times = [r[0] for r in res_reads]
    link_peaks = [r[-1] for r in link_reads]
    assert link_peaks == _peaks_by_rule(script, res_grants, times)
    assert all(lp >= r[-1] for lp, r in zip(link_peaks, res_reads))
