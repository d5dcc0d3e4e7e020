"""Property: a torus link's booking channel is an FCFS server.

The link is the engine's booking slot (``Resource``), with one slot,
``free_at``: a packet arriving at ``t`` is granted at
``max(t, free_at)`` and pushes ``free_at`` on by its hold, so a grant
is known on arrival and no release is scheduled.  The link counts a
packet as carried from its booked grant on, with no grant event.  The
test drives it with bookings only, from a random script of arrivals on
integer instants, each arrival with an integer hold and its own byte
count; an instant's arrivals book in script order.

The oracle is closed-form and built in the test, as in
``test_engine_properties.py::test_resource_conservation_and_fcfs``:
arrivals are served in (arrival, script) order, each granted at
``max(arrival, previous end)``.  Every booking must return that grant,
and ``busy_ns``, ``queue_length``, ``utilization``, ``packets_carried``
and ``bytes_carried`` read between instants (at every half-integer
time) and at every integer time, after its events, must equal the
oracle's: the busy time is each hold's overlap with ``[0, t]``, a
packet waits while ``arrival <= t < grant``, and it is carried from
``grant <= t`` on.  ``peak_queue_length`` follows the same-instant
depth rule, applied to the oracle's grant times: a booking counts a
packet whose grant falls at the booking instant as waiting.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.network.link import LinkId, TorusLink

#: Integer instants and holds make ties common: an arrival at exactly
#: the time the channel frees, and several arrivals at one instant.
_arrival = st.tuples(st.integers(0, 12).map(float),
                     st.integers(1, 4).map(float))


def _nbytes(k: int) -> int:
    return 32 + 8 * k


def _sample_times(script):
    """Every half-integer and integer time until the channel has
    drained (a bound: the last arrival plus every hold)."""
    horizon = max(when for when, _ in script) + sum(h for _, h in script)
    return [0.5 * i for i in range(1, int(2 * (horizon + 1.0)) + 1)]


def _fcfs_grants(script):
    """The oracle's grant per arrival: in (arrival, script) order, at
    ``max(arrival, previous end)``."""
    grants = {}
    free_at = 0.0
    for when, k, hold_ns in sorted((w, k, h) for k, (w, h) in enumerate(script)):
        grants[k] = max(when, free_at)
        free_at = grants[k] + hold_ns
    return grants


def _oracle_reads(script, grants, t):
    busy = sum(min(max(t - grants[k], 0.0), hold_ns)
               for k, (_, hold_ns) in enumerate(script))
    waiting = sum(1 for k, (when, _) in enumerate(script)
                  if when <= t < grants[k])
    served = [k for k in grants if grants[k] <= t]
    return (busy, waiting, busy / t, busy / 5.0, len(served),
            sum(_nbytes(k) for k in served))


def _run_link(script, times):
    sim = Simulator()
    link = TorusLink(sim, LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    grants = {}

    def arrive(k, hold_ns):
        grants[k] = link.book(hold_ns, _nbytes(k))

    for k, (when, hold_ns) in enumerate(script):
        sim.schedule(when, arrive, k, hold_ns)
    reads = []
    for t in times:
        sim.run(until=t)
        reads.append((link.busy_ns, link.queue_length, link.utilization(),
                      link.utilization(5.0), link.packets_carried,
                      link.bytes_carried, link.peak_queue_length))
    return grants, reads


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
    times = _sample_times(script)
    grants = _fcfs_grants(script)
    link_grants, link_reads = _run_link(script, times)
    assert link_grants == grants
    assert [r[:-1] for r in link_reads] == [
        _oracle_reads(script, grants, t) for t in times]
    assert [r[-1] for r in link_reads] == _peaks_by_rule(script, grants, times)
