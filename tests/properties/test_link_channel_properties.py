"""Property: a torus link's booking channel is an engine ``Resource`` of
capacity 1.

The link keeps one booking slot, ``free_at``: a packet arriving at
``t`` is granted at ``max(t, free_at)`` and pushes ``free_at`` on by
its hold, so a grant is known on arrival and no release is scheduled.
The oracle is the FCFS ``Resource``, which queues a request and grants
it when the holder releases.  Both are driven by the same random script
of arrivals on integer instants, each arrival with an integer hold.
Every arrival must be granted at the same time, and ``busy_ns``,
``queue_length``, ``peak_queue_length`` and ``utilization`` read
between instants (at every half-integer time) must agree.

An instant's arrivals run after everything already due at it (the
releases and grants that fall there), as a hop's arrival follows the
packet's head latency: both runs start them from one kick per instant
that re-queues them at the back of the instant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
    for k, (when, hold) in enumerate(script):
        by_time.setdefault(when, []).append((k, hold))
    for when, arrivals in by_time.items():
        sim.schedule(when, lambda arrivals=arrivals: [
            sim.schedule_now(arrive, a) for a in arrivals])


def _read_between_instants(sim, script, read):
    """Run to every half-integer time until the channel has drained
    (a bound: the last arrival plus every hold), and read the telemetry
    there."""
    horizon = max(when for when, _ in script) + sum(h for _, h in script)
    samples = []
    t = 0.5
    while t <= horizon + 1.0:
        sim.run(until=t)
        samples.append((t,) + read())
        t += 1.0
    return samples


def _run_resource(script):
    sim = Simulator()
    res = Resource(sim, capacity=1, name="r")
    grants = {}

    def granted(k, hold):
        grants[k] = sim.now
        sim.schedule(hold, res.release)

    def arrive(k, hold):
        if res.try_acquire():
            granted(k, hold)
        else:
            res.request().add_callback(lambda _ev: granted(k, hold))

    def read():
        busy = res.total_busy_ns
        if res._busy_since is not None:
            busy += sim.now - res._busy_since
        return (busy, res.queue_length, res.peak_queue_length,
                res.utilization(), res.utilization(5.0))

    _kick(sim, script, arrive)
    return grants, _read_between_instants(sim, script, read)


def _run_link(script):
    sim = Simulator()
    link = TorusLink(sim, LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    grants = {}

    def granted(k):
        grants[k] = sim.now
        link.packets_carried += 1  # the transit counts its grants

    def arrive(k, hold):
        grant = link.book(hold)
        if grant == sim.now:
            granted(k)
        else:
            sim.schedule_at(grant, granted, (k,))

    def read():
        return (link.busy_ns, link.queue_length, link.peak_queue_length,
                link.utilization(), link.utilization(5.0))

    _kick(sim, script, arrive)
    return grants, _read_between_instants(sim, script, read)


@given(st.lists(_arrival, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_link_channel_matches_resource(script):
    link_grants, link_reads = _run_link(script)
    res_grants, res_reads = _run_resource(script)
    assert link_grants == res_grants
    assert link_reads == res_reads
