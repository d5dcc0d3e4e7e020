"""Property: a torus link's channel behaves exactly like an engine
``Resource`` of capacity 1.

The link channel queues ``(fn, args)`` continuations and grants them
through the scheduler; the ``Resource`` it replaced queued request
events whose callbacks the engine dispatched.  Both are driven here by
the same random script of arrivals (acquire, or wait when busy), holds
and releases, with probe events on the same instants.  The two runs must
log the same grants at the same times, interleave identically with the
probes, and report the same telemetry at every logged step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Resource, Simulator
from repro.network.link import LinkId, TorusLink

#: Integer instants and holds make same-instant ties common: arrivals,
#: releases, grants and probes all collide.
_instant = st.integers(0, 12).map(float)
_step = st.one_of(
    st.tuples(st.just("arrive"), _instant, st.integers(0, 4).map(float)),
    st.tuples(st.just("probe"), _instant),
)


def _resource_busy_ns(res: Resource) -> float:
    busy = res.total_busy_ns
    if res._busy_since is not None:
        busy += res.sim.now - res._busy_since
    return busy


def _telemetry(sim, queue_length, peak, busy_ns, util, util_window):
    return (sim.now, queue_length, peak, busy_ns, util, util_window)


def _run_resource(script):
    sim = Simulator()
    res = Resource(sim, capacity=1, name="r")
    log = []

    def state():
        return _telemetry(
            sim, res.queue_length, res.peak_queue_length,
            _resource_busy_ns(res), res.utilization(), res.utilization(5.0),
        )

    def granted(k, hold):
        log.append(("grant", k) + state())
        sim.schedule(hold, release, k)

    def release(k):
        res.release()
        log.append(("release", k) + state())

    def arrive(k, hold):
        if res.try_acquire():
            granted(k, hold)
        else:
            log.append(("wait", k) + state())
            req = res.request()
            req.add_callback(lambda _ev, k=k, hold=hold: granted(k, hold))

    _schedule(sim, script, arrive, lambda j: log.append(("probe", j) + state()))
    sim.run()
    return log, sim.events_executed


def _run_link(script):
    sim = Simulator()
    link = TorusLink(sim, LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    log = []

    def state():
        return _telemetry(
            sim, link.queue_length, link.peak_queue_length, link.busy_ns,
            link.utilization(), link.utilization(5.0),
        )

    def granted(k, hold):
        log.append(("grant", k) + state())
        sim.schedule(hold, release, k)

    def release(k):
        link.release()
        log.append(("release", k) + state())

    def arrive(k, hold):
        if link.try_acquire():
            granted(k, hold)
        else:
            log.append(("wait", k) + state())
            link.wait(granted, (k, hold))

    _schedule(sim, script, arrive, lambda j: log.append(("probe", j) + state()))
    sim.run()
    return log, sim.events_executed


def _schedule(sim, script, arrive, probe):
    for i, step in enumerate(script):
        if step[0] == "arrive":
            _, when, hold = step
            sim.schedule(when, arrive, i, hold)
        else:
            sim.schedule(step[1], probe, i)


@given(st.lists(_step, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_link_channel_matches_resource(script):
    link_log, link_events = _run_link(script)
    res_log, res_events = _run_resource(script)
    assert link_log == res_log
    # One scheduler entry per grant either way.
    assert link_events == res_events


def test_contended_grant_waits_for_same_instant_entries():
    """A grant is scheduled at release time, behind everything already
    queued for that instant — never run inline by the release."""
    sim = Simulator()
    link = TorusLink(sim, LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    order = []
    assert link.try_acquire()
    link.wait(order.append, ("granted",))
    sim.schedule(3.0, link.release)
    sim.schedule(3.0, order.append, "probe")
    sim.run()
    assert order == ["probe", "granted"]
    assert link.queue_length == 0 and link.peak_queue_length == 1
    assert not link.try_acquire()  # handed over, never freed


def test_release_of_idle_channel_raises():
    sim = Simulator()
    link = TorusLink(sim, LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    with pytest.raises(RuntimeError):
        link.release()
