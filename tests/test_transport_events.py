"""The transport's engine-event budget on the yardstick workload.

A link direction is a booking slot, and a hop's grant is known when it
is booked: the hop schedules its next step there, at the time its head
reaches the next node, so no grant is an event and no hop schedules a
release.  The last hop of a unicast packet schedules its ``_arrive``
directly (a node-local packet at injection), and on a fault-free network the hop into a multicast leaf
(no children, one client) schedules its delivery directly.  An
``mdstep`` 2×2×2 step pair pins its exact engine-event count, and every
scheduler entry point is watched for an event whose function belongs to
:class:`~repro.network.link.TorusLink` or to the booking slot it is,
for a transit grant event and for a visit into a leaf, so none can
come back unnoticed.  A unit hold books the same slot and schedules
its continuation at its end, so no hold's start is an event either.
"""

from repro.engine.simulator import Simulator
from repro.network.link import LinkId, TorusLink
from repro.network.network import _McastTransit
from repro.runner import ExperimentSpec, run_experiment

#: Engine events of the ``mdstep`` 2×2×2 step pair (rounds=2).  A
#: scheduled link release per hop made it 76,179, a grant event per
#: queued hop with a visit per leaf and a final ``_next_hop`` per
#: unicast packet made it 60,666, a ``_next_hop`` per node-local
#: packet made it 37,249, and a start event per hold queued on a busy
#: unit made it 35,813.
MDSTEP_222_EVENTS = 35_138


def _owned_by_link(fn) -> bool:
    """A link's function: bound to a link, or defined on it or on the
    booking slot it is (``Resource``)."""
    owner = getattr(fn, "__self__", None)
    return (isinstance(owner, TorusLink)
            or getattr(fn, "__qualname__", "").startswith(
                ("TorusLink.", "Resource.")))


def _is_transit_grant(fn) -> bool:
    return getattr(fn, "__qualname__", "") in (
        "_UcastTransit._granted", "_McastTransit._granted")


def _is_leaf_visit(fn, args) -> bool:
    if fn is not _McastTransit._visit:
        return False
    entry = args[1]
    return not entry.forward and len(entry.local_clients) == 1


def test_mdstep_pair_runs_no_link_event(monkeypatch):
    link_events = []
    grant_events = []
    leaf_visits = []
    seen = [0]

    def watch(name, fn_at, packed):
        scheduler = getattr(Simulator, name)

        def watched(self, *args):
            seen[0] += 1
            fn = args[fn_at]
            fn_args = args[fn_at + 1] if packed else args[fn_at + 1:]
            if _owned_by_link(fn):
                link_events.append((name, fn))
            if _is_transit_grant(fn):
                grant_events.append((name, fn))
            if _is_leaf_visit(fn, fn_args):
                leaf_visits.append((name, fn_args[1]))
            return scheduler(self, *args)

        monkeypatch.setattr(Simulator, name, watched)

    # schedule(delay, fn, *args), schedule_at(when, fn, args) and
    # schedule_now(fn, args): the position of the function, and whether
    # its args come as one tuple.
    watch("schedule", 1, False)
    watch("schedule_at", 1, True)
    watch("schedule_now", 0, True)
    result = run_experiment(ExperimentSpec("mdstep", shape=(2, 2, 2),
                                           rounds=2))
    assert link_events == []
    assert grant_events == []
    assert leaf_visits == []
    assert result.meta["events_executed"] == MDSTEP_222_EVENTS
    assert seen[0] >= MDSTEP_222_EVENTS  # every event passed the watch
    # The watch would see a link's function, bound or plain.
    link = TorusLink(Simulator(), LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    assert _owned_by_link(link.book) and _owned_by_link(TorusLink.book)
