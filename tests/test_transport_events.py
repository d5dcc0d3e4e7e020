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


#: Python calls made inside ``Simulator.run`` by the 7-to-1 incast on
#: 2×2×2 (10 rounds of 256 B counted writes, 70 packets), counting only
#: frames whose code lives in the ``repro`` package, so that the
#: standard library and CPython's generated ``__init__`` methods
#: (dataclasses, named tuples) count on no version.  A packet's fixed
#: cost sits at its two ends: its birth (``_send_step``,
#: ``ProcessingSlice.packet``, ``Packet.__init__``), its injection and
#: its delivery (``_deliver``, ``receive``, ``_receive_write``,
#: ``LocalMemory.write``, ``Buffer.write``, ``SyncCounter.increment``).
#: A dataclass birth with a ``default_factory`` id and a
#: ``__post_init__``, a call to ``is_multicast`` and to
#: ``_inorder_gate`` per injection, and a counted write looked up
#: through ``counter()`` and ``buffer()`` made it 2,613 (37.3 a
#: packet).  Resolving each send's destination through the torus,
#: though the step already held a ``NodeCoord``, made it 2,270 (32.4 a
#: packet); 2,207 is 31.5 a packet.
INCAST_222_CALLS = 2_207


def test_incast_calls_per_packet_do_not_creep_back(monkeypatch):
    import os
    import sys

    import repro

    package = os.path.dirname(repro.__file__) + os.sep
    calls = [0]
    deliveries = [0]
    run = Simulator.run

    def profiled(self, *args, **kwargs):
        def count(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code.co_filename.startswith(package):
                    calls[0] += 1
                    if code.co_name == "_deliver":
                        deliveries[0] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            return run(self, *args, **kwargs)
        finally:
            sys.setprofile(previous)

    monkeypatch.setattr(Simulator, "run", profiled)
    run_experiment(ExperimentSpec(
        "congestion", shape=(2, 2, 2), rounds=10, payload=256,
    ).with_extras(senders=7))
    assert deliveries[0] == 70
    assert calls[0] <= INCAST_222_CALLS, (
        f"{calls[0] / deliveries[0]:.2f} calls per packet")
