"""The transport's engine-event budget on the yardstick workload.

A link direction is a booking slot: a hop that finds its link free is
granted inline, and a queued hop's grant is the one event it adds.  No
hop schedules a release.  An ``mdstep`` 2×2×2 step pair pins its exact
engine-event count, and every scheduler entry point is watched for an
event whose function belongs to :class:`~repro.network.link.TorusLink`,
so a per-hop link event cannot come back unnoticed.
"""

from repro.engine.simulator import Simulator
from repro.network.link import LinkId, TorusLink
from repro.runner import ExperimentSpec, run_experiment

#: Engine events of the ``mdstep`` 2×2×2 step pair (rounds=2).  A
#: scheduled link release per hop made it 76,179.
MDSTEP_222_EVENTS = 60_666


def _owned_by_link(fn) -> bool:
    owner = getattr(fn, "__self__", None)
    return (isinstance(owner, TorusLink)
            or getattr(fn, "__qualname__", "").startswith("TorusLink."))


def test_mdstep_pair_runs_no_link_event(monkeypatch):
    link_events = []
    seen = [0]

    def watch(name, fn_at):
        scheduler = getattr(Simulator, name)

        def watched(self, *args):
            seen[0] += 1
            fn = args[fn_at]
            if _owned_by_link(fn):
                link_events.append((name, fn))
            return scheduler(self, *args)

        monkeypatch.setattr(Simulator, name, watched)

    # schedule(delay, fn, *args), schedule_at(when, fn, args) and
    # schedule_now(fn, args): the position of the function.
    watch("schedule", 1)
    watch("schedule_at", 1)
    watch("schedule_now", 0)
    result = run_experiment(ExperimentSpec("mdstep", shape=(2, 2, 2),
                                           rounds=2))
    assert link_events == []
    assert result.meta["events_executed"] == MDSTEP_222_EVENTS
    assert seen[0] >= MDSTEP_222_EVENTS  # every event passed the watch
    # The watch would see a link's function, bound or plain.
    link = TorusLink(Simulator(), LinkId((0, 0, 0), "x", 1), (1, 0, 0))
    assert _owned_by_link(link.book) and _owned_by_link(TorusLink.book)
