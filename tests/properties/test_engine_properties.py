"""Property-based tests for the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Resource, Simulator


#: The discrete delays an action schedules its children at: zero
#: (appended to the bucket while it drains) and a few small
#: wire-hop-like steps that land on shared timestamps.
STEP = st.sampled_from([0.0, 0.0, 1.0, 4.0, 8.0])

#: An action: ``(delay, children, fanout)``.  When it runs it schedules
#: each child, then (if ``fanout`` is ``(k, delay)``) registers ``k``
#: waiters on a fresh event and schedules the ``succeed`` after delay.
ACTION = st.recursive(
    st.tuples(STEP, st.just(()), st.none()),
    lambda kids: st.tuples(
        STEP,
        st.lists(kids, max_size=3).map(tuple),
        st.none() | st.tuples(st.integers(1, 4), STEP),
    ),
    max_leaves=24,
)


@given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.integers(0, 99)),
                min_size=1, max_size=60),
       st.lists(ACTION, max_size=6))
@settings(max_examples=150, deadline=None)
def test_events_execute_in_time_then_insertion_order(entries, actions):
    """Every issued callback runs, in ``(time, issue order)`` order.

    The oracle is built in the test, not read from the engine: each
    schedule appends ``(time, issue index)`` to ``issued`` — an
    ``Event.succeed`` fan-out issues its waiters then, in registration
    order — and the run must execute exactly ``sorted(issued)``.
    """
    sim = Simulator()
    issued: list[tuple[float, int]] = []
    seen: list[tuple[float, int]] = []

    def issue(delay, fn, *args):
        label = len(issued)
        issued.append((sim.now + delay, label))
        sim.schedule(delay, fn, label, *args)

    def leaf(label):
        seen.append((sim.now, label))

    def act(label, children, fanout):
        seen.append((sim.now, label))
        for delay, kids, fan in children:
            issue(delay, act, kids, fan)
        if fanout is not None:
            k, delay = fanout
            event = sim.event()
            labels: list[int] = []
            for i in range(k):
                event.add_callback(
                    lambda ev, i=i: seen.append((sim.now, labels[i])))
            issue(delay, trigger, event, labels)

    def trigger(label, event, labels):
        seen.append((sim.now, label))
        for _ in event.callbacks:
            labels.append(len(issued))
            issued.append((sim.now, len(issued)))
        event.succeed()

    for delay, _tag in entries:
        issue(delay, leaf)
    for delay, children, fanout in actions:
        issue(delay, act, children, fanout)
    sim.run()
    assert seen == sorted(issued)
    assert sim.events_executed == len(issued)
    assert sim.pending == 0


@given(st.integers(1, 5),
       st.lists(st.floats(1.0, 50.0), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_resource_conservation_and_fcfs(capacity, durations):
    """No over-subscription, and completions in FCFS batches."""
    sim = Simulator()
    r = Resource(sim, capacity=capacity)
    max_seen = []
    done = []

    def worker(i, dur):
        yield from r.use(dur)
        done.append(i)

    def monitor():
        while True:
            max_seen.append(r.in_use)
            yield sim.timeout(0.5)

    procs = [sim.process(worker(i, d)) for i, d in enumerate(durations)]
    mon = sim.process(monitor())
    sim.run(until=sim.all_of(procs))
    assert max(max_seen) <= capacity
    assert sorted(done) == list(range(len(durations)))
    if capacity == 1:
        # Strict FCFS with one server: completion order = arrival order.
        assert done == list(range(len(durations)))


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_clock_never_goes_backwards(delays):
    sim = Simulator()
    stamps = []

    def proc():
        for d in delays:
            yield sim.timeout(d)
            stamps.append(sim.now)

    sim.process(proc())
    sim.run()
    assert stamps == sorted(stamps)
    assert sim.now == sum(delays)
