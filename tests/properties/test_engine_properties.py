"""Property-based tests for the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Resource, Simulator


#: The discrete delays an action schedules its children at: zero
#: (appended to the bucket while it drains) and a few small
#: wire-hop-like steps that land on shared timestamps.
STEP = st.sampled_from([0.0, 0.0, 1.0, 4.0, 8.0])

#: An action: ``(delay, children)``.  When it runs it schedules each
#: child.
ACTION = st.recursive(
    st.tuples(STEP, st.just(())),
    lambda kids: st.tuples(STEP, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=24,
)


@given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.integers(0, 99)),
                min_size=1, max_size=60),
       st.lists(ACTION, max_size=6))
@settings(max_examples=150, deadline=None)
def test_events_execute_in_time_then_insertion_order(entries, actions):
    """Every issued callback runs, in ``(time, issue order)`` order.

    The oracle is built in the test, not read from the engine: each
    schedule appends ``(time, issue index)`` to ``issued``, and the run
    must execute exactly ``sorted(issued)``.
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

    def act(label, children):
        seen.append((sim.now, label))
        for delay, kids in children:
            issue(delay, act, kids)

    for delay, _tag in entries:
        issue(delay, leaf)
    for delay, children in actions:
        issue(delay, act, children)
    sim.run()
    assert seen == sorted(issued)
    assert sim.events_executed == len(issued)
    assert sim.pending == 0


#: A hold request: ``(arrival time, hold)``.  Integer instants make
#: ties common: several arrivals at one instant, and an arrival at the
#: very instant the unit frees.
HOLD_REQUEST = st.tuples(st.integers(0, 20).map(float),
                         st.integers(1, 5).map(float))


@given(st.lists(HOLD_REQUEST, min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_resource_conservation_and_fcfs(requests):
    """One holder at a time, granted in arrival order.

    The oracle is built in the test: requests are served in (arrival,
    issue) order, each granted at ``max(arrival, previous end)`` and
    ending its hold later.  The unit is busy exactly the holds' total.
    """
    sim = Simulator()
    r = Resource(sim)
    ends: list[tuple[int, float]] = []
    for k, (when, duration) in enumerate(requests):
        sim.schedule(when, r.hold, duration,
                     lambda k=k: ends.append((k, sim.now)), ())
    sim.run()

    expected = []
    free_at = 0.0
    for when, k, duration in sorted((w, k, d) for k, (w, d) in enumerate(requests)):
        free_at = max(when, free_at) + duration
        expected.append((k, free_at))
    assert ends == expected
    assert not r.in_use
    assert r.busy_ns == sum(d for _, d in requests)


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_clock_never_goes_backwards(delays):
    sim = Simulator()
    stamps = []

    def tick(k):
        stamps.append(sim.now)
        if k < len(delays):
            sim.schedule(delays[k], tick, k + 1)

    sim.schedule(delays[0], tick, 1)
    sim.run()
    assert stamps == sorted(stamps)
    assert sim.now == sum(delays)
