"""Property-based tests for the simulation engine."""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Interrupt, Resource, Simulator


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


#: One step of a process script: wait on the first pending shared
#: timeout at or after a pool index (cyclically), or interrupt a
#: process by index if it is still alive.
SCRIPT_STEP = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, 5)),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
)


@given(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 5), st.lists(SCRIPT_STEP, max_size=6)),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_shared_timeouts_resume_each_yield_once_in_order(delays, scripts):
    """Processes share a pool of timeouts and interrupt each other.

    Every yield resumes its process exactly once: with its timeout's
    value at the timeout's firing time, or with an interrupt at the
    instant it was issued.  Resumes come in ``(time, registration)``
    order: at one instant, the pool's firings run in creation order,
    each waking its waiters in the order of their first wait on it,
    and the interrupts issued at that instant run after, in issue
    order.  Only pending timeouts are yielded (an already fired one is
    delivered through the queue instead).
    """
    sim = Simulator()
    pool = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
    procs: list = []
    yields: list[tuple[int, int]] = []  # yield id -> (process, pool index)
    first_wait: dict[tuple[int, int], int] = {}
    issued: dict[int, list[tuple[float, int]]] = {}
    resumes: list[tuple[int, float, object]] = []
    issue_seq = count()

    def pending_from(i):
        for k in range(len(pool)):
            j = (i + k) % len(pool)
            if not pool[j].triggered:
                return j
        return None

    def proc(me, start, script):
        for kind, arg in [("wait", start), *script]:
            if kind == "interrupt":
                victim = arg % len(procs)
                if procs[victim].is_alive:
                    issued.setdefault(victim, []).append(
                        (sim.now, next(issue_seq)))
                    procs[victim].interrupt()
                continue
            j = pending_from(arg)
            if j is None:
                continue
            yid = len(yields)
            yields.append((me, j))
            first_wait.setdefault((me, j), yid)
            try:
                value = yield pool[j]
            except Interrupt:
                value = Interrupt
            resumes.append((yid, sim.now, value))

    for me, (start, script) in enumerate(scripts):
        procs.append(sim.process(proc(me, start, script)))
    sim.run()

    assert sorted(yid for yid, _, _ in resumes) == list(range(len(yields)))
    order_keys = []
    delivered: dict[int, list[float]] = {}
    for yid, now, value in resumes:
        me, j = yields[yid]
        if value is Interrupt:
            delivered.setdefault(me, []).append(now)
            seq = issued[me][len(delivered[me]) - 1][1]
            order_keys.append((now, 1, seq, 0))
        else:
            assert (value, now) == (j, delays[j])
            order_keys.append((now, 0, j, first_wait[(me, j)]))
    assert order_keys == sorted(order_keys)
    for me, times in delivered.items():
        assert times == [t for t, _ in issued[me][:len(times)]]
