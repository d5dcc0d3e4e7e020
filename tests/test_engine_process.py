"""Unit tests for generator-based processes."""

import pytest

from repro.engine import Interrupt, Simulator


def test_process_advances_time(sim):
    trace = []

    def worker():
        trace.append(sim.now)
        yield sim.timeout(10)
        trace.append(sim.now)
        yield sim.timeout(5)
        trace.append(sim.now)

    sim.process(worker())
    sim.run()
    assert trace == [0.0, 10.0, 15.0]


def test_process_return_value_via_join(sim):
    def child():
        yield sim.timeout(3)
        return "result"

    results = []

    def parent():
        value = yield sim.process(child())
        results.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert results == [(3.0, "result")]


def test_run_until_process_returns_its_value(sim):
    def child():
        yield sim.timeout(1)
        return 99

    assert sim.run(until=sim.process(child())) == 99


def test_process_requires_generator(sim):
    def not_a_generator():
        return 5

    with pytest.raises(TypeError):
        sim.process(not_a_generator())  # type: ignore[arg-type]


def test_yielding_non_event_raises(sim):
    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(TypeError, match="may[ \n]*only yield Event"):
        sim.run()


def test_exception_propagates_to_joiner(sim):
    def child():
        yield sim.timeout(1)
        raise ValueError("inner")

    caught = []

    def parent():
        try:
            yield sim.process(child())
        except ValueError as e:
            caught.append(str(e))

    sim.process(parent())
    sim.run()
    assert caught == ["inner"]


def test_unobserved_crash_aborts_run(sim):
    def crasher():
        yield sim.timeout(1)
        raise RuntimeError("nobody is watching")

    sim.process(crasher())
    with pytest.raises(RuntimeError, match="unhandled exception"):
        sim.run()


def test_interrupt_raises_inside_process(sim):
    log = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(7)
        proc.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    assert log == [(7.0, "wake up")]


def test_interrupt_finished_process_is_error(sim):
    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_interrupted_wait_does_not_fire_twice(sim):
    """After an interrupt, the stale waitable must not resume the process."""
    log = []

    def sleeper():
        try:
            yield sim.timeout(10)
            log.append("timeout")
        except Interrupt:
            log.append("interrupted")
            yield sim.timeout(20)
            log.append("second-sleep-done")

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(5)
        proc.interrupt()

    sim.process(interrupter())
    sim.run()
    assert log == ["interrupted", "second-sleep-done"]
    assert sim.now == 25.0


def test_two_processes_interleave_deterministically(sim):
    order = []

    def worker(name, delay):
        for _ in range(3):
            yield sim.timeout(delay)
            order.append((sim.now, name))

    sim.process(worker("a", 2))
    sim.process(worker("b", 3))
    sim.run()
    # At t=6 both fire; "b" scheduled its timeout first (at t=3, vs
    # t=4 for "a"), so it resumes first — scheduling order breaks ties.
    assert order == [
        (2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a"), (9.0, "b")
    ]


def test_shared_timeout_wakes_every_waiter_in_registration_order(sim):
    """A process, a callback, an AllOf and a second process wait on one
    timeout, registered in that order: the first process is resumed
    directly, the rest through callbacks, and all wake at 5 in that
    order (the AllOf's own waiters run after, through the queue)."""
    log = []
    t = sim.timeout(5, value="v")

    def first():
        log.append(("first", (yield t), sim.now))

    def second(both):
        value = yield t
        log.append(("second", value, sim.now, both.triggered))

    def all_of_waiter(both):
        log.append(("all_of", (yield both), sim.now))

    def register_waiters():
        sim.process(first())
        yield sim.timeout(0)  # runs after first() has registered
        t.add_callback(lambda ev: log.append(("callback", ev.value, sim.now)))
        both = sim.all_of([t])
        sim.process(all_of_waiter(both))
        sim.process(second(both))

    sim.process(register_waiters())
    sim.run()
    assert log == [
        ("first", "v", 5.0),
        ("callback", "v", 5.0),
        ("second", "v", 5.0, True),
        ("all_of", {t: "v"}, 5.0),
    ]


def test_pending_timeout_is_not_triggered(sim):
    """A timeout carries its value from creation but has not fired: an
    AllOf over it waits for the firing."""
    t = sim.timeout(3, value="v")
    assert not t.triggered
    both = sim.all_of([t])
    assert not both.triggered
    sim.run()
    assert t.triggered and both.value == {t: "v"}


def test_run_until_a_timeout_a_process_waits_on(sim):
    """The run stops right after the timeout's delivery, which resumed
    its waiter; the rest of that instant stays pending."""
    log = []
    t = sim.timeout(4, value="v")

    def waiter():
        log.append(((yield t), sim.now))
        yield sim.timeout(1)
        log.append("slept")

    sim.process(waiter())
    sim.schedule(4, log.append, "later at 4")
    assert sim.run(until=t) == "v"
    assert log == [("v", 4.0)]
    assert sim.now == 4.0
    assert sim.pending == 2
    sim.run()
    assert log == [("v", 4.0), "later at 4", "slept"]


def test_interrupted_process_rewaiting_on_its_timeout_resumes_once(sim):
    """Interrupted while it waits on a timeout, a process catches the
    interrupt and yields the same, still pending, timeout: it resumes
    once, when the timeout fires.  Yielding the fired timeout once more
    resumes it through the queue, behind the instant's other events."""
    log = []
    t = sim.timeout(10, value="t")
    sim.schedule(10, log.append, "other at 10")

    def sleeper():
        try:
            yield t
        except Interrupt:
            log.append(("interrupted", sim.now))
            log.append(("woke", (yield t), sim.now))
        log.append(("again", (yield t), sim.now))
        yield sim.timeout(3)
        log.append(("slept", sim.now))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(5)
        proc.interrupt()

    sim.process(interrupter())
    sim.run()
    assert log == [
        ("interrupted", 5.0),
        ("woke", "t", 10.0),
        "other at 10",
        ("again", "t", 10.0),
        ("slept", 13.0),
    ]


def test_interrupted_wait_on_a_timeout_is_not_resumed_by_it(sim):
    """The timeout a process was interrupted out of fires while the
    process waits on another one: it stays asleep until its own."""
    log = []

    def sleeper():
        try:
            yield sim.timeout(10)
        except Interrupt:
            log.append(((yield sim.timeout(20, value="own")), sim.now))

    proc = sim.process(sleeper())
    sim.schedule(5, proc.interrupt)
    sim.run()
    assert log == [("own", 25.0)]


def test_yielding_a_timeout_of_another_simulator_raises(sim):
    other = Simulator()
    log = []

    def stray():
        yield other.timeout(1)
        log.append("resumed")

    sim.process(stray())
    with pytest.raises(ValueError, match="another simulator"):
        sim.run()
    other.run()
    assert log == []
