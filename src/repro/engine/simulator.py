"""The simulator core: a deterministic event queue and clock.

The event queue is a calendar keyed on *exact* timestamps: a dict maps
each pending time to a flat FIFO bucket, and a heap holds the distinct
pending times.  Anton's latency model draws every delay from a small
discrete set (wire hops, ring traversals, fixed serialization times),
so at any instant the pending events share only a few distinct
timestamps: a same-instant schedule costs two list appends, and the
heap turns once per timestamp rather than once per event.

A bucket stores each event as two consecutive slots, the action and
its args tuple, with no ``(action, args)`` entry tuple around them; the
hot schedulers pass a plain function with its owner as the first
argument rather than a freshly bound method.  The args tuple is then
the only object an event allocates.

The garbage collector: :meth:`Simulator.run` pauses the cyclic
collector for the run and restores its previous state on every way
out, without ever collecting.  No run loop makes cyclic garbage (the
objects of an event are freed by reference counting as it retires), so
the collector's passes inside the loop only traversed the live machine
and freed nothing: on the paper's 8×8×8 step pair they were 36–42% of
the host time.  ``tests/test_engine_gc.py`` pins that every run leaves
zero cyclic garbage and that a dropped machine is freed at once.

Ordering contract: events run in ``(time, scheduling order)`` order.
Appends happen in scheduling order, so FIFO order within a bucket is
that order and no sequence number is needed.  An action that schedules
at the current instant appends to the bucket being drained, behind
every event already there.  This determinism makes every simulation in
this package fully reproducible — a requirement for the trace-diffing
tests and the committed result digests.

Observation: two run-loop observers exist, the periodic monitor hook
(:meth:`Simulator.set_monitor_hook`) and the per-event engine profiler
(:meth:`Simulator.set_profiler`).  :meth:`Simulator.run` binds both
once on entry and then executes one of two loop bodies: the bare body
when neither is attached, which per event only calls the action and
tests for the stop event and a crash, or the observed body otherwise.
Construction observers (:func:`add_new_sim_hook`) are how ambient
sessions attach those observers to every simulator they see built.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from time import perf_counter_ns
from types import FunctionType, MethodType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.engine.event import AllOf, AnyOf, Event, Timeout
from repro.engine.process import Coroutine, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.profile.profiler import EngineProfiler


# ---------------------------------------------------------------------------
# Construction observers
# ---------------------------------------------------------------------------
#: Observers called once per :class:`Simulator` construction.  This is
#: how ambient sessions (the engine profiler, the run meter that feeds
#: ``RunResult.meta``) find every simulator an experiment builds
#: without parameter threading — the same reach-the-machinery problem
#: ``use_monitoring`` solves at ``build_machine``, solved one layer
#: lower so simulators without machines are covered too.  The disabled
#: fast path costs one truthiness test per *construction*, never per
#: event.
_NEW_SIM_HOOKS: list[Callable[["Simulator"], None]] = []


def add_new_sim_hook(
    hook: Callable[["Simulator"], None],
) -> Callable[["Simulator"], None]:
    """Register ``hook(sim)`` to run on every Simulator construction.

    Returns the hook so callers can keep the handle for
    :func:`remove_new_sim_hook`.  Hooks must be passive with respect to
    simulation semantics: attaching observers is fine, scheduling
    events is not.
    """
    _NEW_SIM_HOOKS.append(hook)
    return hook


def remove_new_sim_hook(hook: Callable[["Simulator"], None]) -> None:
    """Unregister a construction observer (missing hooks are ignored)."""
    try:
        _NEW_SIM_HOOKS.remove(hook)
    except ValueError:
        pass


class Simulator:
    """Discrete-event simulator with nanosecond float time."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Pending time -> FIFO bucket ``[fn, args, fn, args, ...]``.
        self._buckets: dict[float, list] = {}
        #: Heap of the distinct times in ``_buckets``.
        self._times: list[float] = []
        #: Events of the head bucket already executed, set only while
        #: the monitor hook runs (see :attr:`pending`).
        self._done: int = 0
        self._crashes: list[tuple[Process, BaseException]] = []
        #: Events executed by :meth:`run` — the engine's own telemetry.
        self.events_executed: int = 0
        #: Host wall-clock ns spent inside :meth:`run` (one clock read
        #: at entry and one at exit, none per event): the denominator
        #: of a run's events-per-second.
        self.loop_wall_ns: int = 0
        #: Optional periodic observer, see :meth:`set_monitor_hook`.
        self._monitor_hook: Optional[Callable[[float], float]] = None
        self._monitor_due: float = 0.0
        #: Optional engine self-profiler, see :meth:`set_profiler`.
        self._profiler: "Optional[EngineProfiler]" = None
        if _NEW_SIM_HOOKS:
            for hook in list(_NEW_SIM_HOOKS):
                hook(self)

    # -- scheduling -------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [fn, args]
            heappush(self._times, when)
        else:
            bucket.append(fn)
            bucket.append(args)

    def schedule_now(self, fn: Callable[..., None], args: tuple) -> None:
        """Run ``fn(*args)`` at the current instant, after every event
        already scheduled for it: :meth:`schedule` with zero delay, but
        taking ``args`` as one tuple, so a caller holding a stored
        continuation pays no star-args repacking (the link grant's hot
        path)."""
        now = self.now
        bucket = self._buckets.get(now)
        if bucket is None:
            self._buckets[now] = [fn, args]
            heappush(self._times, now)
        else:
            bucket.append(fn)
            bucket.append(args)

    def _schedule_event(self, delay: float, event: Event) -> None:
        """Internal: arrange for ``event``'s callbacks to fire after ``delay``."""
        self.schedule(delay, self._fire, event)

    def _dispatch(self, event: Event) -> None:
        """Internal: an event was triggered now; run its callbacks now.

        Callbacks run through the queue (at the current time, one event
        each, in registration order) so that the triggering code
        finishes before any waiter resumes.
        """
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            args = (event,)
            for cb in callbacks:
                self.schedule_now(cb, args)

    @staticmethod
    def _fire(event: Timeout) -> None:
        """Internal: deliver a Timeout.  Static, so scheduling it
        allocates no bound method.

        Resumes the process recorded in the timeout's ``_proc`` slot
        first (if it still waits on this timeout, see
        :meth:`Process._wait_on`), then runs the callbacks, which were
        all added after it: waiters wake in registration order."""
        callbacks = event.callbacks
        event.callbacks = None
        proc = event._proc
        if proc is not None:
            event._proc = None
            if proc._waiting_on is event:
                proc._resume(event._value, None)
        if callbacks:
            for cb in callbacks:
                cb(event)

    def _record_crash(self, process: Process, error: BaseException) -> None:
        self._crashes.append((process, error))

    # -- observation -------------------------------------------------------
    def set_monitor_hook(
        self,
        hook: Optional[Callable[[float], float]],
        due: float = 0.0,
    ) -> Optional[Callable[[float], float]]:
        """Install a periodic observer driven by the run loop itself.

        ``hook(now)`` is called at an event boundary (after the clock
        advanced, before the event's action runs) whenever ``now``
        reaches the current due time, and must return the *next* due
        time.  Unlike scheduling a recurring event, the hook lives
        outside the event queue: it occupies no queue entry, never
        keeps an idle simulation alive, and survives any number of
        :meth:`run` calls — which is what makes it the right carrier
        for always-on health monitoring (the sampler ticks ride on
        simulated activity and stop costing anything when the machine
        is idle).

        The hook must be a passive observer: reading simulator,
        network, or client state is fine; scheduling events or mutating
        state breaks the monitoring-is-bit-identical guarantee.  Install
        before :meth:`run`: the run loop binds the hook at entry, and a
        run with no observer executes the bare loop body, which tests
        for none.  Returns the previous hook; pass ``None`` to uninstall.
        """
        prev = self._monitor_hook
        self._monitor_hook = hook
        self._monitor_due = due
        return prev

    def set_profiler(
        self, profiler: "Optional[EngineProfiler]"
    ) -> "Optional[EngineProfiler]":
        """Install (or with ``None`` remove) the engine self-profiler.

        While installed, :meth:`run` accounts the wall-clock cost and
        count of every executed event to the profiler, classified by
        event type, owning component, and open simulation phase.  The
        profiler is a passive wall-clock observer — it never touches
        simulated time or the queue, so profiled runs are bit-identical
        to unprofiled ones.  Attach before calling :meth:`run`; the run
        loop binds the profiler at entry, like the monitor hook.
        Returns the previous profiler.
        """
        prev = self._profiler
        self._profiler = profiler
        return prev

    @property
    def pending(self) -> int:
        """Scheduled callbacks currently awaiting execution.

        Exact between :meth:`run` calls and inside the monitor hook,
        where the head bucket's executed prefix (the event about to run
        included) is subtracted.  The run loop deletes that prefix only
        when it leaves the bucket, so no per-event bookkeeping is spent
        keeping this count.  A bucket holds two slots per event.
        """
        return (sum(map(len, self._buckets.values())) >> 1) - self._done

    # -- waitable factories ------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a pending one-shot event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ns."""
        return Timeout(self, delay, value)

    def process(self, generator: Coroutine, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for every event in ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Wait for the first event in ``events``."""
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------------
    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue is empty.
            a float
                run until simulated time reaches that many ns.
            an :class:`Event`
                run until the event fires; returns its value, or raises
                its exception if it failed.  An event that has already
                fired returns (or raises) at once, before any event runs.

        The monitor hook and the profiler are bound once, on entry.
        With neither attached the run executes the bare loop body
        (:meth:`_run_bare`), which per event only calls the action and
        tests for the stop event and a crash; otherwise it executes the
        observed body (:meth:`_run_observed`).  Both drain the earliest
        bucket in place.  However they leave a bucket — drained, stop
        event fired, process crashed, an exception escaping an action —
        they delete only the executed prefix, so the rest of that
        instant runs first, in order, on the next call.

        The cyclic garbage collector is disabled for the run; whether
        it was enabled on entry is restored on every way out, so a
        nested run leaves it as its caller's run set it.

        Raises
        ------
        RuntimeError
            If a process crashed and nothing was waiting on it, the
            underlying exception is chained and re-raised here so that
            programming errors inside processes are never silent.
        """
        stop_time: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            # An event has fired once its callbacks are spent.  A
            # Timeout carries its value from creation but fires later.
            if until.callbacks is None:
                return _outcome(until)
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self.now})"
                )

        monitor_hook = self._monitor_hook
        profiler = self._profiler
        gc_was_enabled = gc.isenabled()
        gc.disable()
        loop_t0 = perf_counter_ns()
        try:
            if monitor_hook is None and profiler is None:
                stopped = self._run_bare(stop_time, stop_event)
            else:
                stopped = self._run_observed(
                    stop_time, stop_event, monitor_hook, profiler, loop_t0)
        finally:
            loop_ns = perf_counter_ns() - loop_t0
            if gc_was_enabled:
                gc.enable()
            self.loop_wall_ns += loop_ns
            if profiler is not None:
                profiler.account_loop(loop_ns)
        if stopped:
            return _outcome(stop_event)
        if stop_event is not None:
            raise RuntimeError(
                "simulation ran out of events before the awaited event "
                f"{stop_event!r} triggered (deadlock?)"
            )
        if stop_time is not None:
            self.now = stop_time
        return None

    def _run_bare(self, stop_time: Optional[float],
                  stop_event: Optional[Event]) -> bool:
        """The loop body with no observer; True when ``stop_event``
        fired, False when the queue ran dry or ``stop_time`` was
        reached."""
        buckets = self._buckets
        times = self._times
        crashes = self._crashes
        while times:
            when = times[0]
            if stop_time is not None and when > stop_time:
                return False
            self.now = when
            bucket = buckets[when]
            # Events of this bucket executed so far.  Zipping one
            # iterator with itself walks the slots in (fn, args) pairs,
            # reusing zip's result tuple, and also visits events
            # appended while the bucket drains.
            done = 0
            slots = iter(bucket)
            try:
                for fn, args in zip(slots, slots):
                    done += 1
                    fn(*args)
                    if stop_event is not None and stop_event.callbacks is None:
                        return True
                    if crashes:
                        self._raise_crash()
            finally:
                self._leave(when, bucket, done)
        return False

    def _run_observed(
        self,
        stop_time: Optional[float],
        stop_event: Optional[Event],
        monitor_hook: Optional[Callable[[float], float]],
        profiler: "Optional[EngineProfiler]",
        t_prev: int,
    ) -> bool:
        """:meth:`_run_bare` plus the monitor hook and the profiler's
        per-event accounting, either of which may be ``None``."""
        buckets = self._buckets
        times = self._times
        crashes = self._crashes
        if profiler is not None:
            # Hot-path state: the phase-keyed rec cache maps a stable
            # per-call-site key (a code object) straight to the
            # [count, wall_ns] accumulator for the current phase;
            # rec_for is the cold path that classifies and primes it.
            cache_get = profiler.rec_cache.get
            rec_slow = profiler.rec_for
            pc = perf_counter_ns
            # A Timeout delivery runs whichever process waits on it, so
            # its call site is no key: it is classified per event.
            fire_code = Simulator._fire.__code__
        while times:
            when = times[0]
            if stop_time is not None and when > stop_time:
                return False
            self.now = when
            bucket = buckets[when]
            done = 0
            slots = iter(bucket)
            try:
                for fn, args in zip(slots, slots):
                    done += 1
                    if (monitor_hook is not None
                            and when >= self._monitor_due):
                        self._monitor_due = self._observe(
                            monitor_hook, when, done)
                    if profiler is None:
                        fn(*args)
                    else:
                        # Inline key derivation for the two common
                        # callable shapes (plain function, bound python
                        # method); everything else takes the cold path.
                        # Timing is chained — one clock read per event —
                        # so an event's wall is dispatch-inclusive: it
                        # covers the queue walk, hook dispatch, and this
                        # bookkeeping that delivered it, not just its
                        # body.
                        fcls = fn.__class__
                        if fcls is FunctionType:
                            key = fn.__code__
                            if key is fire_code:
                                key = None  # resolve the waiter cold
                        elif fcls is MethodType:
                            obj = fn.__self__
                            if obj.__class__ is Process:
                                key = obj.generator.gi_code
                            else:
                                key = fn.__func__.__code__
                        else:
                            key = None
                        rec = cache_get(key) if key is not None else None
                        if rec is None:
                            rec = rec_slow(fn, args, key)
                        fn(*args)
                        t_now = pc()
                        rec[0] += 1
                        rec[1] += t_now - t_prev
                        t_prev = t_now
                    if stop_event is not None and stop_event.callbacks is None:
                        return True
                    if crashes:
                        self._raise_crash()
            finally:
                self._leave(when, bucket, done)
        return False

    def _leave(self, when: float, bucket: list, done: int) -> None:
        """Count the ``done`` executed events of the head bucket and
        delete their slots, dropping the bucket once it is drained."""
        self.events_executed += done
        done += done
        if done < len(bucket):
            del bucket[:done]
        else:
            del self._buckets[when]
            heappop(self._times)

    def _observe(self, hook: Callable[[float], float], when: float,
                 done: int) -> float:
        """Call the monitor hook with the head bucket's first ``done``
        events counted as executed, as :attr:`pending` and
        :attr:`events_executed` would read between runs."""
        self._done = done
        self.events_executed += done
        try:
            return hook(when)
        finally:
            self._done = 0
            self.events_executed -= done

    def _raise_crash(self) -> None:
        proc, err = self._crashes.pop(0)
        self._crashes.clear()
        raise RuntimeError(f"unhandled exception in process {proc.name!r}") from err


def _outcome(event: Event) -> Any:
    """A fired event's value, or its exception raised."""
    if event.ok:
        return event.value
    raise event._value  # type: ignore[misc]
