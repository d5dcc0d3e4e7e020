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
The monitor hook samples on a fixed grid of simulated time, as a logic
analyzer samples on its clock: the observed body calls it between
instants, once per grid time it crosses, never from inside a bucket.
What a sample reads is then the model state after every event at or
before its grid time, whatever engine events surround it.

Attachment: a simulator reads the instrument slots
(:mod:`repro.instruments`) once, at construction.  It attaches the
``profiler`` slot's profiler, and appends itself to the ``sims`` slot's
list, which is how ``run_experiment`` counts every run loop of a run.
A simulator built before a profiler is installed is profiled only if
the profiler is attached to it explicitly.  The monitor hook is set by
the ``monitor`` slot's session when a machine is built on the
simulator.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from math import ceil, inf
from time import perf_counter_ns
from types import FunctionType, MethodType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro import instruments
from repro.engine.event import AllOf, Event, Timeout
from repro.engine.process import Coroutine, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.profile.profiler import EngineProfiler


class Simulator:
    """Discrete-event simulator with nanosecond float time."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Pending time -> FIFO bucket ``[fn, args, fn, args, ...]``.
        self._buckets: dict[float, list] = {}
        #: Heap of the distinct times in ``_buckets``.
        self._times: list[float] = []
        self._crashes: list[tuple[Process, BaseException]] = []
        #: Events executed by :meth:`run` — the engine's own telemetry.
        self.events_executed: int = 0
        #: Host wall-clock ns spent inside :meth:`run` (one clock read
        #: at entry and one at exit, none per event): the denominator
        #: of a run's events-per-second.
        self.loop_wall_ns: int = 0
        #: Optional periodic observer and its grid, see
        #: :meth:`set_monitor_hook`: the next grid time to sample is
        #: ``_monitor_k * _monitor_interval``.
        self._monitor_hook: Optional[Callable[[float], None]] = None
        self._monitor_interval: float = 0.0
        self._monitor_k: int = 0
        #: Optional engine self-profiler, see :meth:`set_profiler`.
        self._profiler: "Optional[EngineProfiler]" = None
        slots = instruments.current()
        if slots.profiler is not None:
            slots.profiler.attach(self)
        if slots.sims is not None:
            slots.sims.append(self)

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
        continuation pays no star-args repacking (an event's callback
        dispatch)."""
        now = self.now
        bucket = self._buckets.get(now)
        if bucket is None:
            self._buckets[now] = [fn, args]
            heappush(self._times, now)
        else:
            bucket.append(fn)
            bucket.append(args)

    def schedule_at(self, when: float, fn: Callable[..., None],
                    args: tuple) -> None:
        """Run ``fn(*args)`` at the absolute time ``when`` (a link's
        booked grant): a delay of ``when - now`` could round off it."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when!r})")
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [fn, args]
            heappush(self._times, when)
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
        hook: Optional[Callable[[float], None]],
        interval_ns: float = 0.0,
    ) -> None:
        """Install a periodic observer on the grid ``k·interval_ns``.

        The grid starts at the first multiple of ``interval_ns`` at or
        after :attr:`now`; each grid time is computed from its integer
        ``k``, so no error builds up over a long run.  The run loop
        calls ``hook(t)`` once for every grid time ``t`` it crosses,
        idle gaps included: before it starts the first bucket later
        than ``t``, with the clock reading ``t``.  The hook so sees
        exactly the events at or before ``t`` executed and every later
        one pending, also across :meth:`run` calls that stop mid-bucket.
        Grid times after a run's last event are owed to the next bucket
        that runs.  Unlike a recurring event, the hook occupies no queue
        entry and never keeps an idle simulation alive.

        The hook must be a passive observer: reading simulator,
        network, or client state is fine; scheduling events or mutating
        state breaks the monitoring-is-bit-identical guarantee.  Install
        before :meth:`run`: the run loop binds the hook at entry, and a
        run with no observer executes the bare loop body, which tests
        for none.  One hook per simulator; pass ``None`` to uninstall.
        """
        self._monitor_hook = hook
        if hook is None:
            return
        if not interval_ns > 0:
            raise ValueError(
                f"interval_ns must be positive, got {interval_ns}")
        self._monitor_interval = interval_ns
        # A rounded quotient can put ceil() one past the first grid time.
        k = ceil(self.now / interval_ns) - 1
        while k * interval_ns < self.now:
            k += 1
        self._monitor_k = k

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

        Exact between instants: between :meth:`run` calls and inside the
        monitor hook, which runs between buckets.  The run loop deletes
        a bucket's executed prefix when it leaves the bucket, so no
        per-event bookkeeping is spent keeping this count.  A bucket
        holds two slots per event.
        """
        return sum(map(len, self._buckets.values())) >> 1

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
        monitor_hook: Optional[Callable[[float], None]],
        profiler: "Optional[EngineProfiler]",
        t_prev: int,
    ) -> bool:
        """:meth:`_run_bare` plus the monitor hook, checked once per
        bucket, and the profiler's per-event accounting, either of
        which may be ``None``."""
        buckets = self._buckets
        times = self._times
        crashes = self._crashes
        due = (inf if monitor_hook is None
               else self._monitor_k * self._monitor_interval)
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
            if when > due:
                due = self._sample_grid(monitor_hook, when)
            self.now = when
            bucket = buckets[when]
            done = 0
            slots = iter(bucket)
            try:
                for fn, args in zip(slots, slots):
                    done += 1
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

    def _sample_grid(self, hook: Callable[[float], None],
                     when: float) -> float:
        """Call ``hook`` once for every grid time before ``when``, with
        the clock on that grid time (probes read it, a link's busy time
        for one); return the first grid time at or after ``when``.  Each
        grid time is counted as sampled before its call, so a hook that
        raises is not called for it again."""
        step = self._monitor_interval
        while True:
            due = self._monitor_k * step
            if due >= when:
                return due
            self._monitor_k += 1
            self.now = due
            hook(due)

    def _raise_crash(self) -> None:
        proc, err = self._crashes.pop(0)
        self._crashes.clear()
        raise RuntimeError(f"unhandled exception in process {proc.name!r}") from err


def _outcome(event: Event) -> Any:
    """A fired event's value, or its exception raised."""
    if event.ok:
        return event.value
    raise event._value  # type: ignore[misc]
