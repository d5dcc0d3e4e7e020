"""The simulator core: a deterministic event queue and clock.

The simulator maintains scheduled ``(time, sequence, action)`` entries
in a pluggable :class:`~repro.engine.scheduler.Scheduler` (the
historical binary heap, or the bucketed time wheel tuned to this
machine's discrete delay set — see :mod:`repro.engine.scheduler`).
The sequence number breaks ties so that events scheduled at the same
simulated time always execute in scheduling order, which makes every
simulation in this package fully reproducible (a requirement for the
trace-diffing tests and for the paper-reproduction benchmarks) — and
is also what lets the two schedulers produce byte-identical results:
FIFO order within a time bucket *is* sequence order.
"""

from __future__ import annotations

from time import perf_counter_ns
from types import FunctionType, MethodType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.engine.event import AllOf, AnyOf, Event, Timeout
from repro.engine.process import Coroutine, Process
from repro.engine.scheduler import BATCH, FUSED, Scheduler, make_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.profile.profiler import EngineProfiler
    from repro.trace.metrics import MetricsRegistry


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


class EventHistory:
    """Bounded record of executed engine events: ``(time, action name)``.

    Installed on a simulator with :meth:`Simulator.set_event_hook` (or
    the :meth:`install` convenience), it gives the critical-path
    analyzer a view of *engine* activity — how many scheduled actions
    fired inside a phase window, and where the event storm peaks —
    without instrumenting any subsystem.  Recording is bounded so a
    runaway simulation cannot exhaust memory; overflow is counted, not
    silently dropped.
    """

    def __init__(self, capacity: int = 200_000) -> None:
        self.capacity = capacity
        self.samples: list[tuple[float, str]] = []
        #: Events seen after the capacity was reached.  Analyses (and
        #: the health verdict, which surfaces this as telemetry loss)
        #: must treat a nonzero value as "the window is truncated",
        #: not "the run had this many events".
        self.dropped = 0

    @property
    def total_seen(self) -> int:
        """Every event offered to the history, recorded or dropped."""
        return len(self.samples) + self.dropped

    def record(self, when: float, fn: Callable[..., None]) -> None:
        if len(self.samples) < self.capacity:
            name = getattr(fn, "__qualname__", None) or repr(fn)
            self.samples.append((when, name))
        else:
            self.dropped += 1

    def install(self, sim: "Simulator") -> "EventHistory":
        sim.set_event_hook(self.record)
        return self

    def count_in(self, start_ns: float, end_ns: float) -> int:
        """Events executed inside a time window (inclusive)."""
        return sum(1 for t, _ in self.samples if start_ns <= t <= end_ns)

    def density(self, bucket_ns: float) -> list[tuple[float, int]]:
        """Events per fixed-width time bucket, sorted by bucket start."""
        if bucket_ns <= 0:
            raise ValueError(f"bucket_ns must be positive, got {bucket_ns}")
        buckets: dict[float, int] = {}
        for t, _ in self.samples:
            start = (t // bucket_ns) * bucket_ns
            buckets[start] = buckets.get(start, 0) + 1
        return sorted(buckets.items())

    def __len__(self) -> int:
        return len(self.samples)


class Simulator:
    """Discrete-event simulator with nanosecond float time.

    Parameters
    ----------
    scheduler:
        The event scheduler to run on: a
        :class:`~repro.engine.scheduler.Scheduler` instance, a name
        (``"heap"`` / ``"wheel"``), or ``None`` for the ambient default
        (:func:`~repro.engine.scheduler.resolve_scheduler` — a
        ``use_scheduler`` context, ``$REPRO_SCHEDULER``, or the
        package default).  Scheduler choice never changes results —
        the cross-scheduler property suite enforces byte-identity — it
        only changes how fast the event loop turns.
    """

    def __init__(self, scheduler: "Scheduler | str | None" = None) -> None:
        self.now: float = 0.0
        self._sched: Scheduler = make_scheduler(scheduler)
        #: Canonical name of the scheduler this simulator runs on —
        #: surfaced in ``RunResult.meta`` and ledger provenance.
        self.scheduler_name: str = self._sched.name
        self._seq: int = 0
        #: Unexecuted callbacks of the batch currently draining in
        #: :meth:`run` — counted by :attr:`pending` so the health
        #: monitor's queue-depth probe reads the same value under
        #: batching schedulers as under the entry-per-event heap.
        self._drain_tail: int = 0
        self._crashes: list[tuple[Process, BaseException]] = []
        #: Events executed by :meth:`run` — the engine's own telemetry.
        self.events_executed: int = 0
        #: Host wall-clock ns spent inside :meth:`run` (one clock read
        #: at entry and one at exit, none per event): the denominator
        #: of a run's events-per-second.
        self.loop_wall_ns: int = 0
        #: Set by :meth:`repro.trace.metrics.MetricsRegistry.attach`.
        self.metrics: "Optional[MetricsRegistry]" = None
        #: Optional per-event observer, see :meth:`set_event_hook`.
        self._event_hook: Optional[Callable[[float, Callable[..., None]], None]] = None
        #: Optional periodic observer, see :meth:`set_monitor_hook`.
        self._monitor_hook: Optional[Callable[[float], float]] = None
        self._monitor_due: float = 0.0
        #: Optional engine self-profiler, see :meth:`set_profiler`.
        self._profiler: "Optional[EngineProfiler]" = None
        if _NEW_SIM_HOOKS:
            for hook in list(_NEW_SIM_HOOKS):
                hook(self)

    @property
    def scheduler(self) -> Scheduler:
        """The scheduler instance this simulator runs on."""
        return self._sched

    # -- scheduling -------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._seq += 1
        self._sched.push(self.now + delay, self._seq, fn, args)

    def schedule_now(self, fn: Callable[..., None], args: tuple) -> None:
        """Run ``fn(*args)`` at the current instant, after every entry
        already scheduled for it: :meth:`schedule` with zero delay, but
        taking ``args`` as one tuple, so a caller holding a stored
        continuation pays no star-args repacking (the link grant's hot
        path)."""
        self._seq += 1
        self._sched.push(self.now, self._seq, fn, args)

    def schedule_batch(
        self, delay: float, pairs: Sequence[tuple[Callable[..., None], tuple]]
    ) -> None:
        """Schedule many callbacks for the same instant as one entry.

        ``pairs`` is a sequence of ``(fn, args)`` tuples executed in
        order at ``now + delay``.  The callbacks receive *consecutive*
        sequence numbers, so execution order — and every observable
        byte — is identical to calling :meth:`schedule` in a loop; a
        batching scheduler just stores and drains them as one entry
        (the run loop still performs per-callback bookkeeping).  This
        is the transport layer's tool for homogeneous completion
        storms: a multicast node visit delivers to all local clients
        for ~1 scheduler entry instead of one per client.
        """
        n = len(pairs)
        if n == 0:
            return
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        if n == 1:
            fn, args = pairs[0]
            self._seq += 1
            self._sched.push(self.now + delay, self._seq, fn, args)
            return
        seq0 = self._seq + 1
        self._seq += n
        self._sched.push_batch(self.now + delay, seq0, pairs)

    def _schedule_event(self, delay: float, event: Event) -> None:
        """Internal: arrange for ``event``'s callbacks to fire after ``delay``."""
        self._seq += 1
        self._sched.push(self.now + delay, self._seq, self._fire, (event,))

    def _dispatch(self, event: Event) -> None:
        """Internal: an event was triggered now; run its callbacks now.

        Callbacks run through the queue (at the current time) so that
        the triggering code finishes before any waiter resumes.  A
        multi-waiter fan-out (an ``AllOf`` barrier releasing, a counter
        threshold waking every poller) is pushed as one batch entry:
        the callbacks hold consecutive sequence numbers either way, so
        ordering is unchanged.
        """
        callbacks = event.callbacks
        event.callbacks = None
        if not callbacks:
            return
        if len(callbacks) == 1:
            self._seq += 1
            self._sched.push(self.now, self._seq, callbacks[0], (event,))
            return
        args = (event,)
        seq0 = self._seq + 1
        self._seq += len(callbacks)
        self._sched.push_batch(
            self.now, seq0, [(cb, args) for cb in callbacks]
        )

    def _fire(self, event: Event) -> None:
        """Internal: deliver a pre-triggered event (Timeout)."""
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(event)

    def _record_crash(self, process: Process, error: BaseException) -> None:
        self._crashes.append((process, error))

    # -- observation -------------------------------------------------------
    def set_event_hook(
        self, hook: Optional[Callable[[float, Callable[..., None]], None]]
    ) -> Optional[Callable[[float, Callable[..., None]], None]]:
        """Install an observer called as ``hook(when, fn)`` just before
        each event executes; returns the previous hook.

        The hook is passive telemetry (an :class:`EventHistory`, a
        progress meter): it must not schedule events or mutate
        simulation state, and the disabled fast path costs one ``None``
        test per event.  Pass ``None`` to uninstall.  Install before
        :meth:`run`: the run loop binds observer presence at batch
        boundaries.
        """
        prev = self._event_hook
        self._event_hook = hook
        return prev

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
        outside the event queue: it consumes no sequence numbers, never
        keeps an idle simulation alive, and survives any number of
        :meth:`run` calls — which is what makes it the right carrier
        for always-on health monitoring (the sampler ticks ride on
        simulated activity and stop costing anything when the machine
        is idle).

        The hook must be a passive observer: reading simulator,
        network, or client state is fine; scheduling events or mutating
        state breaks the monitoring-is-bit-identical guarantee.  The
        disabled fast path costs one ``None`` test per event.  Returns
        the previous hook; pass ``None`` to uninstall.
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
        simulated time, the queue, or sequence numbers, so profiled
        runs are bit-identical to unprofiled ones.  Attach before
        calling :meth:`run`; the run loop binds the profiler at entry.
        The disabled fast path costs one ``None`` test per event.
        Returns the previous profiler.
        """
        prev = self._profiler
        self._profiler = profiler
        return prev

    @property
    def pending(self) -> int:
        """Scheduled callbacks currently awaiting execution.

        Counts logically — every member of a batched entry, plus the
        unexecuted tail of a batch mid-drain — so the value is
        identical whichever scheduler is installed.
        """
        return self._sched.size + self._drain_tail

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
                run until the event triggers; returns its value.

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
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self.now})"
                )

        sched = self._sched
        pop = sched.pop
        # The profiler is bound once per run() call: attach-before-run
        # is guaranteed by the construction hooks, and a local keeps
        # the per-event cost of the common disabled case at one test.
        profiler = self._profiler
        loop_t0 = perf_counter_ns()
        if profiler is not None:
            # Hot-path state, bound once per run() call: the phase-
            # keyed rec cache maps a stable per-call-site key (a code
            # object) straight to the [count, wall_ns] accumulator for
            # the current phase; rec_for is the cold path that
            # classifies and primes it.
            cache_get = profiler.rec_cache.get
            rec_slow = profiler.rec_for
            pc = perf_counter_ns
            t_prev = loop_t0
        try:
            while sched.size:
                if stop_time is not None and sched.peek_time() > stop_time:
                    self.now = stop_time
                    break
                when, seq, fn, args = pop()
                if fn is BATCH or fn is FUSED:
                    # A fused entry: callbacks sharing this instant
                    # under consecutive (BATCH) or in-order (FUSED)
                    # seqs.  Per-callback semantics (event count,
                    # hooks, stop/crash checks) are preserved; with no
                    # observer and no stop event installed the drain
                    # runs a tight loop — the engine's fast path.
                    self.now = when
                    fast = (stop_event is None and profiler is None
                            and self._event_hook is None
                            and self._monitor_hook is None)
                    if fn is FUSED:
                        # A window into the live bucket list; draining
                        # in place keeps the hot loop allocation-free.
                        entries, j, end = args
                        if fast:
                            crashes = self._crashes
                            j0 = j
                            try:
                                while j < end:
                                    e = entries[j]
                                    j += 1
                                    e[2](*e[3])
                                    if crashes:
                                        self._raise_crash()
                            except BaseException:
                                # Anything escaping mid-drain must not
                                # drop the unexecuted tail: put it
                                # back, exactly as the entry-per-event
                                # heap would have kept it.
                                if j < end:
                                    sched.requeue(
                                        when, seq,
                                        [(x[2], x[3])
                                         for x in entries[j:end]])
                                raise
                            finally:
                                self.events_executed += j - j0
                            continue
                        pairs = [(x[2], x[3]) for x in entries[j:end]]
                        n = end - j
                    else:
                        pairs = args
                        n = len(pairs)
                        if fast:
                            crashes = self._crashes
                            i = 0
                            try:
                                while i < n:
                                    f, a = pairs[i]
                                    i += 1
                                    f(*a)
                                    if crashes:
                                        self._raise_crash()
                            except BaseException:
                                if i < n:
                                    sched.requeue(when, seq + i, pairs[i:])
                                raise
                            finally:
                                self.events_executed += i
                            continue
                    i = 0
                    self._drain_tail = n
                    try:
                        while i < n:
                            f, a = pairs[i]
                            i += 1
                            self._drain_tail = n - i
                            self.events_executed += 1
                            if self._event_hook is not None:
                                self._event_hook(when, f)
                            if (self._monitor_hook is not None
                                    and when >= self._monitor_due):
                                self._monitor_due = self._monitor_hook(when)
                            if profiler is None:
                                f(*a)
                            else:
                                # Same inline key derivation and
                                # chained timing as the single-entry
                                # path below: one clock read per
                                # callback keeps the accounting
                                # exact-tiling under batching.
                                fcls = f.__class__
                                if fcls is MethodType:
                                    obj = f.__self__
                                    ocls = obj.__class__
                                    if ocls is Process:
                                        key = obj.generator.gi_code
                                    elif ocls is Simulator:
                                        key = None
                                    else:
                                        key = f.__func__.__code__
                                elif fcls is FunctionType:
                                    key = f.__code__
                                else:
                                    key = None
                                rec = cache_get(key) if key is not None else None
                                if rec is None:
                                    rec = rec_slow(f, a, key)
                                f(*a)
                                t_now = pc()
                                rec[0] += 1
                                rec[1] += t_now - t_prev
                                t_prev = t_now
                            if stop_event is not None and stop_event.triggered:
                                if stop_event.ok:
                                    if i < n:
                                        sched.requeue(when, seq + i, pairs[i:])
                                    return stop_event.value
                                # failed awaited event: the except
                                # clause below requeues the tail
                                raise stop_event._value  # type: ignore[misc]
                            if self._crashes:
                                self._raise_crash()
                    except BaseException:
                        if i < n:
                            sched.requeue(when, seq + i, pairs[i:])
                        raise
                    finally:
                        self._drain_tail = 0
                    continue
                self.now = when
                self.events_executed += 1
                if self._event_hook is not None:
                    self._event_hook(when, fn)
                if self._monitor_hook is not None and when >= self._monitor_due:
                    self._monitor_due = self._monitor_hook(when)
                if profiler is None:
                    fn(*args)
                else:
                    # Inline key derivation for the two common callable
                    # shapes (bound python method, plain function);
                    # everything else takes the cold path.  Timing is
                    # chained — one clock read per event — so an
                    # event's wall is dispatch-inclusive: it covers the
                    # scheduler pop, hook dispatch, and this
                    # bookkeeping that delivered it, not just its body.
                    fcls = fn.__class__
                    if fcls is MethodType:
                        obj = fn.__self__
                        ocls = obj.__class__
                        if ocls is Process:
                            key = obj.generator.gi_code
                        elif ocls is Simulator:
                            key = None  # _fire: resolve the waiter cold
                        else:
                            key = fn.__func__.__code__
                    elif fcls is FunctionType:
                        key = fn.__code__
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
                if stop_event is not None and stop_event.triggered:
                    if stop_event.ok:
                        return stop_event.value
                    raise stop_event._value  # type: ignore[misc]
                if self._crashes:
                    self._raise_crash()
            else:
                if stop_time is not None:
                    self.now = stop_time
        finally:
            loop_ns = perf_counter_ns() - loop_t0
            self.loop_wall_ns += loop_ns
            if profiler is not None:
                profiler.account_loop(loop_ns)
        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError(
                "simulation ran out of events before the awaited event "
                f"{stop_event!r} triggered (deadlock?)"
            )
        return None

    def _raise_crash(self) -> None:
        proc, err = self._crashes.pop(0)
        self._crashes.clear()
        raise RuntimeError(f"unhandled exception in process {proc.name!r}") from err
