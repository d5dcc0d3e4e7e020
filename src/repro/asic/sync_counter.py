"""Synchronization counters (§III.B).

Every network client contains a set of synchronization counters.  Write
and accumulation packets are labelled with a counter identifier; once
the receiver's memory has been updated with the packet's payload, the
selected counter is incremented.  Clients poll these counters to
determine when all data required for a computation has arrived — the
basis of the *counted remote write* paradigm.

The model represents a counter as an integer that only increases
between resets, with threshold events: ``wait_for(n)`` returns an event
that fires the instant the count reaches ``n``.  The *poll cost* (42 ns
for a local slice poll, larger for accumulation-memory counters polled
across the on-chip ring) is charged by the polling client, not here,
because it depends on who is polling.

A counter also has one continuation slot, as in hardware, where the
count reaching its target is what starts the next send:
``on_target(n, fn, args)`` runs ``fn(*args)`` inside the event of the
increment that reaches ``n`` (or at once if the count is already
there).  A waiter on an event resumes in a later event at the same
instant; a continuation allocates no event and schedules none.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.engine.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


class SyncCounter:
    """One hardware synchronization counter."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._count = 0
        self._epoch = 0
        self._waiters: dict[int, Event] = {}
        #: The continuation slot: its target (``inf`` while empty),
        #: function and args.
        self._then_at: float = math.inf
        self._then: Optional[Callable[..., None]] = None
        self._then_args: tuple = ()
        #: Smallest pending target of an event or the continuation
        #: (``inf`` with none pending): an increment that leaves the
        #: count below it fires nothing.
        self._low: float = math.inf
        self.total_increments = 0

    @property
    def count(self) -> int:
        """Current value."""
        return self._count

    @property
    def epoch(self) -> int:
        """Number of times the counter has been reset (for reuse checks)."""
        return self._epoch

    def increment(self, n: int = 1) -> None:
        """Add ``n`` arriving packets' worth of count."""
        if n < 1:
            raise ValueError(f"increment must be >= 1, got {n}")
        self._count += n
        self.total_increments += n
        if self._count < self._low:
            return
        # Fire every threshold now satisfied.  Iterate over a snapshot:
        # firing may synchronously register new waiters.
        waiters = self._waiters
        ready = [t for t in waiters if t <= self._count]
        for t in sorted(ready):
            waiters.pop(t).succeed(self.sim.now)
        low = min(waiters, default=math.inf)
        if self._then_at > self._count:
            self._low = min(low, self._then_at)
            return
        # Empty the slot before running it: the continuation may
        # register the next one.
        fn, args = self._then, self._then_args
        self._then_at, self._then, self._then_args = math.inf, None, ()
        self._low = low
        fn(*args)

    def wait_for(self, target: int) -> Event:
        """Event firing when the count reaches ``target``.

        Multiple waiters on the same target share one event.  A target
        already reached yields an already-triggered event (the caller's
        poll cost still applies on top).
        """
        if target < 0:
            raise ValueError(f"target must be >= 0, got {target}")
        if self._count >= target:
            ev = Event(self.sim)
            ev.succeed(self.sim.now)
            return ev
        ev = self._waiters.get(target)
        if ev is None:
            ev = Event(self.sim)
            self._waiters[target] = ev
            if target < self._low:
                self._low = target
        return ev

    def on_target(
        self, target: int, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """Run ``fn(*args)`` when the count reaches ``target``.

        It runs inside the event of the increment that reaches the
        target, after that increment's waiter events are triggered, or
        at once if the count is already there.  The counter has one
        continuation slot; filling a full one raises.
        """
        if target < 0:
            raise ValueError(f"target must be >= 0, got {target}")
        if self._count >= target:
            fn(*args)
            return
        if self._then is not None:
            raise RuntimeError(
                f"counter {self.name!r} already continues at {self._then_at}"
            )
        self._then_at, self._then, self._then_args = target, fn, args
        if target < self._low:
            self._low = target

    def pending_targets(self) -> list[int]:
        """Thresholds with waiters (events or the continuation) still
        blocked, sorted ascending.

        Every pending target must exceed :attr:`count` — a waiter at or
        below the current count would mean a missed wakeup, which is
        exactly what the sync-counter-consistency watchdog checks.
        """
        targets = list(self._waiters)
        if self._then is not None:
            targets.append(self._then_at)
        return sorted(targets)

    def reset(self) -> None:
        """Zero the counter for the next communication phase.

        A client's counters are fixed hardware: a communication pattern
        agrees on a counter id once, and every run or time step reuses
        it.  Whoever consumes the phase resets the counter right after
        its successful poll, once the expected packet count has
        arrived, so the next phase counts from zero.  Resetting with
        waiters still pending indicates a software bug (a phase ended
        while someone still expected packets), so it raises.
        """
        pending = self.pending_targets()
        if pending:
            raise RuntimeError(
                f"reset of counter {self.name!r} with waiters pending at "
                f"thresholds {pending} (count={self._count})"
            )
        self._count = 0
        self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SyncCounter {self.name!r} count={self._count}>"
