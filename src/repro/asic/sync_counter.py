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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

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
        #: Smallest pending target (``inf`` with none pending): an
        #: increment that leaves the count below it fires nothing.
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
        self._low = min(waiters, default=math.inf)

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

    def pending_targets(self) -> list[int]:
        """Thresholds with waiters still blocked, sorted ascending.

        Every pending target must exceed :attr:`count` — a waiter at or
        below the current count would mean a missed wakeup, which is
        exactly what the sync-counter-consistency watchdog checks.
        """
        return sorted(self._waiters)

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
        if self._waiters:
            pending = sorted(self._waiters)
            raise RuntimeError(
                f"reset of counter {self.name!r} with waiters pending at "
                f"thresholds {pending} (count={self._count})"
            )
        self._count = 0
        self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SyncCounter {self.name!r} count={self._count}>"
