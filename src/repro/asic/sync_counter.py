"""Synchronization counters (§III.B).

Every network client contains a set of synchronization counters.  Write
and accumulation packets are labelled with a counter identifier; once
the receiver's memory has been updated with the packet's payload, the
selected counter is incremented.  Clients poll these counters to
determine when all data required for a computation has arrived — the
basis of the *counted remote write* paradigm.

The model represents a counter as an integer that only increases
between resets, with one continuation slot, as in hardware, where the
count reaching its target is what starts the next send:
``on_target(n, fn, args)`` runs ``fn(*args)`` inside the event of the
increment that reaches ``n`` (or at once if the count is already
there).  A continuation allocates no event and schedules none.  The
*poll cost* (42 ns for a local slice poll, larger for
accumulation-memory counters polled across the on-chip ring) is
charged by the polling client, not here, because it depends on who is
polling.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


class SyncCounter:
    """One hardware synchronization counter."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._count = 0
        self._epoch = 0
        #: The continuation slot: its target (``inf`` while empty),
        #: function and args.  An increment that leaves the count below
        #: the target runs nothing.
        self._then_at: float = math.inf
        self._then: Optional[Callable[..., None]] = None
        self._then_args: tuple = ()
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
        if self._count < self._then_at:
            return
        # Empty the slot before running it: the continuation may
        # register the next one.
        fn, args = self._then, self._then_args
        self._then_at, self._then, self._then_args = math.inf, None, ()
        fn(*args)

    def on_target(
        self, target: int, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """Run ``fn(*args)`` when the count reaches ``target``.

        It runs inside the event of the increment that reaches the
        target, or at once if the count is already there.  The counter
        has one continuation slot; filling a full one raises.
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

    def pending_targets(self) -> list[int]:
        """The target of a continuation still waiting, if any (a list,
        empty or of one).

        A pending target must exceed :attr:`count` — a waiter at or
        below the current count would mean a missed wakeup, which is
        exactly what the sync-counter-consistency watchdog checks.
        """
        return [] if self._then is None else [self._then_at]

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
