"""FCFS resources.

:class:`Resource` models a single server (a processing-slice core, an
HTIS pipeline front-end, a cluster node's CPU or NIC): holds are
granted strictly in arrival order, one holder at a time.  Software
occupies a unit through :func:`repro.asic.slice_.hold`.  A busy unit
queues each waiting hold's start as a continuation, and its release
schedules the head waiter's at the releasing instant.  Torus link
directions carry their own booking slot, which grants at the same
times and schedules no release (see :mod:`repro.network.link`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


class Resource:
    """A single-server FCFS unit.

    Occupy it with :func:`repro.asic.slice_.hold`: a :meth:`try_acquire`
    that succeeds, or a :meth:`wait` whose continuation has run, pairs
    with one :meth:`release`.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Waiting continuations, ``(fn, args)`` each, in arrival order.
        self._waiters: deque[tuple[Callable[..., None], tuple]] = deque()
        # Statistics for utilization accounting (trace/stats).
        self.total_busy_ns: float = 0.0
        #: When the unit was last granted from idle; ``None`` while it
        #: is free.  A release that hands the unit to a waiter keeps it.
        self._busy_since: Optional[float] = None
        #: Deepest wait queue ever observed (head-of-line telemetry);
        #: updated only on the contended path, so uncontended resources
        #: pay nothing.
        self.peak_queue_length: int = 0

    @property
    def in_use(self) -> bool:
        """True while the unit is held."""
        return self._busy_since is not None

    @property
    def queue_length(self) -> int:
        """Number of continuations waiting for the unit."""
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Grant the unit at once if it is free.  Pair with
        :meth:`release`."""
        if self._busy_since is None:
            self._busy_since = self.sim.now
            return True
        return False

    def wait(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Queue ``fn(*args)`` behind every earlier waiter, to run once
        the unit is granted to it; it then holds the unit until a
        :meth:`release`."""
        waiters = self._waiters
        waiters.append((fn, args))
        if len(waiters) > self.peak_queue_length:
            self.peak_queue_length = len(waiters)

    def release(self) -> None:
        """Release the unit: hand it to the first waiter, if any, whose
        continuation runs in an event of its own at this instant."""
        if self._busy_since is None:
            raise RuntimeError(f"release() of {self.name!r}, which is not held")
        if self._waiters:
            fn, args = self._waiters.popleft()
            self.sim.schedule_now(fn, args)
        else:
            self.total_busy_ns += self.sim.now - self._busy_since
            self._busy_since = None

    def utilization(self, elapsed_ns: Optional[float] = None) -> float:
        """Fraction of time this resource was busy.

        A zero-length (or negative) window has no meaningful busy
        fraction; it reports 0.0 rather than dividing by zero — this
        covers both an explicit ``elapsed_ns=0`` and querying before
        the simulation clock has advanced.
        """
        horizon = elapsed_ns if elapsed_ns is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        busy = self.total_busy_ns
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / horizon
