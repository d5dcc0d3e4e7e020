"""FCFS resources.

:class:`Resource` models a single server (a processing-slice core, an
HTIS pipeline front-end, a cluster node's CPU or NIC): requests are
granted strictly in arrival order, one holder at a time.  Software
occupies a unit through :func:`repro.asic.slice_.hold`.  Torus link
directions carry their own booking slot, which grants at the same
times and schedules no release (see :mod:`repro.network.link`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.engine.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


class Resource:
    """A single-server FCFS unit.

    Occupy it with :func:`repro.asic.slice_.hold`; :meth:`try_acquire`
    or a :meth:`request` that fires pairs with one :meth:`release`.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._waiters: deque[Event] = deque()
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
        """Number of requests waiting for the unit."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when the unit is granted."""
        ev = Event(self.sim)
        if self._busy_since is None:
            self._busy_since = self.sim.now
            ev.succeed(self)
        else:
            self._waiters.append(ev)
            if len(self._waiters) > self.peak_queue_length:
                self.peak_queue_length = len(self._waiters)
        return ev

    def try_acquire(self) -> bool:
        """Grant the unit immediately if it is free (hot-path variant:
        no Event allocation).  Pair with :meth:`release`."""
        if self._busy_since is None:
            self._busy_since = self.sim.now
            return True
        return False

    def release(self) -> None:
        """Release the unit, granting it to the first waiter if any."""
        if self._busy_since is None:
            raise RuntimeError(f"release() without matching request() on {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(self)
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

