"""FCFS resources.

:class:`Resource` models a server with fixed capacity (a processing-slice
core, an HTIS pipeline front-end, a cluster node's CPU or NIC): requests
are granted strictly in arrival order.  Torus link directions carry
their own booking slot, which grants at the same times and schedules
no release (see :mod:`repro.network.link`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.engine.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


class Resource:
    """A FCFS resource with integer capacity.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()

    or, more conveniently, ``yield from resource.use(service_time)``.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        # Statistics for utilization accounting (trace/stats).
        self.total_busy_ns: float = 0.0
        self._busy_since: Optional[float] = None
        #: Deepest wait queue ever observed (head-of-line telemetry);
        #: updated only on the contended path, so uncontended resources
        #: pay nothing.
        self.peak_queue_length: int = 0

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
            if len(self._waiters) > self.peak_queue_length:
                self.peak_queue_length = len(self._waiters)
        return ev

    def try_acquire(self) -> bool:
        """Grant a slot immediately if one is free (hot-path variant:
        no Event allocation).  Pair with :meth:`release`."""
        if self._in_use < self.capacity:
            if self._in_use == 0 and self._busy_since is None:
                self._busy_since = self.sim.now
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Release one previously granted slot."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() without matching request() on {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())
        elif self._in_use == 0 and self._busy_since is not None:
            self.total_busy_ns += self.sim.now - self._busy_since
            self._busy_since = None

    def _grant(self, ev: Event) -> None:
        if self._in_use == 0 and self._busy_since is None:
            self._busy_since = self.sim.now
        self._in_use += 1
        ev.succeed(self)

    def use(self, service_ns: float) -> Generator[Event, Any, None]:
        """Acquire, hold for ``service_ns``, release.  ``yield from`` this."""
        if not self.try_acquire():
            yield self.request()
        try:
            yield self.sim.timeout(service_ns)
        finally:
            self.release()

    def utilization(self, elapsed_ns: Optional[float] = None) -> float:
        """Fraction of time this resource was busy (any slot in use).

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
