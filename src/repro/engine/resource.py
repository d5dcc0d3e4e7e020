"""The FCFS booking slot.

:class:`Resource` is a single server, first come, first served, whose
hold is known when it is requested: a processing-slice core, an HTIS
pipeline or output stage, a cluster node's CPU or NIC, and one
direction of a torus link (:class:`~repro.network.link.TorusLink`
adds only a link's constants to it).  It is a booking slot,
``free_at``: the time the last booked hold ends.  A request arriving
at ``t`` is granted at ``g = max(t, free_at)`` and moves ``free_at`` to
``g + hold`` (:meth:`Resource.book`).  The grant is known at booking,
so the requester schedules its next step there, once, at the absolute
time it needs (:meth:`Resource.hold`: ``g + hold``; a hop: the time
its head reaches the next node).  No grant and no release is an event,
and nothing waits in a queue object.

The telemetry is derived from the booked grant times.  A request
granted on arrival counts as carried at once.  One booked for a later
grant goes into the pending-grant store, a deque allocated on the
slot's first queued request (a slot that never queues holds none),
and counts as carried once the clock reaches its grant.  Queued
requests are granted back to back, so the store keeps the first one's
grant time and each request's hold and bytes, and drains from its
head.  ``packets_carried``, ``bytes_carried`` and ``queue_length``
drain it up to the clock when they are read, and are exact between
instants, where the monitor samples.  The same-instant depth rule: a
booking, and every read, drains only the grants of earlier instants,
so a request whose grant falls at the booking instant still counts as
waiting in the depth the booking sees (``peak_queue_length``, the
flight recorder's enqueue sample), whatever the order of that
instant's events; between instants it counts as carried.  The busy
time is the closed busy periods plus the open one up to ``free_at``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


class Resource:
    """A single-server FCFS booking slot."""

    # Slots: the transit reads several of these on every hop.
    __slots__ = (
        "sim", "name", "free_at", "peak_queue_length", "_closed_busy_ns",
        "_busy_since", "_carried", "_bytes", "_pending", "_head",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: When the last booked hold ends: the grant time of the next
        #: request to arrive before then.
        self.free_at = 0.0
        #: Deepest wait queue ever seen by a booking (head-of-line
        #: telemetry), the booked request included.
        self.peak_queue_length = 0
        #: Busy time of the closed busy periods.
        self._closed_busy_ns = 0.0
        #: Start of the last busy period, which ends at ``free_at``.
        self._busy_since = 0.0
        #: Requests, and their bytes, granted and drained from the
        #: pending-grant store.
        self._carried = 0
        self._bytes = 0
        #: The pending-grant store: ``[hold, bytes, hold, bytes, ...]``
        #: in booking order, ``None`` until the first request queues.
        #: The slots reference the request's own hold and byte count,
        #: so a queued request allocates no number.
        self._pending: Optional[deque] = None
        #: Grant time of the store's first request.  Queued requests
        #: are granted back to back, so each next grant is this one
        #: plus its hold: the sum the booking made, bit for bit.
        self._head = 0.0

    # -- booking ------------------------------------------------------------
    def grant_time(self) -> float:
        """When a request arriving now would be granted."""
        now = self.sim.now
        return self.free_at if self.free_at > now else now

    def book(self, hold: float, nbytes: int) -> float:
        """Book the slot for a request of ``nbytes`` bytes arriving now
        that holds it for ``hold`` ns, and return its grant time.  The
        request counts as carried from its grant on."""
        now = self.sim.now
        free_at = self.free_at
        if free_at > now:
            self.free_at = free_at + hold
            pending = self._pending
            if pending is None:
                pending = self._pending = deque()
            else:
                self.waiting()
            if not pending:
                self._head = free_at
            pending.append(hold)
            pending.append(nbytes)
            depth = len(pending) >> 1
            if depth > self.peak_queue_length:
                self.peak_queue_length = depth
            return free_at
        if now > free_at:
            # The slot idled since ``free_at``: a busy period ends.
            self._closed_busy_ns += free_at - self._busy_since
            self._busy_since = now
        self.free_at = now + hold
        self._carried += 1
        self._bytes += nbytes
        return now

    def hold(self, duration_ns: float, fn: Callable[..., None],
             args: tuple[Any, ...]) -> None:
        """Occupy the unit for ``duration_ns`` from its grant, then run
        ``fn(*args)``: book it, and schedule the continuation itself at
        the hold's end."""
        self.sim.schedule_at(self.book(duration_ns, 0) + duration_ns, fn, args)

    # -- telemetry --------------------------------------------------------
    def waiting(self) -> int:
        """Requests waiting as a booking now sees them: booked for a
        grant at this instant or later (right after a queued booking,
        its depth, the booked request included).  Drains the grants of
        earlier instants, as a booking does; no read drains a grant of
        this instant, so reads never move a booking's depth."""
        pending = self._pending
        if not pending:
            return 0
        now = self.sim.now
        head = self._head
        while head < now:
            head += pending.popleft()
            self._bytes += pending.popleft()
            self._carried += 1
            if not pending:
                break
        self._head = head
        return len(pending) >> 1

    # A read counts a grant at this instant as carried: the store's
    # head.  Queued grants rise by each hold, so while holds are
    # positive at most one falls at an instant (a queued zero-length
    # hold shares its grant with the next request, which such a read
    # still counts as waiting).

    @property
    def in_use(self) -> bool:
        """True while a booked hold is running or waiting."""
        return self.free_at > self.sim.now

    @property
    def packets_carried(self) -> int:
        """Requests granted the slot by now."""
        if self.waiting() and self._head == self.sim.now:
            return self._carried + 1
        return self._carried

    @property
    def bytes_carried(self) -> int:
        """Bytes of the requests granted the slot by now."""
        if self.waiting() and self._head == self.sim.now:
            return self._bytes + self._pending[1]
        return self._bytes

    @property
    def queue_length(self) -> int:
        """Requests booked but not granted by now (instantaneous depth
        probe for the continuous-monitoring sampler)."""
        waiting = self.waiting()
        if waiting and self._head == self.sim.now:
            return waiting - 1
        return waiting

    @property
    def booked(self) -> int:
        """Requests ever booked on the slot."""
        waiting = self.waiting()
        return self._carried + waiting

    @property
    def busy_ns(self) -> float:
        """Cumulative time the slot has been held, including the
        current busy period up to now.

        Monotonically non-decreasing, so the sampler can snapshot it
        into a ring-buffer series and derive per-window busy fractions
        from consecutive deltas.
        """
        now = self.sim.now
        end = self.free_at if self.free_at < now else now
        return self._closed_busy_ns + (end - self._busy_since)

    def utilization(self, elapsed_ns: Optional[float] = None) -> float:
        """Fraction of time the slot was held.

        Returns 0.0 for a zero-length window (``elapsed_ns <= 0`` or a
        query at simulated time 0) instead of dividing by zero.
        """
        horizon = elapsed_ns if elapsed_ns is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_ns / horizon
