"""Per-link-direction queue-occupancy telemetry (the congestion X-ray).

The flight recorder already captures *per-packet* causal spans; this
recorder captures the *per-link* side of the same story: an
event-driven timeline of queue depth and cumulative occupancy for every
link direction that carries traffic, recorded into the same
fixed-capacity :class:`~repro.monitor.series.RingSeries` buffers the
continuous-monitoring sampler uses — bounded memory whatever the run
length, with overwritten samples counted in ``dropped``, never lost
silently.

Like the flight recorder, the fault session, and the engine profiler,
this is a passive observer with a zero-cost disabled path: the
network's default recorder is the module-level :data:`NULL_CONGESTION`
singleton whose ``enabled`` flag is ``False``, and the transport guards
every hook behind that flag.  An instrumented run is
simulation-identical to a bare one (property-tested by
``tests/properties/test_congestion_equivalence.py``).

When a :class:`~repro.trace.metrics.MetricsRegistry` is supplied the
recorder also feeds the ``congestion.*`` aggregate metrics:
``congestion.grants`` / ``congestion.waits`` counters, a
``congestion.hol_wait_ns`` histogram, and a ``congestion.queue_depth``
gauge whose high watermark is the deepest head-of-line queue seen on
any direction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from repro.monitor.series import RingSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.link import TorusLink
    from repro.network.packet import Packet
    from repro.trace.metrics import MetricsRegistry


def direction_label(dim: str, sign: int) -> str:
    """The six-way direction tag (``x+`` … ``z-``) used to group link
    telemetry across the machine."""
    return f"{dim}{'+' if sign > 0 else '-'}"


class NullCongestionRecorder:
    """The do-nothing recorder guarding the disabled fast path.

    The transport checks ``recorder.enabled`` before calling any hook,
    so these methods exist only as a safety net for direct callers.
    """

    enabled = False
    metrics: "Optional[MetricsRegistry]" = None

    def hop_enqueued(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        pass

    def hop_granted(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        pass


#: Shared default recorder for every uninstrumented network.
NULL_CONGESTION = NullCongestionRecorder()


class _LinkStats:
    """Mutable per-link accumulator on the recorder's hot path.

    Keyed by the :class:`~repro.network.link.TorusLink` object itself
    (identity hash — no string formatting per event); the link name is
    rendered once, at first sight.
    """

    __slots__ = (
        "name", "direction", "depth", "occupancy",
        "wait_ns", "waits", "grants", "peak_depth", "occupied_ns",
    )

    def __init__(self, name: str, direction: str) -> None:
        self.name = name
        self.direction = direction
        self.depth: Optional[RingSeries] = None
        self.occupancy: Optional[RingSeries] = None
        self.wait_ns = 0.0
        self.waits = 0
        self.grants = 0
        self.peak_depth = 0
        self.occupied_ns = 0.0


class CongestionRecorder:
    """Event-driven per-link-direction congestion timelines.

    Parameters
    ----------
    series_capacity:
        Ring-buffer capacity of every per-link timeline (same default
        as the monitor sampler's series).
    metrics:
        Optional registry for the ``congestion.*`` aggregates.
    """

    def __init__(
        self,
        series_capacity: int = 512,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.enabled = True
        self.metrics = metrics
        self.series_capacity = int(series_capacity)
        #: Per-link accumulators, keyed by the live link object.
        self._stats: "dict[TorusLink, _LinkStats]" = {}
        #: (packet_id, link) → enqueue time of an unresolved wait.
        self._pending: "dict[tuple[int, TorusLink], float]" = {}

    # ------------------------------------------------------------------
    # hooks (called by the network transport, behind ``enabled``)
    # ------------------------------------------------------------------
    def _make(self, link: "TorusLink") -> _LinkStats:
        lid = link.link_id
        st = _LinkStats(repr(lid), direction_label(lid.dim, lid.sign))
        self._stats[link] = st
        return st

    def hop_enqueued(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        """The packet found the link busy and joined its queue."""
        st = self._stats.get(link)
        if st is None:
            st = self._make(link)
        depth = link.queue_length + 1  # including this packet
        self._pending[(packet.packet_id, link)] = now
        series = st.depth
        if series is None:
            series = st.depth = RingSeries(
                f"{st.name}.depth", self.series_capacity
            )
        series.append(now, float(depth))
        if depth > st.peak_depth:
            st.peak_depth = depth
        m = self.metrics
        if m is not None:
            m.gauge("congestion.queue_depth").set(depth)

    def hop_granted(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        """The packet acquired the channel and starts streaming."""
        st = self._stats.get(link)
        if st is None:
            st = self._make(link)
        m = self.metrics
        if self._pending:
            enqueue_ns = self._pending.pop((packet.packet_id, link), None)
            if enqueue_ns is not None:
                wait = now - enqueue_ns
                st.wait_ns += wait
                st.waits += 1
                # The grant drains one waiter; sample the shrinking queue.
                st.depth.append(now, float(link.queue_length))
                if m is not None:
                    m.histogram("congestion.hol_wait_ns").observe(wait)
                    m.counter("congestion.waits").inc()
        st.grants += 1
        st.occupied_ns += packet.serialization_ns
        series = st.occupancy
        if series is None:
            series = st.occupancy = RingSeries(
                f"{st.name}.occupancy_ns", self.series_capacity
            )
        series.append(now, st.occupied_ns)
        if m is not None:
            m.counter("congestion.grants").inc()

    # ------------------------------------------------------------------
    # queries (name-keyed views over the per-link accumulators)
    # ------------------------------------------------------------------
    @property
    def depth_series(self) -> dict[str, RingSeries]:
        """Link name → queue-depth timeline (only links that queued)."""
        return {st.name: st.depth for st in self._stats.values()
                if st.depth is not None}

    @property
    def occupancy_series(self) -> dict[str, RingSeries]:
        """Link name → cumulative occupancy-ns timeline."""
        return {st.name: st.occupancy for st in self._stats.values()
                if st.occupancy is not None}

    @property
    def directions(self) -> dict[str, str]:
        """Link name → direction tag ("z+" …)."""
        return {st.name: st.direction for st in self._stats.values()}

    @property
    def wait_ns(self) -> dict[str, float]:
        return {st.name: st.wait_ns for st in self._stats.values()
                if st.waits}

    @property
    def waits(self) -> dict[str, int]:
        return {st.name: st.waits for st in self._stats.values()
                if st.waits}

    @property
    def grants(self) -> dict[str, int]:
        return {st.name: st.grants for st in self._stats.values()
                if st.grants}

    @property
    def peak_depth(self) -> dict[str, int]:
        return {st.name: st.peak_depth for st in self._stats.values()
                if st.peak_depth}

    @property
    def occupied_ns(self) -> dict[str, float]:
        return {st.name: st.occupied_ns for st in self._stats.values()
                if st.grants}

    def links(self) -> list[str]:
        """All link directions that saw a grant or a wait, sorted."""
        return sorted(st.name for st in self._stats.values())

    def direction(self, link: str) -> str:
        return self.directions[link]

    def total_wait_ns(self) -> float:
        return sum(st.wait_ns for st in self._stats.values())

    def total_dropped(self) -> int:
        """Ring-buffer samples overwritten across every timeline."""
        return sum(
            s.dropped
            for st in self._stats.values()
            for s in (st.depth, st.occupancy)
            if s is not None
        )

    def max_peak_depth(self) -> int:
        return max(
            (st.peak_depth for st in self._stats.values()), default=0
        )

    def clear(self) -> None:
        self._stats.clear()
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._stats)


# ---------------------------------------------------------------------------
# Ambient recorder (same pattern as repro.trace.flight.use_flight)
# ---------------------------------------------------------------------------
#: Recorder picked up by every Network constructed while it is active.
_active_congestion: "CongestionRecorder | NullCongestionRecorder" = NULL_CONGESTION


def active_congestion() -> "CongestionRecorder | NullCongestionRecorder":
    """The recorder new networks attach at construction time."""
    return _active_congestion


@contextmanager
def use_congestion(
    recorder: Optional[CongestionRecorder] = None,
) -> Iterator[CongestionRecorder]:
    """Install a congestion recorder as the ambient one for the block."""
    global _active_congestion
    if recorder is None:
        recorder = CongestionRecorder()
    prev = _active_congestion
    _active_congestion = recorder
    try:
        yield recorder
    finally:
        _active_congestion = prev
