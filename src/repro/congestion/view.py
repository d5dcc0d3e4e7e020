"""Per-link-direction congestion timelines, derived from the flight record.

The flight recorder is the one transport probe: it keeps every hop's
enqueue, grant and release, every link direction's grant order
(``link_occupancy``) and its queue-depth samples
(``queue_depth_series``).  :class:`CongestionView` replays that record
into the X-ray's per-link statistics — head-of-line wait, wait and
grant counts, peak queue depth, occupancy — and into the same
fixed-capacity :class:`~repro.monitor.series.RingSeries` timelines the
continuous-monitoring sampler uses, with overwritten samples counted in
``dropped``, never lost silently.

The view is computed after the run and schedules nothing, so it cannot
perturb the simulation.  Per-link sums accumulate in grant order, the
order the transport granted the channel, so every value is exactly
what a live per-hop accumulator would have held.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.constants import TORUS_LINK_EFFECTIVE_GBPS
from repro.monitor.series import RingSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.flight import FlightRecorder

#: Ring-buffer capacity of every per-link timeline (the monitor
#: sampler's default).
SERIES_CAPACITY = 512


def direction_label(dim: str, sign: int) -> str:
    """The six-way direction tag (``x+`` … ``z-``) used to group link
    telemetry across the machine."""
    return f"{dim}{'+' if sign > 0 else '-'}"


class CongestionView:
    """Queue-depth and occupancy timelines per link direction.

    Dicts are keyed by link name in order of first grant.  ``waits``
    counts every grant that followed an enqueue, including zero-length
    waits (queued and granted at one instant); ``wait_ns``/``waits``
    list only links that queued, ``peak_depth`` only links with a
    nonzero peak.  ``depth_series`` samples the queue length, waiter
    included, at each enqueue and after each grant that drained a
    waiter; ``occupancy_series`` the cumulative serialization time at
    each grant.
    """

    def __init__(self, flight: "FlightRecorder") -> None:
        flights = flight.flights
        direction: dict[str, str] = {}
        waited: dict[str, dict[int, float]] = {}
        for f in flights.values():
            for h in f.hops:
                if h.link not in direction:
                    direction[h.link] = direction_label(h.dim, h.sign)
                if h.enqueue_ns != h.grant_ns:
                    waited.setdefault(h.link, {})[f.packet_id] = h.wait_ns
        instant: dict[str, list[tuple[int, float, int]]] = {}
        for link, at, grant_ns, waiting in flight.instant_waits:
            instant.setdefault(link, []).append((at, grant_ns, waiting))

        self.directions: dict[str, str] = {}
        self.grants: dict[str, int] = {}
        self.occupied_ns: dict[str, float] = {}
        self.occupancy_series: dict[str, RingSeries] = {}
        self.wait_ns: dict[str, float] = {}
        self.waits: dict[str, int] = {}
        self.peak_depth: dict[str, int] = {}
        self.depth_series: dict[str, RingSeries] = {}
        for link, grants in flight.link_occupancy.items():
            self.directions[link] = direction[link]
            self.grants[link] = len(grants)
            series = self.occupancy_series[link] = RingSeries(
                f"{link}.occupancy_ns", SERIES_CAPACITY
            )
            link_waits = waited.get(link, {})
            zero_waits = instant.get(link, [])
            occupied = wait = 0.0
            waits = len(zero_waits)
            for grant_ns, _release_ns, pid in grants:
                # Packet.serialization_ns, bit for bit (release - grant
                # is not, and a retried hop's release is amended).
                occupied += (
                    flights[pid].wire_bytes * 8.0 / TORUS_LINK_EFFECTIVE_GBPS
                )
                series.append(grant_ns, occupied)
                if pid in link_waits:
                    wait += link_waits[pid]
                    waits += 1
            self.occupied_ns[link] = occupied
            if waits:
                self.wait_ns[link] = wait
                self.waits[link] = waits
            samples = flight.queue_depth_series.get(link)
            if samples:
                self.peak_depth[link] = max(d for _, d in samples)
                self.depth_series[link] = _depth_series(
                    link, samples, zero_waits
                )

    def links(self) -> list[str]:
        """All link directions that saw a grant, sorted."""
        return sorted(self.directions)

    def direction(self, link: str) -> str:
        return self.directions[link]

    def total_wait_ns(self) -> float:
        return sum(self.wait_ns.values(), 0.0)

    def total_dropped(self) -> int:
        """Ring-buffer samples overwritten across every timeline."""
        return sum(
            s.dropped
            for series in (self.depth_series, self.occupancy_series)
            for s in series.values()
        )

    def max_peak_depth(self) -> int:
        return max(self.peak_depth.values(), default=0)


def _depth_series(
    link: str,
    samples: list[tuple[float, int]],
    zero_waits: list[tuple[int, float, int]],
) -> RingSeries:
    """The flight recorder's depth samples with each zero-length
    wait's grant sample spliced back in at the index it was recorded
    at."""
    series = RingSeries(f"{link}.depth", SERIES_CAPACITY)
    k = 0
    for i, (t, depth) in enumerate(samples):
        while k < len(zero_waits) and zero_waits[k][0] == i:
            _, grant_ns, waiting = zero_waits[k]
            series.append(grant_ns, float(waiting))
            k += 1
        series.append(t, float(depth))
    for _, grant_ns, waiting in zero_waits[k:]:
        series.append(grant_ns, float(waiting))
    return series
