"""Per-link-direction congestion timelines, derived from the flight record.

The flight recorder is the one transport probe: its hop log keeps
every hop's link, enqueue and grant in grant order, and its sample log
every link direction's queue-depth samples.  :class:`CongestionView`
replays those columns in one pass each into the X-ray's per-link
statistics — head-of-line wait, wait and
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

from typing import TYPE_CHECKING, Optional

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
    counts every grant that followed an enqueue (a queued hop is
    granted after it arrived, so every such wait is longer than zero);
    ``wait_ns``/``waits`` list only links that queued, ``peak_depth``
    only links with a nonzero peak.  ``depth_series`` samples the queue
    length, waiter included, at each enqueue and after each grant of a
    queued hop; ``occupancy_series`` the cumulative serialization time
    at each grant.
    """

    def __init__(self, flight: "FlightRecorder") -> None:
        links = flight.link_table
        # Serialization, not release - grant: that is not bit for bit
        # the same, and a retried hop's release is amended.
        serialization = flight.flight_serialization_ns
        granted: list[int] = []  # link indices, in order of first grant
        grants = [0] * len(links)
        occupied = [0.0] * len(links)
        wait = [0.0] * len(links)
        waits = [0] * len(links)
        occupancy: list[Optional[RingSeries]] = [None] * len(links)
        for fi, li, enqueue, grant in zip(
            flight.hop_flight, flight.hop_link,
            flight.hop_enqueue_ns, flight.hop_grant_ns,
        ):
            series = occupancy[li]
            if series is None:
                granted.append(li)
                series = occupancy[li] = RingSeries(
                    f"{links[li].name}.occupancy_ns", SERIES_CAPACITY
                )
            grants[li] += 1
            occupied[li] += serialization[fi]
            series.append(grant, occupied[li])
            if enqueue != grant:
                wait[li] += grant - enqueue
                waits[li] += 1

        self.directions: dict[str, str] = {}
        self.grants: dict[str, int] = {}
        self.occupied_ns: dict[str, float] = {}
        self.occupancy_series: dict[str, RingSeries] = {}
        self.wait_ns: dict[str, float] = {}
        self.waits: dict[str, int] = {}
        self.peak_depth: dict[str, int] = {}
        self.depth_series: dict[str, RingSeries] = {}
        peak, depth_series = _depth_series(flight)
        for li in granted:
            name = links[li].name
            self.directions[name] = links[li].direction
            self.grants[name] = grants[li]
            self.occupancy_series[name] = occupancy[li]
            self.occupied_ns[name] = occupied[li]
            if waits[li]:
                self.wait_ns[name] = wait[li]
                self.waits[name] = waits[li]
            if li in depth_series:
                self.peak_depth[name] = peak[li]
                self.depth_series[name] = depth_series[li]

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
    flight: "FlightRecorder",
) -> tuple[list[int], dict[int, RingSeries]]:
    """Per link index that was sampled: the peak sampled depth, and
    the depth samples."""
    links = flight.link_table
    peak = [0] * len(links)
    out: dict[int, RingSeries] = {}
    for li, t, depth in zip(
        flight.sample_link, flight.sample_ns, flight.sample_depth
    ):
        series = out.get(li)
        if series is None:
            series = out[li] = RingSeries(
                f"{links[li].name}.depth", SERIES_CAPACITY
            )
        series.append(t, float(depth))
        if depth > peak[li]:
            peak[li] = depth
    return peak, out
