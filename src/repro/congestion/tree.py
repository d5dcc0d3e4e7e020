"""Backpressure attribution: the congestion tree and HOL episodes.

Fig. 7's question is not just *how much* packets waited but *where the
colliding traffic came from*.  This module reconstructs that from
hop-enqueue causality in the flight recorder: a packet's enqueue on a
congested link happens-after its traversal of the upstream link that
delivered it there, so every nanosecond of head-of-line wait on a link
can be attributed to the feeder direction (or to direct injection at
the link's home node) that carried the waiting packet in.  Summed over
a run this yields, per congested link, a ranked ``fed_by`` breakdown —
the congestion tree, rooted at the worst offender — plus, via the
FCFS grant order, the packet each waiter was directly blocked behind.

Sustained head-of-line blocking shows up as *episodes*: per link, the
union of all packets' wait intervals, merged wherever they overlap or
touch, each with start/end timestamps, the number of packets that
queued, and the total wait accumulated inside it.

Ranking is deterministic: links sort by total contributed wait, with
exact ties broken in fixed direction order (``x+ x- y+ y- z+ z-``,
positive sign first — mirroring the router's positive-direction
preference for tied shortest paths) and then by link name.

The tree is one column pass over the flight record's hop log (see
:mod:`repro.trace.flight`): the contended hops are selected in flight
order, and each link's wait, wait count, peak depth and per-feeder
wait is summed over them in that order, one value at a time
(``np.bincount`` with weights), so every float is the one a per-hop
loop gives.  Episodes are merged for all links in one sorted pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.trace.flight import (
    FlightRecorder,
    PacketFlight,
    column,
    runs,
    sums,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.torus import Torus3D

#: Feeder tag for packets that waited on their first hop (entered the
#: congested link straight from the source node's ring).
INJECTION = "(injection)"

#: Deterministic tie-break order for equally congested directions.
DIRECTION_ORDER = ("x+", "x-", "y+", "y-", "z+", "z-")


@dataclass(slots=True)
class Episode:
    """One sustained head-of-line blocking episode on one link."""

    link: str
    direction: str
    start_ns: float
    end_ns: float
    #: Packets whose wait interval fell inside the episode.
    packets: int
    #: Total wait accumulated inside the episode (> duration when
    #: several packets queued concurrently).
    wait_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class LinkCongestion:
    """Aggregate congestion evidence for one link direction."""

    link: str
    direction: str
    wait_ns: float = 0.0
    waits: int = 0
    peak_depth: int = 0
    #: Total serialization time streamed (from the occupancy log).
    occupancy_ns: float = 0.0
    #: Upstream feeder link (or ``(injection)``) → HOL wait ns at THIS
    #: link contributed by packets that arrived via that feeder.
    fed_by: dict[str, float] = field(default_factory=dict)
    episodes: list[Episode] = field(default_factory=list)

    def ranked_feeders(self) -> list[tuple[str, float]]:
        return sorted(self.fed_by.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass
class CongestionTree:
    """The run-level congestion tree: contended links, ranked."""

    links: list[LinkCongestion]
    packets: int = 0
    contended_hops: int = 0

    @property
    def total_wait_ns(self) -> float:
        return sum(lc.wait_ns for lc in self.links)

    @property
    def worst(self) -> Optional[LinkCongestion]:
        return self.links[0] if self.links else None

    def episodes(self) -> list[Episode]:
        """Every episode across every link, longest wait first."""
        out = [e for lc in self.links for e in lc.episodes]
        out.sort(key=lambda e: (-e.wait_ns, e.link, e.start_ns))
        return out

    def to_doc(self, top: Optional[int] = None) -> dict:
        """Canonical ``repro-congest/1`` document (deterministic)."""
        shown = self.links if top is None else self.links[:top]
        return {
            "schema": "repro-congest/1",
            "packets": self.packets,
            "contended_hops": self.contended_hops,
            "contended_links": len(self.links),
            "total_hol_wait_ns": self.total_wait_ns,
            "links": [
                {
                    "link": lc.link,
                    "direction": lc.direction,
                    "wait_ns": lc.wait_ns,
                    "waits": lc.waits,
                    "peak_depth": lc.peak_depth,
                    "occupancy_ns": lc.occupancy_ns,
                    "fed_by": dict(lc.ranked_feeders()),
                    "episodes": [
                        {
                            "start_ns": e.start_ns,
                            "end_ns": e.end_ns,
                            "packets": e.packets,
                            "wait_ns": e.wait_ns,
                        }
                        for e in lc.episodes
                    ],
                }
                for lc in shown
            ],
        }


def _rank_key(lc: LinkCongestion) -> tuple:
    try:
        dir_rank = DIRECTION_ORDER.index(lc.direction)
    except ValueError:  # pragma: no cover - defensive
        dir_rank = len(DIRECTION_ORDER)
    return (-lc.wait_ns, dir_rank, lc.link)


def _feeders(
    recorder: FlightRecorder,
    fi: int,
    rows: Sequence[int],
    torus: "Torus3D",
) -> list[int]:
    """For each of multicast flight ``fi``'s hop-log ``rows``, the link
    index that carried the packet into the hop's home node (-1, for
    ``(injection)``, on hops leaving the source): the fan-out tree
    enters every node by at most one link."""
    links = recorder.link_table
    hops = [links[li] for li in column(recorder.hop_link)[rows].tolist()]
    entered = {link.neighbor: link.name for link in hops}
    src = torus.coord(recorder.flight_src_node[fi])
    index = recorder._link_by_name
    return [
        -1 if link.node == src else index.get(entered.get(link.node), -1)
        for link in hops
    ]


def _episodes(
    link: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Merge wait intervals ``[start, end]`` into episodes per ``link``
    in one sorted pass: an interval joins the episode before it when it
    starts at or before that episode's end.  Returns, per episode in
    (link, start) order, its link, start, end, packet count and total
    wait (the intervals' waits added in that order)."""
    order = np.lexsort((end, start, link))
    link, start, end = link[order], start[order], end[order]
    n = len(link)
    # The running end within each link: the cumulative maximum of
    # (link, end rank), which restarts at every link since links come
    # sorted, decoded through the sorted ends.
    by_end = np.argsort(end, kind="stable")
    rank = np.empty(n, np.int64)
    rank[by_end] = np.arange(n)
    running = end[by_end][
        np.maximum.accumulate(link * n + rank) % max(n, 1)
    ]
    opens = np.ones(n, bool)
    opens[1:] = (link[1:] != link[:-1]) | (start[1:] > running[:-1])
    heads = np.flatnonzero(opens)
    episode = np.cumsum(opens) - 1
    bounds = np.append(heads, n)
    return (
        link[heads], start[heads], running[bounds[1:] - 1],
        np.diff(bounds),
        np.bincount(episode, weights=end - start, minlength=len(heads)),
    )


def _merge_episodes(
    link: str,
    direction: str,
    intervals: list[tuple[float, float]],
    min_episode_ns: float,
) -> list[Episode]:
    """Merge overlapping/touching wait intervals of one link into
    episodes (:func:`_episodes` on one link)."""
    start = np.array([s for s, _ in intervals], np.float64)
    end = np.array([e for _, e in intervals], np.float64)
    columns = _episodes(np.zeros(len(intervals), np.int64), start, end)
    return [
        Episode(link, direction, s, e, packets, wait)
        for _, s, e, packets, wait in zip(*(c.tolist() for c in columns))
        if e - s >= min_episode_ns
    ]


def build_congestion_tree(
    recorder: FlightRecorder,
    torus: "Optional[Torus3D]" = None,
    min_episode_ns: float = 0.0,
) -> CongestionTree:
    """Reconstruct the congestion tree from a recorded run.

    Only links that caused at least one head-of-line wait appear (an
    uncontended link is not congestion evidence); each carries its
    aggregate wait, peak queue depth, occupancy, ``fed_by`` breakdown,
    and merged blocking episodes.  ``min_episode_ns`` drops episodes
    shorter than the threshold (0 keeps all).

    One column pass over the contended hops, in flight order (each
    flight's hops in path order), where every per-link and per-feeder
    wait is summed.  A unicast hop's feeder is the previous hop of its
    chain; a multicast hop's comes from the fan-out tree
    (:func:`_feeders`) with the ``torus``, and is the injection without
    it.
    """
    table = recorder.link_table
    n_links = len(table)
    rows = column(recorder.hop_rows()[0])
    hop_flight = column(recorder.hop_flight)[rows]
    hop_link = column(recorder.hop_link)[rows]
    enqueue = column(recorder.hop_enqueue_ns)[rows]
    grant = column(recorder.hop_grant_ns)[rows]
    wait = grant - enqueue
    contended = np.flatnonzero(wait > 0.0)
    # The previous hop of the same flight, or the injection (-1).
    previous = np.full(len(rows), -1, np.int64)
    chained = hop_flight[1:] == hop_flight[:-1]
    previous[1:][chained] = hop_link[:-1][chained]
    previous = previous[contended]
    multicast = column(recorder.flight_multicast)[hop_flight[contended]] != 0
    if multicast.any():
        previous[multicast] = -1
        if torus is not None:
            _, starts = recorder.hop_rows()
            flights = hop_flight[contended[multicast]]
            for fi in flights[runs(flights)].tolist():
                begin, stop = starts[fi], starts[fi + 1]
                mine = slice(*np.searchsorted(contended, (begin, stop)))
                feeders = np.array(
                    _feeders(recorder, fi, rows[begin:stop], torus), np.int64
                )
                previous[mine] = feeders[contended[mine] - begin]
    link = hop_link[contended]
    waits = wait[contended]
    wait_ns = sums(link, waits, n_links).tolist()
    count = np.bincount(link, minlength=n_links)
    # Waiters including this packet.
    depth = column(recorder.hop_depth)[rows[contended]] + 1
    peak = np.zeros(n_links, np.int64)
    np.maximum.at(peak, link, depth)
    peak = peak.tolist()
    busy = recorder.link_busy()
    per = {
        li: LinkCongestion(
            link=table[li].name,
            direction=table[li].direction,
            wait_ns=wait_ns[li],
            waits=int(count[li]),
            peak_depth=peak[li],
            occupancy_ns=busy[li],
        )
        for li in np.flatnonzero(count).tolist()
    }
    # Per (link, feeder) pair, in order of first contribution.
    code = link * (n_links + 1) + previous + 1
    order = np.argsort(code, kind="stable")
    heads = runs(code[order])
    starts = np.zeros(len(code), np.int64)
    starts[heads] = 1
    pair = np.empty(len(code), np.int64)
    pair[order] = np.cumsum(starts) - 1
    fed = sums(pair, waits, len(heads)).tolist()
    first = order[heads]
    for k in np.argsort(first).tolist():
        li, feeder = divmod(int(code[first[k]]), n_links + 1)
        name = INJECTION if feeder == 0 else table[feeder - 1].name
        per[li].fed_by[name] = fed[k]
    episodes = _episodes(link, enqueue[contended], grant[contended])
    for li, start, end, packets, ep_wait in zip(
        *(c.tolist() for c in episodes)
    ):
        if end - start >= min_episode_ns:
            lc = per[li]
            lc.episodes.append(
                Episode(lc.link, lc.direction, start, end, packets, ep_wait)
            )
    links = sorted(per.values(), key=_rank_key)
    return CongestionTree(
        links=links,
        packets=len(recorder),
        contended_hops=len(contended),
    )


def blocked_behind(
    recorder: FlightRecorder, flight: PacketFlight, hop_index: int
) -> Optional[int]:
    """The packet id a waiter was directly blocked behind.

    FCFS grant semantics: the wait on ``flight.hops[hop_index]`` ended
    the instant the previous occupant released the channel, so the
    blocker is the occupancy record on the same link whose release time
    equals the waiter's grant time.  Returns ``None`` for an
    uncontended hop or when no occupancy matches (e.g. truncated
    records).
    """
    hop = flight.hops[hop_index]
    if hop.wait_ns <= 0.0:
        return None
    for grant, release, pid in recorder.link_occupancy.get(hop.link, ()):
        if release == hop.grant_ns and pid != flight.packet_id:
            return pid
        if grant > hop.grant_ns:
            break
    return None
