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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.trace.flight import FlightRecorder, PacketFlight

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
    torus: "Optional[Torus3D]",
) -> list[str]:
    """For each of flight ``fi``'s hop-log ``rows``, the link that
    carried the packet into the hop's home node (``(injection)`` for
    hops leaving the source).

    With the torus geometry this works for multicast fan-out trees too
    (every node is entered by at most one link); without it, unicast
    hop lists are sequential chains and multicast hops degrade to
    ``(injection)``.
    """
    links = recorder.link_table
    hops = [links[recorder.hop_link[row]] for row in rows]
    if torus is not None:
        entered = {link.neighbor: link.name for link in hops}
        src = torus.coord(recorder.flight_src_node[fi])
        return [
            INJECTION if link.node == src
            else entered.get(link.node, INJECTION)
            for link in hops
        ]
    if not recorder.flight_multicast[fi]:
        return [INJECTION] + [link.name for link in hops[:-1]]
    return [INJECTION] * len(hops)


def _merge_episodes(
    link: str,
    direction: str,
    intervals: list[tuple[float, float]],
    min_episode_ns: float,
) -> list[Episode]:
    """Merge overlapping/touching wait intervals into episodes."""
    out: list[Episode] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1].end_ns:
            ep = out[-1]
            ep.end_ns = max(ep.end_ns, end)
            ep.packets += 1
            ep.wait_ns += end - start
        else:
            out.append(
                Episode(
                    link=link,
                    direction=direction,
                    start_ns=start,
                    end_ns=end,
                    packets=1,
                    wait_ns=end - start,
                )
            )
    return [e for e in out if e.duration_ns >= min_episode_ns]


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
    """
    links = recorder.link_table
    hop_link = recorder.hop_link
    enqueue_ns = recorder.hop_enqueue_ns
    grant_ns = recorder.hop_grant_ns
    hop_depth = recorder.hop_depth
    per: dict[int, LinkCongestion] = {}
    intervals: dict[int, list[tuple[float, float]]] = {}
    contended_hops = 0
    flight_rows, starts = recorder.hop_rows()
    for fi in range(len(recorder)):
        rows = flight_rows[starts[fi]:starts[fi + 1]]
        feeders = None
        for k, row in enumerate(rows):
            enqueue = enqueue_ns[row]
            grant = grant_ns[row]
            wait = grant - enqueue
            if wait <= 0.0:
                continue
            if feeders is None:
                feeders = _feeders(recorder, fi, rows, torus)
            contended_hops += 1
            li = hop_link[row]
            lc = per.get(li)
            if lc is None:
                link = links[li]
                lc = per[li] = LinkCongestion(
                    link=link.name, direction=link.direction
                )
                intervals[li] = []
            lc.wait_ns += wait
            lc.waits += 1
            feeder = feeders[k]
            lc.fed_by[feeder] = lc.fed_by.get(feeder, 0.0) + wait
            depth = hop_depth[row] + 1  # waiters including this packet
            if depth > lc.peak_depth:
                lc.peak_depth = depth
            intervals[li].append((enqueue, grant))
    busy = recorder.link_busy()
    for li, lc in per.items():
        lc.occupancy_ns = busy[li]
        lc.episodes = _merge_episodes(
            lc.link, lc.direction, intervals[li], min_episode_ns
        )
    links = sorted(per.values(), key=_rank_key)
    return CongestionTree(
        links=links,
        packets=len(recorder),
        contended_hops=contended_hops,
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
