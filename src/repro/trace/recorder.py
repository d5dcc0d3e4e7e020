"""Activity interval recording.

Units (Tensilica cores, geometry cores, HTIS pipelines, torus links)
report labelled intervals: what they were doing, from when to when.
The recorder is deliberately dumb — a list of intervals per unit —
so that the analysis code in :mod:`repro.trace.stats` can classify
activities as computation vs communication after the fact, the same
way the paper derives communication time by subtracting critical-path
arithmetic from total time (Table 3 caption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator

class ActivityKind(Enum):
    """Classification of a recorded interval."""

    COMPUTE = "compute"          # numerical work (arithmetic)
    SEND = "send"                # packet assembly / injection
    RECEIVE = "receive"          # polling / message processing
    WAIT = "wait"                # stalled waiting for data
    LINK = "link"                # torus link occupied
    BOOKKEEPING = "bookkeeping"  # software overhead that is neither

    @property
    def is_communication(self) -> bool:
        """Whether Table 3 counts this as communication time.

        The paper's communication time "includes all sender, receiver
        and synchronization overhead, as well as the time required for
        on-chip data movement" — everything except arithmetic.
        """
        return self in (
            ActivityKind.SEND,
            ActivityKind.RECEIVE,
            ActivityKind.WAIT,
            ActivityKind.BOOKKEEPING,
        )


@dataclass(frozen=True, slots=True)
class Activity:
    """One recorded interval on one unit."""

    unit: str
    kind: ActivityKind
    start_ns: float
    end_ns: float
    label: str = ""

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError(
                f"activity on {self.unit!r} ends before it starts "
                f"({self.start_ns} .. {self.end_ns})"
            )


class ActivityRecorder:
    """Collects activity intervals for a whole machine run."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._intervals: list[Activity] = []

    # -- immediate recording -------------------------------------------------
    def record(
        self,
        unit: str,
        kind: ActivityKind,
        start_ns: float,
        end_ns: float,
        label: str = "",
    ) -> None:
        """Record a complete interval."""
        self._intervals.append(Activity(unit, kind, start_ns, end_ns, label))

    def record_span(self, unit: str, kind: ActivityKind, duration_ns: float,
                    label: str = "") -> None:
        """Record an interval ending now with the given duration."""
        now = self.sim.now
        self.record(unit, kind, now - duration_ns, now, label)

    # -- queries --------------------------------------------------------------
    def intervals(
        self,
        unit: Optional[str] = None,
        kind: Optional[ActivityKind] = None,
        start_ns: float = float("-inf"),
        end_ns: float = float("inf"),
    ) -> list[Activity]:
        """Filtered view of recorded intervals, in recording order."""
        out = []
        for a in self._intervals:
            if unit is not None and a.unit != unit:
                continue
            if kind is not None and a.kind is not kind:
                continue
            if a.end_ns <= start_ns or a.start_ns >= end_ns:
                continue
            out.append(a)
        return out

    def units(self) -> list[str]:
        """All unit names seen, sorted."""
        return sorted({a.unit for a in self._intervals})

    def busy_ns(self, unit: str, kind: Optional[ActivityKind] = None) -> float:
        """Total recorded time on a unit (optionally one kind)."""
        return sum(a.duration_ns for a in self.intervals(unit=unit, kind=kind))

    def clear(self) -> None:
        self._intervals.clear()

    def __len__(self) -> int:
        return len(self._intervals)
