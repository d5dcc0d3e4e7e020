"""Fixed-capacity time-series storage for the continuous sampler.

A monitored run must never grow without bound, whatever its length —
the same discipline the sketch-backed histograms and the diagnostic
log follow.  A :class:`RingSeries` keeps the most recent ``capacity``
samples in two preallocated ``array('d')`` buffers (unboxed doubles: a
4×4×4 machine carries 384 link-direction series without megabytes of
boxed floats) and counts every overwritten sample in :attr:`dropped` so
telemetry loss is always visible, never silent.
"""

from __future__ import annotations

from array import array


class RingSeries:
    """A bounded ``(time_ns, value)`` series with overwrite-oldest
    semantics and an explicit dropped-sample counter."""

    __slots__ = ("name", "capacity", "_t", "_v", "_head", "dropped")

    def __init__(self, name: str, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._t = array("d")
        self._v = array("d")
        self._head = 0  # oldest retained sample once the ring is full
        #: Samples overwritten to stay within capacity.
        self.dropped = 0

    def append(self, t: float, v: float) -> None:
        if len(self._t) < self.capacity:
            self._t.append(t)
            self._v.append(v)
            return
        head = self._head
        self._t[head] = t
        self._v[head] = v
        self._head = (head + 1) % self.capacity
        self.dropped += 1

    @property
    def total_seen(self) -> int:
        """Every sample ever appended, retained or dropped."""
        return len(self._t) + self.dropped

    @property
    def last(self) -> tuple[float, float]:
        """Most recent ``(time_ns, value)`` sample."""
        if not self._t:
            raise ValueError(f"series {self.name!r} is empty")
        i = (self._head - 1) % len(self._t)
        return (self._t[i], self._v[i])

    def samples(self) -> list[tuple[float, float]]:
        """Retained samples in time order (oldest first)."""
        n = len(self._t)
        head = self._head
        return [
            (self._t[(head + i) % n], self._v[(head + i) % n])
            for i in range(n)
        ]

    def values(self) -> list[float]:
        """Retained values in time order."""
        return [v for _, v in self.samples()]

    def __len__(self) -> int:
        return len(self._t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RingSeries {self.name} n={len(self._t)}/{self.capacity} "
            f"dropped={self.dropped}>"
        )
