"""The stop marker of a run.

An :class:`Event` is a one-shot occurrence: it starts *pending*, is
*triggered* exactly once with an optional value, and thereafter holds
its value forever.  A run stops on it (``Simulator.run(until=event)``),
which returns its value.  Nothing waits on an event otherwise: software
waits in continuation slots (a counter's target, a busy unit's queue,
an in-order packet's gate).
"""

from __future__ import annotations

from typing import Any

PENDING = object()


class Event:
    """A one-shot event: a harness's end, or the end of a step's legs.

    Parameters
    ----------
    name:
        Optional human-readable label used in ``repr`` and error
        messages.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value: Any = PENDING

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been triggered."""
        return self._value is not PENDING

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises
        ------
        RuntimeError
            If the event is still pending.
        """
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"
