"""One-shot events for the simulation engine.

An :class:`Event` is a one-shot occurrence: it starts *pending*, is
*triggered* exactly once with an optional value, and thereafter holds
its value forever.  Callbacks attached to it run through the event
queue when it fires; a run can also stop on it
(``Simulator.run(until=event)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.simulator import Simulator

PENDING = object()


class Event:
    """A one-shot event: a resource grant, a harness's end, an
    in-order predecessor's delivery.

    Parameters
    ----------
    sim:
        The owning simulator.  Triggering an event schedules its
        callbacks at the current simulated time.
    name:
        Optional human-readable label used in ``repr`` and error
        messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
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
        self.sim._dispatch(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs when the event fires.

        If the event already fired, the callback is invoked via the
        event queue at the current time (never synchronously), keeping
        execution order deterministic.
        """
        if self.callbacks is None:
            self.sim.schedule(0.0, callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"
