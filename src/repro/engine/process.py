"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each value the generator
yields must be a waitable (:class:`~repro.engine.event.Event`, which
includes :class:`~repro.engine.event.Timeout`, other processes, and
the ``AllOf`` combinator).  When the waitable fires, the process is
resumed with the waitable's value; if the waitable failed, the
exception is thrown into the generator so that processes can use
ordinary ``try``/``except`` for error handling.

A process is itself an :class:`Event` that fires with the generator's
return value, so processes can wait on each other (fork/join).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.engine.event import Event, Interrupt, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator

Coroutine = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process (also an event: fires on completion)."""

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Coroutine, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call the process function with ()?"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick-start at the current time, via the queue for determinism.
        sim.schedule(0.0, self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting detaches it from its waitable (the
        waitable may still fire later and is simply ignored).
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")
        self.sim.schedule(0.0, self._resume, None, Interrupt(cause))

    # -- engine internals -------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:  # interrupted after completion race: drop
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:
            # If somebody is waiting on this process, fail the completion
            # event so the waiter can handle it with try/except.  An
            # unobserved crash is a programming error: record it so the
            # simulator aborts the run with the original traceback.
            if self.callbacks:
                self.fail(error)
            else:
                self._value = error
                self._ok = False
                self.callbacks = None
                self.sim._record_crash(self, error)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Register as a waiter of ``target`` and remember it in
        ``_waiting_on``.

        A pending :class:`Timeout` with no other waiter records this
        process in its ``_proc`` slot, which :meth:`Simulator._fire`
        resumes directly; a process re-waiting on a timeout it already
        holds that slot of (after an interrupt) keeps its place.  Every
        other wait attaches :meth:`_on_wait_done` as a callback.  Both
        paths resume only while ``_waiting_on`` is still ``target``.
        """
        is_timeout = target.__class__ is Timeout
        if not is_timeout and not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances (Timeout, Process, AllOf, ...)"
            )
        if target.sim is not self.sim:
            raise ValueError("cannot wait on an event from another simulator")
        self._waiting_on = target
        if is_timeout:
            proc = target._proc
            if proc is self:
                return
            if proc is None and target.callbacks == []:
                target._proc = self
                return
        target.add_callback(self._on_wait_done)

    def _on_wait_done(self, event: Event) -> None:
        """Callback path of a wait: resume with ``event``'s outcome,
        unless the process stopped waiting on it (an interrupt)."""
        if self._waiting_on is not event:
            # Stale callback (we were interrupted while waiting).
            return
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event._value)
