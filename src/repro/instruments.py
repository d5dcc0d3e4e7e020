"""The one attachment point for every instrument.

An experiment builds its own machinery (simulators, machines,
networks) deep inside measurement harnesses, so an instrument cannot
be handed to it as a parameter.  Instead the instrument is installed in
a *slot* for the span of a ``with`` block, and the machinery reads the
slot set when it is built:

* :class:`~repro.engine.simulator.Simulator` reads ``profiler`` (and
  attaches it) and ``sims`` (and appends itself);
* :func:`~repro.asic.node.build_machine` reads ``monitor``;
* :class:`~repro.network.network.Network` reads ``flight`` and
  ``faults``;
* the comm and MD phase sites read ``profiler`` and ``registry`` per
  call, as does a fault session built without a registry.

Pickup is construction-time: a simulator built before a profiler is
installed is profiled only if the profiler is ``attach``-ed to it, and
one built inside the block keeps its instruments after the block ends.

:func:`use` is the only writer.  It overrides the slots it names,
inherits every slot it does not name from the enclosing block, and
restores the whole set on every way out.  The documented
``use_registry``, ``use_flight``, ``use_faults``, ``use_fault_plan``,
``use_monitoring`` and ``use_profiling`` are one-line calls into it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.session import FaultSession
    from repro.monitor.health import MonitorSession
    from repro.profile.profiler import EngineProfiler
    from repro.trace.flight import FlightRecorder
    from repro.trace.metrics import MetricsRegistry


class Slots(NamedTuple):
    """The instruments in force; ``None`` means the slot is empty."""

    registry: "Optional[MetricsRegistry]" = None
    flight: "Optional[FlightRecorder]" = None
    faults: "Optional[FaultSession]" = None
    monitor: "Optional[MonitorSession]" = None
    profiler: "Optional[EngineProfiler]" = None
    #: Every simulator built while set: how ``run_experiment`` counts
    #: the run loops of one run.
    sims: Optional[list] = None


_current = Slots()


def current() -> Slots:
    """The slot set in force."""
    return _current


@contextmanager
def use(**slots: Any) -> Iterator[Any]:
    """Override the named slots for the block; yields the value of the
    first one named.  An unknown slot name raises ``ValueError``."""
    global _current
    prev = _current
    _current = prev._replace(**slots)
    try:
        yield next(iter(slots.values()), None)
    finally:
        _current = prev
