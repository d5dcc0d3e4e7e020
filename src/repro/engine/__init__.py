"""Discrete-event simulation engine.

A minimal, deterministic, generator-based discrete-event simulator in the
style of SimPy, specialised for the needs of the Anton communication
model: nanosecond-resolution simulated time, FCFS resources for links and
cores, and one-shot events used to model packet arrival and
synchronization-counter thresholds.

Design notes
------------
* Simulated time is a float in **nanoseconds**.  Events run in
  ``(time, scheduling order)`` order — the event queue is a calendar of
  FIFO buckets keyed on exact timestamps (see
  :mod:`repro.engine.simulator`) — so repeated runs produce identical
  traces.
* Processes are plain Python generators that ``yield`` waitables
  (:class:`Event`, :class:`Timeout`, another :class:`Process`, or an
  :class:`AllOf` / :class:`AnyOf` combinator).  This keeps the hot loop
  free of threads and allocation-heavy machinery (see the profiling
  guidance in the scientific-python optimization notes: make it work,
  make it deterministic, then make it fast).
* :class:`Resource` provides FCFS mutual exclusion with optional
  capacity, used for processing-slice occupancy and HTIS pipelines
  (torus link directions carry their own channel, see
  :mod:`repro.network.link`).
"""

from repro.engine.event import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.engine.process import Process
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
]
