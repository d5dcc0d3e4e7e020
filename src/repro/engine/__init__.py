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
* An event's action is a plain function and its args tuple.  The
  model runs on such continuations: the network transits, and the
  MD step and collectives as per-node legs stepped by counter, hold
  and send continuations (:mod:`repro.asic.slice_`).
* Processes are plain Python generators that ``yield`` waitables
  (:class:`Event`, :class:`Timeout`, another :class:`Process`, or an
  :class:`AllOf` combinator).  They serve only the ``baselines``, the
  measurement harnesses not yet moved to continuations, and tests.
* :class:`Resource` provides FCFS mutual exclusion with optional
  capacity, used for processing-slice occupancy and HTIS pipelines
  (torus link directions carry their own channel, see
  :mod:`repro.network.link`).
"""

from repro.engine.event import AllOf, Event, Interrupt, Timeout
from repro.engine.process import Process
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator

__all__ = [
    "AllOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
]
