"""Discrete-event simulation engine.

A minimal, deterministic discrete-event simulator, specialised for the
needs of the Anton communication model: nanosecond-resolution simulated
time, an event queue of plain-function continuations, FCFS resources for
cores, and one-shot events that end a run.

Design notes
------------
* Simulated time is a float in **nanoseconds**.  Events run in
  ``(time, scheduling order)`` order — the event queue is a calendar of
  FIFO buckets keyed on exact timestamps (see
  :mod:`repro.engine.simulator`) — so repeated runs produce identical
  traces.
* An event's action is a plain function and its args tuple.  The
  whole Anton side runs on such continuations: the network transits;
  the MD step and collectives as per-node legs stepped by counter,
  hold and send continuations; and the measurement harnesses as fixed
  slice programs (:mod:`repro.asic.slice_`).
* Processes are SimPy-style Python generators that ``yield`` waitables
  (:class:`Event`, :class:`Timeout`, another :class:`Process`, or an
  :class:`AllOf` combinator).  They serve only the commodity-cluster
  ``baselines`` and the engine's own tests.
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
