"""Discrete-event simulation engine.

A minimal, deterministic discrete-event simulator, specialised for the
needs of the Anton communication model: nanosecond-resolution simulated
time, an event queue of plain-function continuations, an FCFS booking
slot for every single-server unit, and one-shot events that end a run.

Design notes
------------
* Simulated time is a float in **nanoseconds**.  Events run in
  ``(time, scheduling order)`` order — the event queue is a calendar of
  FIFO buckets keyed on exact timestamps (see
  :mod:`repro.engine.simulator`) — so repeated runs produce identical
  traces.
* An event's action is a plain function and its args tuple.  All
  simulated software runs on such continuations: the network
  transits; the MD step and collectives as per-node legs stepped by
  counter, hold and send continuations; the measurement harnesses as
  fixed slice programs; and the commodity-cluster baselines as node
  programs.  A fixed program is a ``Steps`` list of continuation
  forms, ended by a ``Join`` (:mod:`repro.asic.slice_`).
* :class:`Resource` is the one FCFS server, a booking slot: a
  request is granted at ``max(now, free_at)`` when it is made.  It
  serves processing-slice cores, HTIS pipelines, a cluster node's CPU
  and NIC through :meth:`Resource.hold`, which schedules the hold's
  continuation itself at its end, and every torus link direction
  (:class:`repro.network.link.TorusLink`).  No grant and no release is
  an event.
* :class:`Event` is only the stop marker a run waits on
  (``Simulator.run(until=event)``): the end of a harness, of a
  collective's run or of an MD step's legs.  Nothing attaches a
  callback to it; software waits in continuation slots (a counter's
  target, the message FIFO, an in-order packet's delivery gate).
"""

from repro.engine.event import Event
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator

__all__ = [
    "Event",
    "Resource",
    "Simulator",
]
