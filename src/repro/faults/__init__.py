"""Deterministic fault injection for the torus fabric.

Real Anton-class networks are lossless only because every link pairs
CRC error *detection* with link-level *retransmission* (the Anton 3
network paper describes exactly that machinery; QCDOC's torus leaned
on the same discipline).  This package adds that layer to the
reproduction as three pieces:

* :class:`~repro.faults.plan.FaultPlan` — a declarative, serializable
  schedule of faults: per-link bit-error rates, transient degradation
  (bandwidth/latency multipliers over time windows), hard link-down
  intervals, and node stall events, all drawn from per-fault derived
  seeds so sweeps stay reproducible;
* :class:`~repro.faults.session.FaultSession` — the runtime that the
  network transport consults per hop: CRC-style detection with a
  calibrated detection latency, bounded retransmission with
  exponential backoff while the channel is held (which is what keeps
  delivery in order across retries), and a retry-exhausted escalation
  path that is never silent;
* :mod:`~repro.faults.study` — the degradation experiments
  (``fault_sensitivity``, ``link_degradation``) registered through the
  sweep runner, including the Anton-vs-cluster crossover analysis.

The subsystem is strictly opt-in: a network built outside a
:func:`~repro.faults.session.use_faults` block (or with an empty plan)
takes the exact pre-existing code path — runs with injection disabled
are byte-identical to runs without this package, property-tested in
``tests/properties/test_fault_equivalence.py``.
"""

from repro.faults.plan import (
    BitError,
    Degradation,
    FaultPlan,
    LinkDown,
    NodeStall,
)
from repro.faults.session import (
    FaultSession,
    FaultStats,
    RetryExhausted,
    use_fault_plan,
    use_faults,
)

__all__ = [
    "BitError",
    "Degradation",
    "FaultPlan",
    "FaultSession",
    "FaultStats",
    "LinkDown",
    "NodeStall",
    "RetryExhausted",
    "use_fault_plan",
    "use_faults",
]
