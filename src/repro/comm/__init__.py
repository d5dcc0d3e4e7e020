"""Anton's communication paradigms built on the network substrate.

* :mod:`repro.comm.counted_write` — the counted-remote-write gather
  abstraction (§III.B): pre-allocated receive buffers, fixed packet
  counts, synchronization embedded in communication.
* :mod:`repro.comm.collectives` — dimension-ordered global all-reduce
  and barrier (§IV.B.4), plus a radix-2 butterfly for hop-count
  comparison.
* :mod:`repro.comm.migration` — the atom-migration protocol: FIFO
  messages plus an in-order multicast flush write (§IV.B.5).
"""

from repro.comm.counted_write import CountedGather, GatherSource
from repro.comm.collectives import (
    AllReduce,
    butterfly_hops,
    butterfly_rounds,
    dimension_ordered_hops,
    dimension_ordered_rounds,
)
from repro.comm.migration import MigrationProtocol

__all__ = [
    "AllReduce",
    "CountedGather",
    "GatherSource",
    "MigrationProtocol",
    "butterfly_hops",
    "butterfly_rounds",
    "dimension_ordered_hops",
    "dimension_ordered_rounds",
]
