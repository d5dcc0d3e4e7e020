"""Global reductions and barriers (§IV.B.4, Table 2).

Anton provides no specific hardware support for global reductions, but
the combination of multicast and counted remote writes yields a fast
software implementation:

* the 3-D reduction decomposes into parallel 1-D all-reduce rounds
  along X, then Y, then Z (the QCDOC algorithm), achieving the minimum
  total hop count — 3N/2 for an N×N×N machine versus 3(N−1) for a
  radix-2 butterfly;
* within a dimension, each of the N nodes multicasts its partial value
  to the other N−1 nodes with counted remote writes, then all N
  redundantly compute the same sum;
* processing slice *k* handles round *k*, so after three rounds slice 2
  holds the global sum and shares it locally with the other slices;
* the sums run in software on the slices — polling accumulation-memory
  counters across the ring would cost more than the adds;
* a global barrier is simply a 0-byte reduction.

As in hardware, where a counter reaching its target is what starts the
next send, no process runs a node's part: each node's leg is one
object whose steps run inside the event of the increment that
completes a poll (``SyncCounter.on_target``) or of the end of a
Tensilica hold (``ProcessingSlice.hold``).  Both all-reduces run the
same legs: a dimension round multicasts to the node's axis peers, and
a stage of the radix-2 butterfly baseline writes to one partner.
:mod:`repro.comm.migration` steps its legs the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

import numpy as np

from repro import instruments
from repro.asic.node import Machine
from repro.asic.slice_ import Join, ProcessingSlice
from repro.constants import REDUCE_SUM_NS_PER_WORD
from repro.network.multicast import compile_pattern
from repro.network.packet import PacketKind
from repro.topology.torus import DIMS, NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator

_AXIS = {"x": 0, "y": 1, "z": 2}


def sum_as_numpy(values: list[float]) -> float:
    """``float(np.sum(values))``, bit for bit, without NumPy's call cost
    on the short lists a node sums each round (N−1 ≤ 7 terms per axis
    on the paper's 8×8×8 machine).

    NumPy adds fewer than eight float64 terms one at a time, left to
    right, from 0.0; the loop below does the same.  (The builtin
    ``sum`` does not: from Python 3.12 it compensates.)  Eight or more
    terms are summed pairwise in unrolled blocks, so longer lists go to
    NumPy.  ``tests/properties/test_sum_as_numpy.py`` proves the
    equality, signed zeros included.
    """
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for x in values:
        total += x
    return total


# ---------------------------------------------------------------------------
# Analytic hop/round counts (paper §IV.B.4 comparison)
# ---------------------------------------------------------------------------

def dimension_ordered_rounds(shape: tuple[int, int, int]) -> int:
    """Communication rounds of the dimension-ordered algorithm (≤ 3)."""
    return sum(1 for n in shape if n > 1)


def dimension_ordered_hops(shape: tuple[int, int, int]) -> int:
    """Sequential hop count of the dimension-ordered algorithm.

    Per dimension the farthest peer is ``n // 2`` hops away, so an
    N×N×N machine needs 3N/2 hops, as the paper states.
    """
    return sum(n // 2 for n in shape if n > 1)


def _butterfly_extents(shape: tuple[int, int, int]) -> list[int]:
    extents = [n for n in shape if n > 1]
    for n in extents:
        if n & (n - 1):
            raise ValueError(f"butterfly requires power-of-two extents, got {n}")
    return extents


def butterfly_rounds(shape: tuple[int, int, int]) -> int:
    """Rounds of a radix-2 butterfly: 3·log2(N) for N×N×N."""
    return sum(int(math.log2(n)) for n in _butterfly_extents(shape))


def butterfly_hops(shape: tuple[int, int, int]) -> int:
    """Sequential hop count of a radix-2 butterfly on the torus.

    Partners sit at distances 1, 2, 4, … n/2 along each dimension; the
    sum is n−1 per dimension — 3(N−1) for N×N×N, as the paper states.
    """
    return sum(n - 1 for n in _butterfly_extents(shape))


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

@dataclass
class AllReduceResult:
    """Outcome of one all-reduce execution."""

    value: Any
    elapsed_ns: float
    per_node_done_ns: dict[NodeCoord, float]

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_ns / 1000.0


def run_phase(collective: Any, name: str, phase: str,
              begin: Callable[[], "_Run"]) -> tuple["_Run", float]:
    """Run one execution of a collective to its end.

    ``begin()`` starts it and returns its :class:`_Run`.  The run is
    bracketed in the flight phase ``phase``, which closes at the last
    done time, and in the profiler phase ``name``; the registry counts
    it in ``comm.<name>.*``.  Returns the run and its elapsed time.
    """
    sim = collective.sim
    start = sim.now
    fl = collective.machine.network.flight
    if fl.enabled:
        fl.phase_begin(phase, start)
    prof = instruments.current().profiler
    if prof is not None:
        prof.phase_begin(name)
    try:
        run = begin()
        sim.run(until=run.done)
    finally:
        if prof is not None:
            prof.phase_end(name)
    end = max(run.done_times.values())
    if fl.enabled:
        fl.phase_end(phase, end)
    reg = instruments.current().registry
    if reg is not None:
        reg.counter(f"comm.{name}.runs").inc()
        reg.histogram(f"comm.{name}.elapsed_ns").observe(end - start)
    return run, end - start


class _Reduction:
    """What the two all-reduces share: one :class:`_Leg` per node in
    ``_legs``, which :meth:`begin` starts and :meth:`run` runs to the
    end, where every node must agree."""

    name = ""

    def __init__(self, machine: Machine, payload_bytes: int) -> None:
        self.machine, self.sim, self.torus = machine, machine.sim, machine.torus
        self.payload_bytes = payload_bytes
        self._runs = 0

    def begin(self, values: Optional[dict[NodeCoord, float]] = None) -> "_Run":
        """Start every node's leg, each in one event at the current
        instant (behind every event already there), and return the
        run they report into, which continues each node where its leg
        ends (:meth:`_Run.on_node_end`).  For embedding in a larger
        simulation (the MD thermostat); the caller waits for the run
        before starting the next, which counts on the same counters."""
        torus = self.torus
        if values is None:
            values = {c: float(torus.rank(c)) for c in torus.nodes()}
        missing = [c for c in torus.nodes() if c not in values]
        if missing:
            raise ValueError(f"missing contributions for nodes {missing[:3]}...")
        self._runs += 1
        sim = self.sim
        run = _Run(sim, len(self._legs))
        for leg in self._legs:
            sim.schedule_now(_Leg.start, (leg, run, values[leg.coord]))
        return run

    def run(self, values: Optional[dict[NodeCoord, float]] = None) -> AllReduceResult:
        """Execute one all-reduce over per-node scalar contributions.

        ``values`` maps node coordinate to its contribution (default:
        every node contributes its rank, which makes the expected sum
        easy to verify).  Returns the result with timing.
        """
        name = self.name
        phase = f"{name}[{self.payload_bytes}B]#{self._runs + 1}"
        run, elapsed = run_phase(self, name, phase, lambda: self.begin(values))
        final = run.final
        results = set(final.values())
        if len(results) != 1:
            raise AssertionError(f"{name} diverged: {sorted(results)[:4]}")
        return AllReduceResult(
            value=final[next(iter(final))],
            elapsed_ns=elapsed,
            per_node_done_ns=run.done_times,
        )


# ---------------------------------------------------------------------------
# Dimension-ordered all-reduce
# ---------------------------------------------------------------------------

class AllReduce(_Reduction):
    """Reusable dimension-ordered global all-reduce on a machine.

    Construction establishes the fixed communication patterns: one
    multicast tree per (node, active dimension) reaching slice *k* of
    the node's axis peers, one receive buffer + counter per round on
    each slice, and each node's leg (:class:`_Leg`).  ``run()`` then
    executes the collective and measures its latency.  The object can
    be reused any number of times, matching how the thermostat
    reduction runs every other time step: every run counts on the same
    counter ids, and each receiver resets its counter right after the
    poll that consumes it, so a machine holds the same counters after
    its thousandth run as after its first.

    Parameters
    ----------
    machine:
        The simulated Anton machine.
    payload_bytes:
        Reduction payload (Table 2 uses 0 and 32).
    share_locally:
        When true (default), completion includes slice 2 sharing the
        result with the other three slices on each node.
    """

    def __init__(self, machine: Machine, payload_bytes: int = 32,
                 share_locally: bool = True) -> None:
        super().__init__(machine, payload_bytes)
        self.share_locally = share_locally
        self.active_dims = [d for d in DIMS if self.torus.shape[_AXIS[d]] > 1]
        # Receive buffers are pre-allocated and never freed; a second
        # AllReduce on the same machine gets its own buffer and counter
        # namespace.
        self._uid = AllReduce._instances
        AllReduce._instances += 1
        self._legs = self._setup()

    name = "allreduce"
    _instances = 0

    # -- fixed pattern establishment ---------------------------------------
    def _setup(self) -> list["_Leg"]:
        """Allocate the buffers, register the trees and build the legs.
        Each round's receive buffer and its counter share one id, as do
        the local share buffer and its counter."""
        torus = self.torus
        tag = f"allreduce{self._uid}"
        words = max(1, self.payload_bytes // 4)
        last = len(self.active_dims) - 1
        share_id = f"{tag}-share"
        legs = []
        for coord in torus.nodes():
            slices = self.machine.node(coord).slices
            rounds = []
            for k, dim in enumerate(self.active_dims):
                n = torus.shape[_AXIS[dim]]
                rid = f"{tag}-{dim}"
                # Receive buffer: one slot per axis position; the
                # sender's axis coordinate is the slot, so one multicast
                # address works at every receiver.
                slices[k].memory.allocate(rid, n)
                peers = torus.axis_peers(coord, dim)
                tree = compile_pattern(torus, coord, {p: [f"slice{k}"] for p in peers})
                if k < last:  # hand the partial to the next round's slice
                    local, lid, laddr = (slices[k + 1],), f"{tag}-hand{k}", None
                elif self.share_locally:  # share the sum with the others
                    local = tuple(s for s in slices if s is not slices[k])
                    lid, laddr = share_id, (share_id, 0)
                    for peer in local:
                        peer.memory.allocate(share_id, 1)
                else:
                    local, lid, laddr = (), share_id, None
                rounds.append(_Round(
                    slices[k], coord, rid, coord[_AXIS[dim]], n - 1,
                    self.machine.network.register_pattern(tree),
                    REDUCE_SUM_NS_PER_WORD * words * (n - 1), local, lid, laddr,
                ))
            legs.append(_Leg(coord, rounds, self.payload_bytes))
        return legs


class _Run(Join):
    """One execution of a collective, which its legs report into:
    ``done`` fires when the last of ``remaining`` legs (or halves) has
    ended (:meth:`Join.ended`), and node ``c``'s part ended at
    ``done_times[c]`` with ``final[c]``.  It refers to no leg, so no
    run is a cycle."""

    __slots__ = ("then", "final", "done_times")

    def __init__(self, sim: "Simulator", legs: int) -> None:
        super().__init__(sim, legs)
        #: Node -> the continuation its leg's end runs.
        self.then: dict[NodeCoord, tuple[Callable[..., None], tuple]] = {}
        self.final: dict[NodeCoord, Any] = {}
        self.done_times: dict[NodeCoord, float] = {}

    def on_node_end(self, coord: NodeCoord, fn: Callable[..., None],
                    args: tuple) -> None:
        """Run ``fn(*args)`` once node ``coord``'s leg has ended: at
        once if it has, else inside the event that ends it."""
        if coord in self.done_times:
            fn(*args)
        else:
            self.then[coord] = (fn, args)


class _Round(NamedTuple):
    """One node's fixed part of one round: a dimension round multicasts
    to slice *k* of the node's axis peers, a butterfly stage writes to
    its partner's slice 0."""

    slice: ProcessingSlice
    dst: NodeCoord  # written to: this node (with a pattern) or a partner
    rid: str  # receive buffer and counter id
    slot: int  # this node's slot at its peers
    expected: int  # contributions polled for
    pattern: Optional[int]  # multicast pattern id (None: unicast to dst)
    sum_ns: float  # redundant software sum on the Tensilica core
    local: tuple  # slices the partial is written to next, on this node
    lid: str  # their counter id
    laddr: Any  # their buffer address (None: the counter alone)


class _Leg:
    """One node's leg of the all-reduce, stepped by counter
    continuations rather than run as a process.

    Per round it writes its partial to the round's destination (a
    multicast to slice *k* of its axis peers, or a butterfly partner),
    polls for the contributions and sums them in software.  Then it
    writes the partial locally, if the round has local slices: to the
    next round's slice, or the global sum to the other three slices,
    one after another, and polls each.  Each step is a plain function
    that the slice's ``send_then``, ``poll_then`` or ``hold`` continues
    with the leg and the round index as args, so a leg allocates no
    process, generator or closure.
    """

    __slots__ = ("coord", "rounds", "payload_bytes", "run", "v", "unpolled")

    def __init__(self, coord: NodeCoord, rounds: list[_Round],
                 payload_bytes: int) -> None:
        self.coord, self.rounds, self.payload_bytes = coord, rounds, payload_bytes

    def start(self, run: _Run, value: float) -> None:
        self.run = run
        self.v = value
        self._send(0) if self.rounds else self._finish()

    def _write(self, src: ProcessingSlice, node: NodeCoord, dst: str, counter_id: str,
               address: Any, pattern_id: Optional[int],
               then: Callable[..., None], args: tuple) -> None:
        src.send_then(
            src.packet(PacketKind.WRITE, node, dst, self.v,
                       self.payload_bytes, counter_id, address,
                       pattern_id=pattern_id),
            then, args)

    def _send(self, i: int) -> None:
        r = self.rounds[i]
        self._write(r.slice, r.dst, r.slice.name, r.rid, (r.rid, r.slot), r.pattern,
                    ProcessingSlice.poll_then,
                    (r.slice, r.rid, r.expected, _Leg._sum, (self, i)))

    def _sum(self, i: int) -> None:
        r = self.rounds[i]
        r.slice.counter(r.rid).reset()
        buf = r.slice.memory.buffer(r.rid)
        contributions = [s for s in buf.slots if s is not None]
        if len(contributions) != r.expected:  # pragma: no cover - counted-write invariant
            raise AssertionError(
                f"{self.coord} round {i}: counter fired with "
                f"{len(contributions)}/{r.expected} slots written"
            )
        r.slice.hold(r.sum_ns, _Leg._summed, (self, i, buf, contributions))

    def _summed(self, i: int, buf: Any, contributions: list[float]) -> None:
        # One contribution adds as ``v + other``: summing it from 0.0
        # first would turn −0.0 + −0.0 into 0.0.
        self.v = self.v + (contributions[0] if len(contributions) == 1
                           else sum_as_numpy(contributions))
        buf.clear()
        self._local(i, 0)

    def _local(self, i: int, j: int) -> None:
        """Write the partial to the round's ``j``-th local slice, then
        to the next; after the last write, poll every one."""
        r = self.rounds[i]
        if j < len(r.local):
            self._write(r.slice, self.coord, r.local[j].name, r.lid, r.laddr, None,
                        _Leg._local, (self, i, j + 1))
            return
        if not r.local:
            return self._next(i)
        self.unpolled = len(r.local)
        for peer in r.local:
            peer.poll_then(r.lid, 1, _Leg._polled, (self, i))

    def _polled(self, i: int) -> None:
        self.unpolled -= 1
        if self.unpolled:
            return
        r = self.rounds[i]
        for peer in r.local:
            peer.counter(r.lid).reset()
        self._next(i)

    def _next(self, i: int) -> None:
        self._send(i + 1) if i + 1 < len(self.rounds) else self._finish()

    def _finish(self) -> None:
        run = self.run
        now = run.sim.now
        run.final[self.coord] = self.v
        run.done_times[self.coord] = now
        run.ended()
        then = run.then.pop(self.coord, None)
        if then is not None:
            then[0](*then[1])


# ---------------------------------------------------------------------------
# Radix-2 butterfly all-reduce (comparison baseline)
# ---------------------------------------------------------------------------

class ButterflyAllReduce(_Reduction):
    """Radix-2 butterfly all-reduce on the same machine.

    Used only as a comparison point: the paper notes a butterfly needs
    3·log2(N) rounds and 3(N−1) sequential hops versus 3 rounds and
    3N/2 hops for the dimension-ordered algorithm.  Exchanges are
    unicast counted remote writes between partners at power-of-two
    distances.
    """

    name = "butterfly"

    def __init__(self, machine: Machine, payload_bytes: int = 32) -> None:
        super().__init__(machine, payload_bytes)
        torus = self.torus
        _butterfly_extents(torus.shape)
        # Partners at distances 1, 2, 4, … n/2 along X, then Y, then Z;
        # each stage's one-slot buffer and its counter share an id.
        stages = [(dim, 1 << b) for dim in DIMS
                  for b in range(int(math.log2(torus.shape[_AXIS[dim]])))]
        sum_ns = REDUCE_SUM_NS_PER_WORD * max(1, payload_bytes // 4)
        self._legs = []
        for coord in torus.nodes():
            s0 = machine.node(coord).slices[0]
            rounds = []
            for stage, (dim, dist) in enumerate(stages):
                rid = f"bfly-{stage}"
                s0.memory.allocate(rid, 1)
                partner = coord._replace(**{dim: coord[_AXIS[dim]] ^ dist})
                rounds.append(_Round(s0, partner, rid, 0, 1, None, sum_ns, (), None, None))
            self._legs.append(_Leg(coord, rounds, payload_bytes))


def barrier(machine: Machine) -> float:
    """Global barrier as a 0-byte reduction; returns its latency in ns.

    The paper notes a fast barrier can be built this way, although
    Anton's MD code avoids global barriers entirely by other
    synchronization (Table 2 caption).
    """
    ar = AllReduce(machine, payload_bytes=0, share_locally=False)
    return ar.run().elapsed_ns
