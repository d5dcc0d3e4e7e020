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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from repro.asic.node import Machine
from repro.constants import REDUCE_SUM_NS_PER_WORD
from repro.engine.event import Event
from repro.network.multicast import compile_pattern
from repro.topology.torus import DIMS, NodeCoord
from repro.trace.metrics import active_registry

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


def butterfly_rounds(shape: tuple[int, int, int]) -> int:
    """Rounds of a radix-2 butterfly: 3·log2(N) for N×N×N."""
    total = 0
    for n in shape:
        if n > 1:
            if n & (n - 1):
                raise ValueError(f"butterfly requires power-of-two extents, got {n}")
            total += int(math.log2(n))
    return total

def butterfly_hops(shape: tuple[int, int, int]) -> int:
    """Sequential hop count of a radix-2 butterfly on the torus.

    Partners sit at distances 1, 2, 4, … n/2 along each dimension; the
    sum is n−1 per dimension — 3(N−1) for N×N×N, as the paper states.
    """
    total = 0
    for n in shape:
        if n > 1:
            if n & (n - 1):
                raise ValueError(f"butterfly requires power-of-two extents, got {n}")
            total += n - 1
    return total


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


# ---------------------------------------------------------------------------
# Dimension-ordered all-reduce
# ---------------------------------------------------------------------------

class AllReduce:
    """Reusable dimension-ordered global all-reduce on a machine.

    Construction establishes the fixed communication patterns: one
    multicast tree per (node, active dimension) reaching slice *k* of
    the node's axis peers, and one receive buffer + counter per round
    on each slice.  ``run()`` then executes the collective and measures
    its latency.  The object can be reused any number of times,
    matching how the thermostat reduction runs every other time step:
    every run counts on the same counter ids, and each receiver resets
    its counter right after the poll that consumes it, so a machine
    holds the same counters after its thousandth run as after its
    first.

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

    def __init__(
        self,
        machine: Machine,
        payload_bytes: int = 32,
        share_locally: bool = True,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.payload_bytes = payload_bytes
        self.share_locally = share_locally
        self.torus = machine.torus
        self.active_dims = [d for d in DIMS if self.torus.shape[_AXIS[d]] > 1]
        self._round_slice = {d: k for k, d in enumerate(self.active_dims)}
        self._patterns: dict[tuple[NodeCoord, str], int] = {}
        self._runs = 0
        # Receive buffers are pre-allocated and never freed; a second
        # AllReduce on the same machine gets its own buffer and counter
        # namespace.
        self._uid = AllReduce._instances
        AllReduce._instances += 1
        # Each round's receive buffer and its counter share one id, as
        # do the local share buffer and its counter.
        tag = f"allreduce{self._uid}"
        self._round_ids = {d: f"{tag}-{d}" for d in self.active_dims}
        self._hand_ids = [f"{tag}-hand{k}" for k in range(len(self.active_dims))]
        self._share_id = f"{tag}-share"
        self._setup()

    _instances = 0

    # -- fixed pattern establishment ---------------------------------------
    def _setup(self) -> None:
        torus = self.torus
        for coord in torus.nodes():
            node = self.machine.node(coord)
            for dim in self.active_dims:
                k = self._round_slice[dim]
                slice_k = node.slices[k]
                n = torus.shape[_AXIS[dim]]
                # Receive buffer: one slot per axis position; the
                # sender's axis coordinate is the slot, so one multicast
                # address works at every receiver.
                slice_k.memory.allocate(self._round_ids[dim], n)
                peers = torus.axis_peers(coord, dim)
                tree = compile_pattern(
                    torus, coord, {p: [f"slice{k}"] for p in peers}
                )
                pid = self.machine.network.register_pattern(tree)
                self._patterns[(coord, dim)] = pid
            if self.share_locally and self.active_dims:
                last_k = self._round_slice[self.active_dims[-1]]
                for i in range(4):
                    if i != last_k:
                        node.slices[i].memory.allocate(self._share_id, 1)

    # -- execution --------------------------------------------------------------
    def start(
        self, values: Optional[dict[NodeCoord, float]] = None
    ) -> tuple[list, dict[NodeCoord, float], dict[NodeCoord, float]]:
        """Spawn the per-node reduce processes (for embedding in a
        larger simulation, e.g. the MD thermostat phase).

        Returns ``(processes, done_times, final)``; ``final`` fills in
        as nodes complete.  The caller waits on the processes before
        starting the next run, which counts on the same counters.
        """
        torus = self.torus
        if values is None:
            values = {c: float(torus.rank(c)) for c in torus.nodes()}
        missing = [c for c in torus.nodes() if c not in values]
        if missing:
            raise ValueError(f"missing contributions for nodes {missing[:3]}...")
        self._runs += 1
        done_times: dict[NodeCoord, float] = {}
        final: dict[NodeCoord, float] = {}
        procs = [
            self.sim.process(
                self._node_process(coord, values[coord], done_times, final),
                name=f"allreduce@{coord}",
            )
            for coord in torus.nodes()
        ]
        return procs, done_times, final

    def run(self, values: Optional[dict[NodeCoord, float]] = None) -> AllReduceResult:
        """Execute one all-reduce over per-node scalar contributions.

        ``values`` maps node coordinate to its contribution (default:
        every node contributes its rank, which makes the expected sum
        easy to verify).  Returns the result with timing.
        """
        start = self.sim.now
        fl = self.machine.network.flight
        phase = f"allreduce[{self.payload_bytes}B]#{self._runs + 1}"
        if fl.enabled:
            fl.phase_begin(phase, start)
        from repro.profile.profiler import active_profiler

        prof = active_profiler()
        if prof is not None:
            prof.phase_begin("allreduce")
        try:
            procs, done_times, final = self.start(values)
            self.sim.run(until=self.sim.all_of(procs))
        finally:
            if prof is not None:
                prof.phase_end("allreduce")
        elapsed = max(done_times.values()) - start
        if fl.enabled:
            fl.phase_end(phase, max(done_times.values()))
        results = set(final.values())
        if len(results) != 1:
            raise AssertionError(f"all-reduce diverged: {sorted(results)[:4]}")
        reg = active_registry()
        if reg is not None:
            reg.counter("comm.allreduce.runs").inc()
            reg.histogram("comm.allreduce.elapsed_ns").observe(elapsed)
        return AllReduceResult(
            value=final[next(iter(final))],
            elapsed_ns=elapsed,
            per_node_done_ns=done_times,
        )

    def _node_process(
        self,
        coord: NodeCoord,
        value: float,
        done_times: dict[NodeCoord, float],
        final: dict[NodeCoord, float],
    ) -> Generator[Event, Any, None]:
        node = self.machine.node(coord)
        torus = self.torus
        words = max(0, self.payload_bytes // 4)
        v = value
        for round_idx, dim in enumerate(self.active_dims):
            k = self._round_slice[dim]
            slice_k = node.slices[k]
            n = torus.shape[_AXIS[dim]]
            my_slot = coord[_AXIS[dim]]
            rid = self._round_ids[dim]
            # Multicast this node's partial to slice k of all axis peers.
            yield from slice_k.send_write(
                coord,
                slice_k.name,
                counter_id=rid,
                address=(rid, my_slot),
                payload=v,
                payload_bytes=self.payload_bytes,
                pattern_id=self._patterns[(coord, dim)],
            )
            # Poll for the other N-1 contributions.
            yield from slice_k.poll(rid, n - 1)
            slice_k.counter(rid).reset()
            buf = slice_k.memory.buffer(rid)
            contributions = [s for s in buf.slots if s is not None]
            if len(contributions) != n - 1:  # pragma: no cover - counted-write invariant
                raise AssertionError(
                    f"{coord} round {dim}: counter fired with "
                    f"{len(contributions)}/{n-1} slots written"
                )
            # Redundant software sum on the Tensilica core.
            sum_ns = REDUCE_SUM_NS_PER_WORD * max(1, words) * (n - 1)
            yield from slice_k.tensilica_work(sum_ns)
            v = v + sum_as_numpy(contributions)
            buf.clear()
            # Hand the partial to the next round's slice, locally.
            if round_idx + 1 < len(self.active_dims):
                nxt = node.slices[self._round_slice[self.active_dims[round_idx + 1]]]
                hid = self._hand_ids[round_idx]
                yield from slice_k.send_write(
                    coord,
                    nxt.name,
                    counter_id=hid,
                    address=None,
                    payload=v,
                    payload_bytes=self.payload_bytes,
                )
                yield from nxt.poll(hid, 1)
                nxt.counter(hid).reset()
        # Final: the last round's slice shares the global sum locally.
        if self.share_locally and self.active_dims:
            last_slice = node.slices[self._round_slice[self.active_dims[-1]]]
            others = [s for s in node.slices if s is not last_slice]
            waits = []
            for peer in others:
                yield from last_slice.send_write(
                    coord,
                    peer.name,
                    counter_id=self._share_id,
                    address=(self._share_id, 0),
                    payload=v,
                    payload_bytes=self.payload_bytes,
                )
            for peer in others:
                waits.append(
                    self.sim.process(
                        peer.poll(self._share_id, 1), name="share-poll"
                    )
                )
            yield self.sim.all_of(waits)
            for peer in others:
                peer.counter(self._share_id).reset()
        final[coord] = v
        done_times[coord] = self.sim.now


# ---------------------------------------------------------------------------
# Radix-2 butterfly all-reduce (comparison baseline)
# ---------------------------------------------------------------------------

class ButterflyAllReduce:
    """Radix-2 butterfly all-reduce on the same machine.

    Used only as a comparison point: the paper notes a butterfly needs
    3·log2(N) rounds and 3(N−1) sequential hops versus 3 rounds and
    3N/2 hops for the dimension-ordered algorithm.  Exchanges are
    unicast counted remote writes between partners at power-of-two
    distances.
    """

    def __init__(self, machine: Machine, payload_bytes: int = 32) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.payload_bytes = payload_bytes
        self.torus = machine.torus
        for n in self.torus.shape:
            if n > 1 and n & (n - 1):
                raise ValueError("butterfly requires power-of-two torus extents")
        self._stages: list[tuple[str, int]] = []
        for dim in DIMS:
            n = self.torus.shape[_AXIS[dim]]
            d = 1
            while d < n:
                self._stages.append((dim, d))
                d *= 2
        for coord in self.torus.nodes():
            self.machine.node(coord).slices[0].memory.allocate("bfly", len(self._stages))
        self._ctrs = [f"bfly-{stage}" for stage in range(len(self._stages))]
        self._runs = 0

    def run(self, values: Optional[dict[NodeCoord, float]] = None) -> AllReduceResult:
        torus = self.torus
        if values is None:
            values = {c: float(torus.rank(c)) for c in torus.nodes()}
        self._runs += 1
        start = self.sim.now
        fl = self.machine.network.flight
        phase = f"butterfly[{self.payload_bytes}B]#{self._runs}"
        if fl.enabled:
            fl.phase_begin(phase, start)
        from repro.profile.profiler import active_profiler

        prof = active_profiler()
        if prof is not None:
            prof.phase_begin("butterfly")
        try:
            done: dict[NodeCoord, float] = {}
            final: dict[NodeCoord, float] = {}
            procs = [
                self.sim.process(self._node_process(c, values[c], done, final))
                for c in torus.nodes()
            ]
            self.sim.run(until=self.sim.all_of(procs))
        finally:
            if prof is not None:
                prof.phase_end("butterfly")
        if fl.enabled:
            fl.phase_end(phase, max(done.values()))
        results = set(final.values())
        if len(results) != 1:
            raise AssertionError(f"butterfly all-reduce diverged: {sorted(results)[:4]}")
        elapsed = max(done.values()) - start
        reg = active_registry()
        if reg is not None:
            reg.counter("comm.butterfly.runs").inc()
            reg.histogram("comm.butterfly.elapsed_ns").observe(elapsed)
        return AllReduceResult(
            value=final[next(iter(final))],
            elapsed_ns=elapsed,
            per_node_done_ns=done,
        )

    def _node_process(self, coord, value, done, final):
        node = self.machine.node(coord)
        torus = self.torus
        s0 = node.slices[0]
        v = value
        words = max(1, self.payload_bytes // 4)
        for stage, (dim, dist) in enumerate(self._stages):
            axis = _AXIS[dim]
            n = torus.shape[axis]
            pos = coord[axis]
            partner_pos = pos ^ dist
            partner = {
                "x": (partner_pos, coord.y, coord.z),
                "y": (coord.x, partner_pos, coord.z),
                "z": (coord.x, coord.y, partner_pos),
            }[dim]
            ctr = self._ctrs[stage]
            yield from s0.send_write(
                partner,
                "slice0",
                counter_id=ctr,
                address=("bfly", stage),
                payload=v,
                payload_bytes=self.payload_bytes,
            )
            yield from s0.poll(ctr, 1)
            s0.counter(ctr).reset()
            other = s0.memory.read(("bfly", stage))
            yield from s0.tensilica_work(REDUCE_SUM_NS_PER_WORD * words)
            v = v + float(other)
        final[coord] = v
        done[coord] = self.sim.now


def barrier(machine: Machine) -> float:
    """Global barrier as a 0-byte reduction; returns its latency in ns.

    The paper notes a fast barrier can be built this way, although
    Anton's MD code avoids global barriers entirely by other
    synchronization (Table 2 caption).
    """
    ar = AllReduce(machine, payload_bytes=0, share_locally=False)
    return ar.run().elapsed_ns
