"""The four closed-loop workloads of the host-time benchmark.

Each workload drives one slice of the reproduction through its public
calls only, so the benchmark measures what a user of the package waits
for:

* ``mdstep`` — Fig. 13's range-limited + long-range step pair on a
  DHFR-scaled system (multicast transit, MD numerics);
* ``allreduce`` — Table 2's dimension-ordered all-reduce at 32 B on an
  8×8×8 machine (comm and ASIC layers, barrier storms, no MD);
* ``incast`` — the registered ``congestion`` experiment, 26 senders to
  one node (the contended unicast hop and the runner layer);
* ``xray`` — the same incast with the flight and congestion captures
  on, plus the backpressure tree and per-packet delay decomposition.

A workload's life is ``setup()`` once, then per op ``prepare(i)``
(untimed: inputs and counter snapshots), ``op(i)`` (timed), and
``verify(i, raw)`` (untimed).  ``verify`` returns the op's simulated
*facts* — deliveries, link traversals, simulated nanoseconds, … — and
any broken invariant.  Facts are per op, so they repeat exactly from op
to op and from run to run; ``expected.json`` pins them for seed 0.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Iterator


def conservation(net) -> list[str]:
    """Broken packet-conservation invariants of a quiescent network."""
    problems = []
    if net.packets_injected != net.packets_completed:
        problems.append(
            f"{net.packets_injected} packets injected but "
            f"{net.packets_completed} completed"
        )
    if net.packets_delivered != net.deliveries_expected:
        problems.append(
            f"{net.packets_delivered} deliveries but "
            f"{net.deliveries_expected} expected by routing"
        )
    if net.packets_lost:
        problems.append(f"{net.packets_lost} packets lost")
    return problems


def peak_queue(net) -> int:
    """Deepest head-of-line queue any link direction has seen."""
    return max((link.peak_queue_length for link in net.links()), default=0)


def check_pins(facts: dict, pins: dict) -> list[str]:
    """Facts that miss their pin.  Floats (simulated ns) match to
    1e-3 ns: repeated steps differ in the 12th significant digit."""
    problems = []
    for key, pin in pins.items():
        got = facts.get(key)
        if isinstance(pin, float):
            ok = isinstance(got, (int, float)) and math.isclose(
                got, pin, rel_tol=0.0, abs_tol=1e-3
            )
        else:
            ok = got == pin
        if not ok:
            problems.append(f"{key} = {got!r}, pinned {pin!r}")
    return problems


@contextmanager
def machines_built() -> Iterator[list]:
    """Collect every machine ``build_machine`` returns inside the block.

    Registered experiments build their machine internally and import
    ``build_machine`` from its module at call time, so wrapping the
    module attribute is enough to reach the network counters."""
    import repro.asic.node as node_mod

    built: list = []
    inner = node_mod.build_machine

    def build_machine(*args: Any, **kwargs: Any):
        machine = inner(*args, **kwargs)
        built.append(machine)
        return machine

    node_mod.build_machine = build_machine
    try:
        yield built
    finally:
        node_mod.build_machine = inner


class Workload:
    """Base class: one long-lived machine whose counters ``prepare``
    snapshots so ``verify`` can report per-op deltas."""

    name = ""
    #: A bare run spreads its ops over this many measured children: the
    #: same op runs a few percent faster in one process than in the
    #: next, beyond what the yardstick sees, so no one process decides.
    children = 1
    #: Ops per measured child, sized so a bare run times 10-12 s of
    #: ops on a quiet 2-vCPU 2.0 GHz Xeon (twice that when other tenants
    #: load it).  Fixed, not time-budgeted: ``allreduce`` and ``mdstep``
    #: slow down op by op, so a budget would let a faster build reach
    #: later, slower ops and hide part of its gain.
    ops = 0
    #: Ops of a traced run (one child; a multiple of four for ABBA).
    trace_ops = 4
    #: Whether the seed changes the simulated inputs.  Pins of a
    #: workload the seed does not touch hold for every seed.
    uses_seed = True
    #: Host seconds of the last op's public calls, for workloads whose
    #: op makes several (``xray``).
    parts_s = None

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.net = None
        self._mark = (0, 0)

    def setup(self) -> None:
        raise NotImplementedError

    def sims(self) -> list:
        """Simulators built at set-up that ops keep running (a profiler
        must be attached to them by hand; the ambient session only
        reaches simulators built inside the block)."""
        return []

    def prepare(self, i: int) -> None:
        self._mark = (self.net.packets_delivered, self.net.link_traversals)

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def verify(self, i: int, raw: Any) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def _net_facts(self) -> dict:
        delivered, hops = self._mark
        return {
            "deliveries": self.net.packets_delivered - delivered,
            "hops": self.net.link_traversals - hops,
            "peak_queue": peak_queue(self.net),
        }


class MdStep(Workload):
    """One op = one range-limited + long-range step pair on one
    ``AntonMD``; the seed sets the atom positions."""

    name = "mdstep"
    children = 2
    ops = 1  # 5.7 s for the first pair, 6.3 s for the fourth

    def setup(self) -> None:
        from repro.analysis import mdstep
        from repro.constants import DHFR_ATOMS

        shape = (2, 2, 2) if self.quick else (4, 4, 4)
        # DHFR's atoms per node (23,558 on 512), as the mdstep experiment.
        atoms = max(512, DHFR_ATOMS * math.prod(shape) // 512)
        self.md = mdstep.build_dhfr_md(shape, atoms=atoms, seed=self.seed)
        self.net = self.md.machine.network

    def sims(self) -> list:
        return [self.md.sim]

    def op(self, i: int) -> Any:
        return (
            self.md.run_step("range_limited"),
            self.md.run_step("long_range"),
        )

    def verify(self, i: int, raw: Any) -> tuple[dict, list[str]]:
        rl, lr = raw
        facts = self._net_facts()
        facts.update(
            range_limited_ns=rl.total_ns,
            long_range_ns=lr.total_ns,
            range_limited_deliveries=rl.packets_delivered,
            long_range_deliveries=lr.packets_delivered,
        )
        return facts, conservation(self.net)


class AllReduceWorkload(Workload):
    """One op = one 32 B ``AllReduce.run`` on one machine.  Op ``i``
    reduces the seeded integer contributions plus ``i``, so every op
    reduces fresh data with an exactly known sum."""

    name = "allreduce"
    children = 3
    ops = 9  # 0.27 s for the first op, 0.45 s for the 60th
    trace_ops = 24

    def setup(self) -> None:
        from repro.asic.node import build_machine
        from repro.comm.collectives import AllReduce
        from repro.engine.simulator import Simulator

        self.shape = (2, 2, 2) if self.quick else (8, 8, 8)
        self.sim = Simulator()
        self.machine = build_machine(self.sim, *self.shape)
        self.net = self.machine.network
        self.allreduce = AllReduce(self.machine, payload_bytes=32)
        rng = random.Random(self.seed)
        self.base = {c: rng.randrange(1000) for c in self.machine.torus.nodes()}

    def sims(self) -> list:
        return [self.sim]

    def prepare(self, i: int) -> None:
        super().prepare(i)
        self.values = {c: float(v + i) for c, v in self.base.items()}

    def op(self, i: int) -> Any:
        return self.allreduce.run(self.values)

    def verify(self, i: int, raw: Any) -> tuple[dict, list[str]]:
        from repro.constants import PAPER_TABLE2_US

        facts = self._net_facts()
        expected = sum(self.values.values())
        facts.update(
            elapsed_ns=raw.elapsed_ns,
            sum=raw.value - i * len(self.values),
        )
        paper = PAPER_TABLE2_US.get(self.shape)
        if paper is not None:
            paper_ns = paper["reduce32"] * 1e3
            facts["model_err_pct"] = (
                abs(raw.elapsed_ns - paper_ns) / paper_ns * 100
            )
        problems = conservation(self.net)
        if raw.value != expected:
            problems.append(f"all-reduce sum {raw.value!r} != {expected!r}")
        return facts, problems


class Incast(Workload):
    """One op = one ``run_experiment`` of the registered ``congestion``
    experiment: 26 senders × 100 rounds of 256 B writes into one node
    of a 3×3×3 machine.  Deterministic, so the seed changes nothing."""

    name = "incast"
    children = 2
    ops = 75  # about 70 ms each
    trace_ops = 160
    uses_seed = False

    def setup(self) -> None:
        from repro.runner import result as runner
        from repro.runner.spec import ExperimentSpec, ensure_registered

        ensure_registered()
        self.runner = runner
        if self.quick:
            spec = ExperimentSpec(
                "congestion", shape=(2, 2, 2), rounds=10, payload=256
            ).with_extras(senders=7)
        else:
            spec = ExperimentSpec(
                "congestion", shape=(3, 3, 3), rounds=100, payload=256
            ).with_extras(senders=26)
        self.spec = spec

    def prepare(self, i: int) -> None:
        self._mark = (0, 0)  # every op builds a fresh machine

    def _run(self, captures=None):
        with machines_built() as built:
            result = self.runner.run_experiment(self.spec, captures)
        (self.machine,) = built
        self.net = self.machine.network
        return result

    def op(self, i: int) -> Any:
        return self._run()

    def verify(self, i: int, raw: Any) -> tuple[dict, list[str]]:
        facts = self._net_facts()
        facts["elapsed_ns"] = raw.elapsed_ns
        return facts, conservation(self.net)


class Xray(Incast):
    """One op = the incast captured with ``Captures(flight=True,
    congestion=True)``, then ``build_congestion_tree`` and
    ``decompose_run`` over the flight record.  The op times its three
    public calls so the trace run can price the capture and analysis."""

    name = "xray"
    ops = 19  # about 260 ms each
    trace_ops = 48

    def setup(self) -> None:
        super().setup()
        from repro.congestion import decompose, tree
        from repro.runner.result import Captures

        self.captures = Captures(flight=True, congestion=True)
        self.tree_mod = tree
        self.decompose_mod = decompose

    def reference_s(self) -> float:
        """Host seconds of one bare (uncaptured) incast run: the base
        of ``trace.capture_x``."""
        t0 = perf_counter_ns()
        self._run()
        return (perf_counter_ns() - t0) / 1e9

    def op(self, i: int) -> Any:
        t0 = perf_counter_ns()
        result = self._run(self.captures)
        t1 = perf_counter_ns()
        congestion_tree = self.tree_mod.build_congestion_tree(
            result.flight, self.machine.torus
        )
        t2 = perf_counter_ns()
        decomps = self.decompose_mod.decompose_run(
            result.flight, self.machine.torus
        )
        t3 = perf_counter_ns()
        self.parts_s = {
            "capture": (t1 - t0) / 1e9,
            "tree": (t2 - t1) / 1e9,
            "decompose": (t3 - t2) / 1e9,
        }
        return result, congestion_tree, decomps

    def verify(self, i: int, raw: Any) -> tuple[dict, list[str]]:
        result, congestion_tree, decomps = raw
        facts, problems = super().verify(i, result)
        for d in decomps:
            try:
                d.check()
            except AssertionError as exc:
                problems.append(str(exc))
        worst = congestion_tree.worst
        facts.update(
            decompositions=len(decomps),
            hops_recorded=sum(len(f.hops) for f in result.flight.packets()),
            worst_link=worst.link if worst else None,
            worst_direction=worst.direction if worst else None,
        )
        return facts, problems


WORKLOADS = {
    cls.name: cls for cls in (MdStep, AllReduceWorkload, Incast, Xray)
}


def make(name: str, seed: int, quick: bool) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return cls(seed, quick)
