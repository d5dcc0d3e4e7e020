"""Built-in experiments, registered once via :func:`register_experiment`.

Importing this module populates the registry that ``repro trace``,
``repro monitor``/``report``, ``repro sweep``, the figure pipelines,
and the tier-1 model pins all dispatch through (import it via
:func:`repro.runner.spec.ensure_registered`, not directly).  Every
runner lazy-imports the analysis/asic stack inside its body so the
registry itself stays import-cheap and cycle-free.

Conventions:

* A runner receives one :class:`~repro.runner.spec.ExperimentSpec` and
  returns an :class:`~repro.runner.result.Outcome` whose measurements
  are the sweepable scalars (they become ``repro-bench/1`` rows).
* ``spec.hops is None`` means "the experiment's own default sweep"
  (e.g. ``latency`` walks every hop like Fig. 5); an integer pins the
  run to one grid point so a sweep can parallelize across hops.
"""

from __future__ import annotations

from typing import Optional

from repro.runner.result import Measurement, Outcome
from repro.runner.spec import ExperimentSpec, register_experiment

#: The incast's default payload.  256 B puts ~2300 bits on the wire per
#: packet, so even ber=1e-4 corrupts ~20% of traversals — small fault
#: sweeps reliably observe retransmissions without waiting for rare
#: events.
INCAST_PAYLOAD = 256


@register_experiment(
    "latency",
    help="one-way counted-write latency (Fig. 5 point or full sweep)",
)
def _latency(spec: ExperimentSpec) -> Outcome:
    if spec.hops is None:
        # Full Fig. 5 sweep in one run — the trace pipeline's workload.
        from repro.analysis.latency import latency_vs_hops

        points = latency_vs_hops(shape=spec.shape, rounds=spec.rounds)
        measurements = []
        for p in points:
            measurements.extend(
                (
                    Measurement(f"uni_0B_{p.hops}hop_ns", p.uni_0b),
                    Measurement(f"uni_256B_{p.hops}hop_ns", p.uni_256b),
                )
            )
        return Outcome(
            description=(
                f"Fig. 5 ping-pong sweep, hops 0..{points[-1].hops}, "
                f"{spec.rounds} rounds per configuration"
            ),
            elapsed_ns=points[-1].uni_0b,
            measurements=tuple(measurements),
        )

    # One grid point: the single uncontended counted write of Fig. 6,
    # whose elapsed time the attribution reproduces exactly.
    from repro.analysis.attribution import measure_attribution

    m = measure_attribution(
        hops=spec.hops, shape=spec.shape, payload_bytes=spec.payload
    )
    return Outcome(
        description=(
            f"one-way counted write, {m.hops} hop(s) to {m.destination} "
            f"on {m.shape}, {m.payload_bytes} B payload "
            f"({m.elapsed_ns:.1f} ns)"
        ),
        elapsed_ns=m.elapsed_ns,
        measurements=(
            Measurement(f"one_way_{m.hops}hop_ns", m.elapsed_ns),
        ),
    )


@register_experiment(
    "fig5",
    help="all four Fig. 5 curves (uni/bi x 0B/256B) at one hop count",
)
def _fig5(spec: ExperimentSpec) -> Outcome:
    """One hop count, all four published curves.  Unlike ``latency``
    this pays for bidirectional ping-pong too, so the Fig. 5 pipeline
    sweeps it with one machine build per grid point."""
    from repro.analysis.latency import _destination_for_hops, ping_pong_ns
    from repro.asic.node import build_machine
    from repro.engine.simulator import Simulator

    hops = 1 if spec.hops is None else spec.hops
    dst = _destination_for_hops(spec.shape, hops)
    sim = Simulator()
    machine = build_machine(sim, *spec.shape)
    curves = {
        "uni_0B": ping_pong_ns(spec.shape, dst, 0, spec.rounds, False, machine),
        "uni_256B": ping_pong_ns(spec.shape, dst, 256, spec.rounds, False, machine),
        "bi_0B": ping_pong_ns(spec.shape, dst, 0, spec.rounds, True, machine),
        "bi_256B": ping_pong_ns(spec.shape, dst, 256, spec.rounds, True, machine),
    }
    return Outcome(
        description=(
            f"Fig. 5 curves at {hops} hop(s) to {dst} "
            f"(uni 0B {curves['uni_0B']:.1f} ns)"
        ),
        elapsed_ns=curves["uni_0B"],
        measurements=tuple(
            Measurement(f"{name}_{hops}hop_ns", value)
            for name, value in curves.items()
        ),
    )


@register_experiment(
    "allreduce",
    help="global all-reduce on one machine shape (Table 2 point)",
)
def _allreduce(spec: ExperimentSpec) -> Outcome:
    from repro.asic.node import build_machine
    from repro.comm.collectives import AllReduce, ButterflyAllReduce
    from repro.engine.simulator import Simulator

    algorithm = spec.extra("algorithm", "dimension_ordered")
    cls = {
        "dimension_ordered": AllReduce,
        "butterfly": ButterflyAllReduce,
    }.get(algorithm)
    if cls is None:
        raise ValueError(
            f"unknown all-reduce algorithm {algorithm!r} "
            "(dimension_ordered or butterfly)"
        )
    sim = Simulator()
    machine = build_machine(sim, *spec.shape)
    elapsed = cls(machine, payload_bytes=spec.payload).run().elapsed_ns
    return Outcome(
        description=(
            f"{algorithm.replace('_', '-')} all-reduce over "
            f"{spec.nodes} nodes, {spec.payload} B "
            f"({elapsed / 1e3:.2f} µs)"
        ),
        elapsed_ns=elapsed,
        measurements=(
            Measurement(f"{algorithm}_{spec.payload}B_ns", elapsed),
        ),
    )


@register_experiment(
    "transfer",
    help="2 KB message-granularity transfer (Fig. 7 point)",
)
def _transfer(spec: ExperimentSpec) -> Outcome:
    from repro.analysis.transfer import anton_transfer_ns

    total = spec.extra("total_bytes", 2048)
    messages = spec.extra("messages", 8)
    hops = 1 if spec.hops is None else max(1, spec.hops)
    ns = anton_transfer_ns(total, messages, hops=hops, shape=spec.shape)
    return Outcome(
        description=(
            f"{total} B transfer as {messages} messages over "
            f"{hops} X hop(s) ({ns:.0f} ns)"
        ),
        elapsed_ns=ns,
        measurements=(
            Measurement(f"split_{total}B_{messages}msg_ns", ns),
        ),
    )


@register_experiment(
    "congestion",
    help="many-to-one incast of counted writes (queueing stress)",
)
def _congestion(spec: ExperimentSpec) -> Outcome:
    """Many-to-one incast: the heaviest head-of-line queueing the
    torus produces, for exercising the queue-depth telemetry."""
    # Fan-in width rides along as a spec extra so the congest CLI can
    # widen the incast (e.g. the full 26-to-1 on a 3x3x3) without
    # perturbing the cached default-8 results.
    elapsed, senders, payload = run_incast(
        spec, senders=max(1, int(spec.extra("senders", 8)))
    )
    return Outcome(
        description=(
            f"{senders}-to-1 incast of {payload} B writes, "
            f"{spec.rounds} rounds per sender"
        ),
        elapsed_ns=elapsed,
        measurements=(
            Measurement(f"incast_{senders}x{payload}B_ns", elapsed),
        ),
    )


def run_incast(
    spec: ExperimentSpec,
    senders: Optional[int] = None,
) -> tuple[float, int, int]:
    """The all-to-one incast of counted writes behind ``congestion``,
    ``fault_sensitivity`` and ``link_degradation``.

    Slice 0 of the first ``senders`` nodes other than (0,0,0) (every
    other node by default) writes ``spec.rounds`` counted writes of
    ``spec.payload`` bytes (default :data:`INCAST_PAYLOAD`) into its own
    slot on slice 0 of (0,0,0), which polls for all of them.  A call
    inside ``use_faults`` builds a network that consults the session
    on every hop.  Returns ``(elapsed_ns, senders, payload_bytes)``.
    """
    from repro.asic.node import build_machine
    from repro.engine.simulator import Simulator

    payload = spec.payload or INCAST_PAYLOAD
    sim = Simulator()
    machine = build_machine(sim, *spec.shape)
    target = machine.torus.coord((0, 0, 0))
    dst = machine.node(target).slice(0)
    slices = [
        machine.node(c).slice(0)
        for c in machine.torus.nodes()
        if c != target
    ][:senders]
    dst.memory.allocate("sink", len(slices))

    def sender(s, slot):
        for _ in range(spec.rounds):
            yield from s.send_write(
                target, dst.name, counter_id="sink", address=("sink", slot),
                payload_bytes=payload,
            )

    def receiver():
        yield from dst.poll("sink", len(slices) * spec.rounds)

    start = sim.now
    procs = [sim.process(sender(s, i)) for i, s in enumerate(slices)]
    procs.append(sim.process(receiver()))
    sim.run(until=sim.all_of(procs))
    return sim.now - start, len(slices), payload


@register_experiment(
    "fault_sensitivity",
    help="incast latency under a uniform link bit-error rate (sweep ber=)",
)
def _fault_sensitivity(spec: ExperimentSpec) -> Outcome:
    from repro.faults.study import run_fault_sensitivity

    return run_fault_sensitivity(spec)


@register_experiment(
    "link_degradation",
    help="incast latency with a degraded or downed link class",
)
def _link_degradation(spec: ExperimentSpec) -> Outcome:
    from repro.faults.study import run_link_degradation

    return run_link_degradation(spec)


@register_experiment(
    "selftest",
    help="harness self-test point (behavior=ok|crash|hang|flaky|exit)",
    traceable=False,
    monitorable=False,
)
def _selftest(spec: ExperimentSpec) -> Outcome:
    """A non-simulating point for exercising the sweep harness itself:
    ``crash`` raises, ``hang`` sleeps wall-clock (to be killed by
    ``--timeout``), ``flaky`` fails until a marker file exists (so
    ``--retries`` can be shown recovering a transient failure), ``exit``
    ends its process at once with code 3, as an OOM kill or a segfault
    would (so only a multi-process sweep survives it)."""
    import os
    import time

    behavior = str(spec.extra("behavior", "ok"))
    if behavior == "ok":
        pass
    elif behavior == "crash":
        raise RuntimeError("selftest: deliberate crash")
    elif behavior == "hang":
        time.sleep(float(spec.extra("sleep_s", 60.0)))
    elif behavior == "flaky":
        marker = str(spec.extra("marker", ""))
        if not marker:
            raise ValueError("selftest: behavior=flaky needs a marker path")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("attempted\n")
            raise RuntimeError("selftest: deliberate first-attempt failure")
    elif behavior == "exit":
        os._exit(3)
    else:
        raise ValueError(f"selftest: unknown behavior {behavior!r}")
    return Outcome(
        description=f"selftest behavior={behavior}",
        elapsed_ns=1.0,
        measurements=(Measurement("selftest_ns", 1.0),),
    )


@register_experiment(
    "table3_critical_path",
    help="Table 3 per-phase critical-path accounting (DHFR MD step pair)",
    traceable=False,  # per-packet flight record would dwarf the run
)
def _table3_critical_path(spec: ExperimentSpec) -> Outcome:
    """The paper's Table 3: simulate one range-limited + long-range
    step pair and split every phase's critical path into communication
    and computation microseconds.  Also the profiling walkthrough's
    reference workload — its per-phase simulated accounting is exactly
    what the engine self-profiler mirrors in host wall time."""
    from repro.analysis.mdstep import build_dhfr_md, run_step_pair, run_table3
    from repro.constants import DHFR_ATOMS

    atoms = int(spec.extra("atoms", 0)) or max(
        512, DHFR_ATOMS * spec.nodes // 512
    )
    md = build_dhfr_md(spec.shape, atoms=atoms, seed=spec.seed)
    rows = run_table3(run_step_pair(md))
    measurements = []
    for name, row in sorted(rows.items()):
        measurements.append(
            Measurement(f"{name}_comm_us", row.communication_us, units="us")
        )
        measurements.append(
            Measurement(f"{name}_total_us", row.total_us, units="us")
        )
    average = rows["average"]
    return Outcome(
        description=(
            f"Table 3 critical path, {atoms} atoms on {spec.nodes} nodes "
            f"(average step {average.total_us:.2f} µs, "
            f"communication {average.communication_us:.2f} µs)"
        ),
        elapsed_ns=average.total_us * 1e3,
        measurements=tuple(measurements),
    )


@register_experiment(
    "mdstep",
    help="Fig. 13 MD step pair (range-limited + long-range)",
    traceable=False,  # per-packet flight record would dwarf the run
)
def _mdstep(spec: ExperimentSpec) -> Outcome:
    """Fig. 13's workload: ``rounds``/2 range-limited + long-range step
    pairs, atom count scaled with machine size from the paper's DHFR
    benchmark (23,558 atoms on 512 nodes)."""
    from repro.analysis.mdstep import build_dhfr_md
    from repro.constants import DHFR_ATOMS

    atoms = max(512, DHFR_ATOMS * spec.nodes // 512)
    md = build_dhfr_md(spec.shape, atoms=atoms)
    rl_ns = lr_ns = 0.0
    for _ in range(max(1, spec.rounds // 2)):
        rl_ns = md.run_step("range_limited").total_ns
        lr_ns = md.run_step("long_range").total_ns
    return Outcome(
        description=(
            f"Fig. 13 step pair, {atoms} atoms on {spec.nodes} nodes "
            f"(range-limited {rl_ns / 1e3:.2f} µs, "
            f"long-range {lr_ns / 1e3:.2f} µs)"
        ),
        elapsed_ns=rl_ns + lr_ns,
        measurements=(
            Measurement("range_limited_step_ns", rl_ns),
            Measurement("long_range_step_ns", lr_ns),
        ),
    )
