"""Degradation studies: what fault injection does to Anton's numbers.

Two experiment workloads (registered as ``fault_sensitivity`` and
``link_degradation`` in :mod:`repro.runner.experiments`) plus the
crossover analysis the ISSUE asks for: the paper's whole argument is
that Anton wins on *latency per message*, so the interesting question
under faults is at what bit-error rate the retry-laden torus stops
beating the DDR2 InfiniBand cluster baseline of
:mod:`repro.baselines.cluster`.

Both workloads run the ``congestion`` experiment's all-to-one incast
of counted writes (:func:`~repro.runner.experiments.run_incast`; the
heaviest traffic the small torus produces, so every link class carries
packets and even modest BERs yield retransmissions), once per
experiment spec, under a plan built from the spec's extras — which
keeps the experiments pure functions of their spec: cacheable,
sweepable, and byte-reproducible through the PR-4 runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.faults.plan import BitError, Degradation, FaultPlan, LinkDown
from repro.faults.session import FaultSession, use_faults
from repro.runner.experiments import INCAST_PAYLOAD, run_incast
from repro.runner.result import Measurement, Outcome
from repro.runner.spec import ExperimentSpec

def _fault_measurements(session: FaultSession) -> Tuple[Measurement, ...]:
    """The ``faults.*`` counters as sweepable result rows."""
    st = session.stats
    return (
        Measurement("faults_retransmissions", st.retransmissions,
                    units="count"),
        Measurement("faults_packets_lost", st.packets_lost, units="count"),
        Measurement("faults_retry_exhausted", st.retry_exhausted,
                    units="count"),
        Measurement("faults_max_retries_seen", st.max_retries_seen,
                    units="count"),
    )


def run_fault_sensitivity(spec: ExperimentSpec) -> Outcome:
    """``fault_sensitivity``: incast latency vs uniform bit-error rate.

    Extras: ``ber`` (default 0.0 — a fault-free control point),
    ``max_retries``, ``on_exhaust``.  Sweep ``--grid ber=...`` for the
    latency-vs-BER curve.
    """
    ber = float(spec.extra("ber", 0.0))
    backoff_max = spec.extra("backoff_max_ns", None)
    plan = FaultPlan(
        seed=spec.seed,
        max_retries=int(spec.extra("max_retries", 8)),
        backoff_max_ns=None if backoff_max is None else float(backoff_max),
        on_exhaust=str(spec.extra("on_exhaust", "error")),
        bit_errors=(BitError(links="*", ber=ber),) if ber > 0.0 else (),
    )
    with use_faults(FaultSession(plan)) as session:
        elapsed, n, _ = run_incast(spec)
    st = session.stats
    return Outcome(
        description=(
            f"{n}-to-1 incast on {spec.shape} at ber={ber:g}: "
            f"{elapsed:.0f} ns, {st.retransmissions} retransmission(s), "
            f"{st.packets_lost} lost"
        ),
        elapsed_ns=elapsed,
        measurements=(
            Measurement("incast_latency_ns", elapsed),
            *_fault_measurements(session),
        ),
    )


def run_link_degradation(spec: ExperimentSpec) -> Outcome:
    """``link_degradation``: incast latency with a degraded link class.

    Extras: ``links`` (selector, default ``"z+"`` — with dimension-
    ordered routing the z links *into* the sink are the incast
    bottleneck, so degrading them moves the end-to-end number; an
    upstream class like ``"x+"`` is hidden behind the sink-link queue
    backlog), ``mode`` (``degrade`` | ``down``), ``factor``
    (bandwidth+latency multiplier for ``degrade``, default 4.0),
    ``window_ns`` (fault window length; 0 means the whole run for
    ``degrade`` and 2000 ns for ``down`` — a permanent outage would
    block the incast forever).
    """
    links = str(spec.extra("links", "z+"))
    mode = str(spec.extra("mode", "degrade"))
    factor = float(spec.extra("factor", 4.0))
    window = float(spec.extra("window_ns", 0.0))
    if mode == "degrade":
        end = window if window > 0.0 else math.inf
        plan = FaultPlan(seed=spec.seed, degradations=(
            Degradation(links=links, start_ns=0.0, end_ns=end,
                        bandwidth_factor=factor, latency_factor=factor),
        ))
    elif mode == "down":
        end = window if window > 0.0 else 2000.0
        plan = FaultPlan(seed=spec.seed, link_downs=(
            LinkDown(links=links, start_ns=0.0, end_ns=end),
        ))
    else:
        raise ValueError(f"unknown degradation mode {mode!r} (degrade|down)")
    with use_faults(FaultSession(plan)) as session:
        elapsed, n, _ = run_incast(spec)
    st = session.stats
    blocked = st.link_down_blocks
    return Outcome(
        description=(
            f"{n}-to-1 incast on {spec.shape} with {links} {mode} "
            f"(factor {factor:g}, window {end:g} ns): {elapsed:.0f} ns"
        ),
        elapsed_ns=elapsed,
        measurements=(
            Measurement("incast_latency_ns", elapsed),
            Measurement("faults_link_down_blocks", blocked, units="count"),
            Measurement("faults_node_stall_blocks", st.node_stall_blocks,
                        units="count"),
        ),
    )


# ---------------------------------------------------------------------------
# Anton-vs-cluster crossover
# ---------------------------------------------------------------------------

def cluster_incast_ns(
    senders: int, rounds: int, payload_bytes: int = INCAST_PAYLOAD
) -> float:
    """The same all-to-one incast on the DDR2 InfiniBand cluster model
    (:mod:`repro.baselines.cluster`): the Fig. 7 baseline Anton is
    supposed to beat."""
    from repro.baselines.cluster import ClusterNetwork
    from repro.engine.simulator import Simulator

    sim = Simulator()
    net = ClusterNetwork(sim, senders + 1)

    def send_all(rank):
        for _ in range(rounds):
            yield from net.send(rank, 0, payload_bytes, tag="sink")

    for rank in range(1, senders + 1):
        sim.process(send_all(rank))
    done = net.recv(0, "sink", senders * rounds)
    sim.run(until=done)
    return sim.now


@dataclass
class CrossoverPoint:
    ber: float
    anton_ns: float
    retransmissions: int
    packets_lost: int


@dataclass
class CrossoverResult:
    """The latency-vs-BER curve against the fixed cluster baseline."""

    points: list[CrossoverPoint]
    cluster_ns: float
    #: First swept BER at which the fault-laden torus is no faster than
    #: the cluster baseline; ``None`` if Anton wins everywhere swept.
    crossover_ber: Optional[float]

    def render_text(self) -> str:
        from repro.analysis.report import render_table

        rows = [
            [f"{p.ber:g}", p.anton_ns, p.retransmissions,
             "SLOWER" if p.anton_ns >= self.cluster_ns else "faster"]
            for p in self.points
        ]
        verdict = (
            f"crossover at ber={self.crossover_ber:g}"
            if self.crossover_ber is not None
            else "Anton faster at every swept BER"
        )
        return render_table(
            f"Anton incast vs DDR2 IB cluster ({self.cluster_ns:.0f} ns) — "
            + verdict,
            ["ber", "anton ns", "retries", "vs cluster"],
            rows,
            float_format="{:.0f}",
        )


def crossover_vs_cluster(
    shape: Tuple[int, int, int] = (3, 3, 3),
    bers: Sequence[float] = (0.0, 1e-4, 3e-4, 1e-3),
    rounds: int = 2,
    payload_bytes: int = INCAST_PAYLOAD,
    seed: int = 0,
) -> CrossoverResult:
    """Sweep the incast across ``bers`` and find where Anton loses.

    The retry bound is raised and the backoff capped (truncated binary
    exponential, as real senders do) so even the ber=1e-3 regime —
    where a 256 B packet corrupts on ~90% of attempts and the mean
    traversal retries ~9 times — completes without exhaustion; the
    crossover against the DDR2 IB baseline lands inside this sweep.
    """
    points: list[CrossoverPoint] = []
    senders = shape[0] * shape[1] * shape[2] - 1
    base = ExperimentSpec(
        "fault_sensitivity", shape=shape, rounds=rounds,
        payload=payload_bytes, seed=seed,
    )
    for ber in bers:
        spec = base.with_extras(ber=ber, max_retries=64,
                                backoff_max_ns=640.0)
        out = run_fault_sensitivity(spec)
        st = {m.metric: m.value for m in out.measurements}
        points.append(CrossoverPoint(
            ber=ber,
            anton_ns=out.elapsed_ns,
            retransmissions=int(st["faults_retransmissions"]),
            packets_lost=int(st["faults_packets_lost"]),
        ))
    cluster = cluster_incast_ns(senders, rounds, payload_bytes)
    crossover = next(
        (p.ber for p in points if p.anton_ns >= cluster), None
    )
    return CrossoverResult(points=points, cluster_ns=cluster,
                           crossover_ber=crossover)
