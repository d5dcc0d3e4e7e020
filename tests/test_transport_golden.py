"""Golden digests of the network transport's observable bytes.

Each case runs a fixed spec (or a direct :class:`~repro.network.network.Network`
exchange) and pins the sha256 of its canonical JSON.  The cases cover
every path a transport change can disturb: the uncontended unicast hop
(``latency``, ``fig5``), the contended unicast hop (the 26-to-1
incast), multicast transit under contention (``mdstep``), all-reduce
trees (``allreduce``), the link-level retry path (``fault_sensitivity``
at a BER above zero), the flight and congestion probes' view of the
incast and the congestion view of ``mdstep`` (arrivals that land
exactly as their link frees included), reordering jitter mixed with in-order packets, and link-down,
node-stall and bit-error faults on both transits.  The ``monitor_*``
cases pin every health monitor's full sampler series except the
engine's own; the ``monitor_*_engine`` cases pin those
(``engine.events_executed`` and ``engine.pending_events``).  Samples
fall on the monitor's grid, between instants, so a model series moves
only with the model; an engine series counts events, so a change that
runs fewer events moves it without moving a model byte.  The ``*_analysis`` cases pin
what the X-ray computes from a flight record: the congestion tree, the
per-packet delay decomposition, the JSONL export and (on ``mdstep``)
critical-path attributions through multicast branches.  The
``flight_metrics`` case pins the ``net.*`` metrics a flight capture
publishes, exact and (past the histogram cap) sketched.  The
``links_*`` cases pin the order in which link directions are created,
which is the order of ``Network.links()`` that the monitor and the
congestion bytes iterate.

A digest change means result bytes changed.  Update the digest only
together with the model change that explains it.  Print the current
values with ``PYTHONPATH=src python tests/test_transport_golden.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.results import canonical_json
from repro.runner import Captures, ExperimentSpec, run_experiment


def _sha(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


#: name -> spec whose canonical ``RunResult.to_dict()`` is pinned.
SPECS = {
    "latency": ExperimentSpec("latency", shape=(4, 4, 4), rounds=2),
    "fig5": ExperimentSpec("fig5", shape=(4, 4, 4), rounds=2, hops=3),
    "congestion": ExperimentSpec(
        "congestion", shape=(3, 3, 3), rounds=2
    ).with_extras(senders=26),
    "mdstep": ExperimentSpec("mdstep", shape=(2, 2, 2), rounds=2),
    "allreduce": ExperimentSpec("allreduce", shape=(4, 4, 4), payload=32),
    "fault_sensitivity": ExperimentSpec(
        "fault_sensitivity", shape=(3, 3, 3), rounds=2
    ).with_extras(ber=0.0003, max_retries=64),
}

DIGESTS = {
    "latency":
        "c1dc20a8533ed57824fcfd68e21f51c0dd29075fb9b8a712a7569b2fb720d8ad",
    "fig5":
        "eef8085dea2622bd34caaa5dd50febf72140b83475e82c6e8a3f280cee101e5d",
    "congestion":
        "3b43e5b2b772458f7fffdf61f23bca4c5af5c549576db7052dc4746ddf3d1297",
    "mdstep":
        "739af852c59da63db2f67cf17253a2199b38edbc2aa8663c354a3be45b38e726",
    "allreduce":
        "6229bfd3fac90e8d877adede2bde2116ae24896ea36c1fd03fb109cb7f300e26",
    "fault_sensitivity":
        "243058bbfe41dfc372df2b6fed7855426a803565019b5cddc7f110f8ddf041de",
    "incast_probes":
        "a23519a8392bee81833975858269ffa5b111d3fcdca83a243c00244bbd10a78f",
    "mdstep_probes":
        "71de6b46cc450f879cbae7953dbc3297c5f3ba1b095767a60d835bd34084cac5",
    "links_mdstep":
        "ecf22fd8fa239d1c9ff1df13e404134960cbc60740368f2a1106332e9d2ed64f",
    "links_fault_sensitivity":
        "7a7c3a193a603e587af8cd8ab809bcc168ec7b43a04438d0995e86aaa235f496",
    # A hop draws its jitter when it books its link.
    "jitter_exchange":
        "dfcc9cd270451cc1e88f4d8b917bc0173d72383214c4c50feaac1277e1086abe",
    "fault_exchange":
        "248b235127a56a73daf3e80124b4c47258aa452db995946bc2b31d28a3bd097f",
    "monitor_congestion":
        "5c3a09b583710bab516b44d12079cda8b55414943e9dc169d82660e74ec607c8",
    "monitor_congestion_engine":
        "84d39d9eeb86dc2df20eccba8f3858526549fc731e1c426ffaa5f493bba909ae",
    "monitor_mdstep":
        "10fa647f721c2c3203d8a84224d70536690054a2a10cca834c5fb725393031c4",
    "monitor_mdstep_engine":
        "74bc0dd2839040e59eed68c6f90572866efb4be2082214631657ffd6190f13e9",
    "monitor_allreduce":
        "11ef2729691cda50e7d99e36eeb5eb2a23f1ef6580db810c5cf9a02674b83101",
    "monitor_allreduce_engine":
        "1ce7da1d84396aaee7e7e1d43778f7846c55683ad7e9beb3a5ce38f331013295",
    "xray_analysis":
        "8bd759ddac5c86e8a029d167d8d2c6a737a2e81937fa23160a9ae2e9473b9371",
    "mdstep_analysis":
        "9e852d3ce4b6d6b13c353d93590f0e0cdae9452db48b1184a195b8641fd41935",
    "flight_metrics":
        "140b31ff92a5a49c1438828e42bc1ea19e07c46720dbbb1cce856bdbc3793726",
}

#: name -> spec whose networks' link creation order is pinned.
LINK_ORDER = {
    "links_mdstep": "mdstep",
    "links_fault_sensitivity": "fault_sensitivity",
}

#: name -> (experiment, shape) run under continuous monitoring.
MONITORED = {
    "monitor_congestion": ("congestion", (3, 3, 3)),
    "monitor_mdstep": ("mdstep", (2, 2, 2)),
    "monitor_allreduce": ("allreduce", (4, 4, 4)),
}


def result_digest(name: str) -> str:
    return _sha(run_experiment(SPECS[name]).to_dict())


def link_order_digest(name: str) -> str:
    """Every link direction of every network the run builds, in
    ``Network.links()`` order (the order of first use)."""
    from repro.network.network import Network

    networks = []
    init = Network.__init__

    def recording_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        networks.append(self)

    Network.__init__ = recording_init
    try:
        run_experiment(SPECS[LINK_ORDER[name]])
    finally:
        Network.__init__ = init
    return _sha([
        [[list(lid.node), lid.dim, lid.sign]
         for lid in (link.link_id for link in net.links())]
        for net in networks
    ])


def incast_probes_digest() -> str:
    """The incast's exported flight trace plus the congestion view's
    per-link statistics, both read from one flight capture."""
    from repro.trace.export import dumps_chrome_trace

    result = run_experiment(SPECS["congestion"], Captures(flight=True))
    cg = result.congestion
    congestion = {
        "wait_ns": cg.wait_ns,
        "waits": cg.waits,
        "grants": cg.grants,
        "peak_depth": cg.peak_depth,
        "occupied_ns": cg.occupied_ns,
        "directions": cg.directions,
        "depth": {k: s.samples() for k, s in cg.depth_series.items()},
        "occupancy": {
            k: s.samples() for k, s in cg.occupancy_series.items()
        },
    }
    return _sha({
        "trace": dumps_chrome_trace(result.flight),
        "congestion": congestion,
        "result": result.to_dict(),
    })


def mdstep_probes_digest() -> str:
    """The congestion view's per-link statistics on ``mdstep`` 2×2×2:
    multicast transit under contention, where hops also arrive at the
    very instant their link frees (granted at once, never a
    zero-length wait)."""
    result = run_experiment(SPECS["mdstep"], Captures(congestion=True))
    cg = result.congestion
    return _sha({
        "wait_ns": cg.wait_ns,
        "waits": cg.waits,
        "grants": cg.grants,
        "peak_depth": cg.peak_depth,
        "occupied_ns": cg.occupied_ns,
        "directions": cg.directions,
        "depth": {k: s.samples() for k, s in cg.depth_series.items()},
        "occupancy": {
            k: s.samples() for k, s in cg.occupancy_series.items()
        },
    })


def analysis_digest(name: str) -> str:
    """The X-ray's analyses of one flight capture: the congestion tree,
    every packet's delay decomposition (per hop and per bucket), the
    run-level bucket totals and the JSONL export.  ``mdstep`` adds
    multicast branches and the critical-path attribution of each of
    eight windows of the run."""
    from repro.analysis.attribution import Component
    from repro.analysis.critical_path import phase_reports
    from repro.congestion.decompose import (
        BUCKET_ORDER,
        aggregate_totals,
        decompose_run,
    )
    from repro.congestion.tree import build_congestion_tree
    from repro.topology.torus import Torus3D
    from repro.trace.export import jsonl_lines

    spec = SPECS["congestion" if name == "xray_analysis" else "mdstep"]
    result = run_experiment(spec, Captures(flight=True))
    fl = result.flight
    torus = Torus3D(*spec.shape)
    decomps = decompose_run(fl, torus)
    totals = aggregate_totals(decomps)
    doc = {
        "tree": build_congestion_tree(fl, torus).to_doc(),
        "packets": [
            {
                "totals": [d.totals[b] for b in BUCKET_ORDER],
                "hops": [
                    [h.link, h.direction, h.start_ns, h.end_ns,
                     h.hol_wait_ns, h.serialization_ns, h.wire_ns,
                     h.retry_ns, h.through_node_ns, h.endpoint_ns,
                     h.unattributed_ns]
                    for h in d.hops
                ],
            }
            for d in decomps
        ],
        "aggregate": [totals[b] for b in BUCKET_ORDER],
        "jsonl": list(jsonl_lines(fl)),
    }
    if name == "mdstep_analysis":
        # mdstep marks no flight phases: cut the run into eight windows
        # so each gets a critical packet, multicast branches included.
        end = max(f.delivered_ns for f in fl.delivered_flights())
        for i in range(8):
            fl.phase_begin(f"w{i}", end * i / 8)
            fl.phase_end(f"w{i}", end * (i + 1) / 8)
        doc["phases"] = [
            [r.name, r.packets, r.deliveries, r.queue_wait_ns,
             r.critical_local_id]
            + ([] if r.critical_attribution is None else [
                # A poll's counter id counts collectives process-wide,
                # so its label is left out.
                [s.component.value, s.start_ns, s.end_ns,
                 None if s.component is Component.RECEIVE else s.detail]
                for s in r.critical_attribution.segments
            ])
            for r in phase_reports(fl, torus)
        ]
    return _sha(doc)


class _Sink:
    """A bare network client that logs what it receives."""

    def __init__(self, sim, node, name, log) -> None:
        self.sim = sim
        self.node = node
        self.name = name
        self.log = log

    def receive(self, packet) -> None:
        self.log.append(
            [self.sim.now, list(self.node), self.name, packet.payload]
        )


def exchange_digest(**network_kwargs) -> str:
    """A direct Network exchange: contended unicast and multicast
    bursts, half of them flagged in-order."""
    from repro.engine import Simulator
    from repro.network.multicast import compile_pattern
    from repro.network.network import Network
    from repro.network.packet import Packet
    from repro.topology.torus import Torus3D

    sim = Simulator()
    torus = Torus3D(4, 2, 2)
    net = Network(sim, torus, **network_kwargs)
    log: list = []
    for node in torus.nodes():
        for name in ("a", "b"):
            net.attach(_Sink(sim, node, name, log))
    src = torus.coord((0, 0, 0))
    far = torus.coord((2, 1, 1))
    pid = net.register_pattern(compile_pattern(torus, src, {
        (1, 0, 0): ["a"], (2, 0, 0): ["a", "b"], (3, 1, 0): ["b"],
        (2, 1, 1): ["a"],
    }))
    seq = 0

    def burst() -> None:
        nonlocal seq
        for k in range(6):
            seq += 1
            net.inject(Packet(src, "a", far, "a", payload_bytes=64 * (k % 3),
                              payload=seq, in_order=bool(k % 2)))
            seq += 1
            net.inject(Packet(src, "b", far, "b", payload_bytes=256,
                              payload=seq, in_order=bool(k % 2),
                              pattern_id=pid))

    for t in (0.0, 40.0, 41.0, 300.0):
        sim.schedule(t, burst)
    sim.run()
    links = [
        [repr(link.link_id), link.packets_carried, link.bytes_carried,
         link.peak_queue_length, link.busy_ns]
        for link in net.links()
    ]
    return _sha({
        "log": log,
        "links": links,
        "counts": [net.packets_injected, net.packets_delivered,
                   net.packets_completed, net.link_traversals],
        "now": sim.now,
    })


def fault_exchange_digest() -> str:
    """The exchange with a downed link, a stalled transit node and bit
    errors: the re-arm and retry paths of both transits."""
    from repro.faults.plan import BitError, FaultPlan, LinkDown, NodeStall
    from repro.faults.session import use_fault_plan

    plan = FaultPlan(
        seed=5,
        max_retries=64,
        bit_errors=(BitError(links="*", ber=2e-4),),
        link_downs=(LinkDown(links="x+", start_ns=30.0, end_ns=400.0),),
        # The stall outlasts the outage: a branch re-armed at 400 ns
        # forwards from the stalled node (only whole visits wait).
        node_stalls=(NodeStall(node=(1, 0, 0), start_ns=300.0,
                               end_ns=600.0),),
    )
    with use_fault_plan(plan):
        return exchange_digest()


def monitor_digest(name: str) -> str:
    """Every monitor's full sampler series from a monitored run: the
    model's for ``monitor_*``, the engine's (``engine.*``) for
    ``monitor_*_engine``."""
    from repro.monitor.capture import run_monitored

    engine = name.endswith("_engine")
    experiment, shape = MONITORED[name.removesuffix("_engine")]
    # The ring holds every tick: the mdstep pair crosses 602 grid times.
    cap = run_monitored(
        ExperimentSpec(experiment, shape=shape, rounds=2), interval_ns=50.0,
        series_capacity=1024,
    )
    return _sha([
        {series.name: series.samples() for series in monitor.sampler
         if series.name.startswith("engine.") == engine}
        for monitor in cap.monitors
    ])


def flight_metrics_digest() -> str:
    """The ``net.*`` metrics of a flight capture on ``mdstep`` 2×2×2,
    and of the monitored 26-to-1 incast on 3×3×3, whose 200 rounds
    overflow the monitor's histogram cap into the sketch."""
    from repro.monitor.capture import run_monitored

    mdstep = run_experiment(SPECS["mdstep"], Captures(flight=True)).metrics
    cap = run_monitored(
        ExperimentSpec("congestion", shape=(3, 3, 3), rounds=200)
        .with_extras(senders=26)
    )
    # 26 senders into one sink offer more than its link carries, so the
    # sink's head-of-line queue grows without bound: this is the funnel
    # the queue-growth watchdog is there to flag.  Any other failing
    # check is a fault.
    failing = [(c.name, c.status) for c in cap.verdict.checks if not c.ok]
    assert failing == [("queue_growth", "error")], failing
    assert "reached 1200 packet(s), above the bound of 1024" in (
        cap.verdict.check("queue_growth").detail)
    incast = cap.result.registry.snapshot()
    return _sha([
        {name: doc for name, doc in snapshot.items()
         if name.startswith("net.")}
        for snapshot in (mdstep, incast)
    ])


def _digest(name: str) -> str:
    if name == "flight_metrics":
        return flight_metrics_digest()
    if name.removesuffix("_engine") in MONITORED:
        return monitor_digest(name)
    if name in LINK_ORDER:
        return link_order_digest(name)
    if name == "incast_probes":
        return incast_probes_digest()
    if name == "mdstep_probes":
        return mdstep_probes_digest()
    if name in ("xray_analysis", "mdstep_analysis"):
        return analysis_digest(name)
    if name == "jitter_exchange":
        return exchange_digest(reorder_jitter_ns=120.0, seed=11)
    if name == "fault_exchange":
        return fault_exchange_digest()
    return result_digest(name)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_transport_digest(name):
    assert _digest(name) == DIGESTS[name], (
        f"{name}: result bytes changed; if a model change explains it, "
        "update DIGESTS in the same commit"
    )


if __name__ == "__main__":
    print(json.dumps({name: _digest(name) for name in sorted(DIGESTS)},
                     indent=4))
