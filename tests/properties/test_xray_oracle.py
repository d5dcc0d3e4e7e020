"""Oracle for the congestion X-ray's column passes, fault paths included.

``build_congestion_tree`` and ``decompose_run`` compute every hop's
wait, feeder, episode and delay buckets in column passes over the
flight record.  This suite recomputes all of it the slow way, hop by
hop over the ``HopRecord`` views of ``fl.packets()``, with the
calibrated hop split written out from :mod:`repro.constants` (no call
into :mod:`repro.analysis.attribution` or the passes), and requires
the two to agree bit for bit: the tree's ``to_doc()`` and every field
of every decomposition, compared through ``repr`` so that even the
sign of a zero counts.  The golden digests cover fault-free runs; the
contended exchanges here add link-level retries, which stretch hop
releases and carry retry spans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.critical_path import branch_hops
from repro.congestion.decompose import (
    HopDelay,
    PacketDecomposition,
    decompose_run,
)
from repro.congestion.tree import (
    DIRECTION_ORDER,
    INJECTION,
    CongestionTree,
    Episode,
    LinkCongestion,
    build_congestion_tree,
)
from repro.congestion.view import direction_label
from repro.constants import (
    DST_RING_NS,
    HEADER_BYTES,
    LINK_ADAPTER_NS,
    MULTICAST_LOOKUP_NS,
    THROUGH_RING_NS,
    TORUS_LINK_EFFECTIVE_GBPS,
    WIRE_NS,
)
from repro.faults.plan import BitError, FaultPlan
from repro.faults.session import use_fault_plan
from repro.runner.result import Captures, run_experiment
from repro.runner.spec import ExperimentSpec, ensure_registered
from repro.topology.torus import Torus3D

ensure_registered()


# ---------------------------------------------------------------------------
# The brute-force reference
# ---------------------------------------------------------------------------
def _reference_tree(fl, torus, min_episode_ns):
    """The congestion tree, one hop at a time in flight order."""
    per = {}
    intervals = {}
    contended = 0
    busy = {}
    grants = {}
    for f in fl.packets():
        hops = f.hops
        src = torus.coord(f.src_node)
        entered = {
            torus.neighbor(h.from_node, h.dim, h.sign): h.link for h in hops
        }
        for h in hops:
            grants.setdefault(h.link, []).append((h.grant_ns, h.release_ns))
            wait = h.grant_ns - h.enqueue_ns
            if wait <= 0.0:
                continue
            contended += 1
            lc = per.get(h.link)
            if lc is None:
                lc = per[h.link] = LinkCongestion(
                    link=h.link, direction=direction_label(h.dim, h.sign)
                )
                intervals[h.link] = []
            lc.wait_ns += wait
            lc.waits += 1
            node = torus.coord(h.from_node)
            feeder = (
                INJECTION if node == src else entered.get(node, INJECTION)
            )
            lc.fed_by[feeder] = lc.fed_by.get(feeder, 0.0) + wait
            lc.peak_depth = max(lc.peak_depth, h.queue_depth + 1)
            intervals[h.link].append((h.enqueue_ns, h.grant_ns))
    # A link's grants are strictly increasing, so grant time is grant
    # order: occupancy sums in it.
    for link, spans in grants.items():
        busy[link] = sum(release - grant for grant, release in sorted(spans))
    for link, lc in per.items():
        lc.occupancy_ns = busy[link]
        episodes = []
        for start, end in sorted(intervals[link]):
            if episodes and start <= episodes[-1].end_ns:
                ep = episodes[-1]
                ep.end_ns = max(ep.end_ns, end)
                ep.packets += 1
                ep.wait_ns += end - start
            else:
                episodes.append(Episode(
                    link, lc.direction, start, end, 1, end - start
                ))
        lc.episodes = [
            e for e in episodes if e.end_ns - e.start_ns >= min_episode_ns
        ]
    links = sorted(per.values(), key=lambda lc: (
        -lc.wait_ns, DIRECTION_ORDER.index(lc.direction), lc.link
    ))
    return CongestionTree(
        links=links, packets=len(fl), contended_hops=contended
    )


def _reference_split(dim, grant, retry, first, terminal, multicast,
                     payload_extra, seg_end):
    """One hop's calibrated split as (bucket, ns) parts, in path order."""
    parts = []
    if retry > 0.0:
        parts.append(("retry", retry))
    parts.append(("wire", 2 * LINK_ADAPTER_NS))
    if WIRE_NS[dim] - WIRE_NS["x"] > 0:
        parts.append(("wire", WIRE_NS[dim] - WIRE_NS["x"]))
    if multicast:
        parts.append(("through", MULTICAST_LOOKUP_NS))
    if first:
        if payload_extra > 0:
            parts.append(("ser", payload_extra))
    else:
        parts.append(("through", THROUGH_RING_NS[dim]))
    if terminal:
        parts.append(("endpoint", DST_RING_NS))
    explained = sum(ns for _, ns in parts)
    residue = (seg_end - grant) - explained
    if abs(residue) > 1e-9:
        parts.append(("unattributed", residue))
    return parts


def _reference_decompositions(fl, torus):
    """Every delivered packet's decomposition, hop by hop."""
    header_ns = HEADER_BYTES * 8.0 / TORUS_LINK_EFFECTIVE_GBPS
    out = []
    for f in fl.packets():
        if not f.deliveries:
            continue
        delivery = f.deliveries[-1]
        hops = branch_hops(f, torus, delivery) if f.multicast else f.hops
        d = PacketDecomposition(
            packet_id=f.packet_id, start_ns=f.inject_ns,
            end_ns=delivery.time_ns,
        )
        if not hops:
            d.endpoint_ns = d.end_ns - d.start_ns
            out.append(d)
            continue
        extra = max(
            0.0, f.wire_bytes * 8.0 / TORUS_LINK_EFFECTIVE_GBPS - header_ns
        )
        d.endpoint_ns = hops[0].enqueue_ns - d.start_ns
        last = len(hops) - 1
        for i, h in enumerate(hops):
            seg_end = hops[i + 1].enqueue_ns if i < last else d.end_ns
            acc = dict.fromkeys(
                ("retry", "wire", "ser", "through", "endpoint",
                 "unattributed"), 0.0,
            )
            for bucket, ns in _reference_split(
                h.dim, h.grant_ns, h.retry_ns, i == 0, i == last,
                f.multicast, extra, seg_end,
            ):
                acc[bucket] += ns
            d.hops.append(HopDelay(
                link=h.link,
                direction=direction_label(h.dim, h.sign),
                start_ns=h.enqueue_ns,
                end_ns=seg_end,
                hol_wait_ns=h.grant_ns - h.enqueue_ns,
                serialization_ns=acc["ser"],
                wire_ns=acc["wire"],
                retry_ns=acc["retry"],
                through_node_ns=acc["through"],
                endpoint_ns=acc["endpoint"],
                unattributed_ns=acc["unattributed"],
            ))
        d.check()
        out.append(d)
    return out


def _assert_matches_reference(fl, torus, min_episode_ns=0.0):
    expected = repr(_reference_tree(fl, torus, min_episode_ns).to_doc())
    assert repr(build_congestion_tree(fl, torus, min_episode_ns).to_doc()) \
        == expected
    if not any(fl.flight_multicast):
        # A unicast hop's feeder is the previous hop of its chain, with
        # or without the geometry.
        assert repr(
            build_congestion_tree(fl, None, min_episode_ns).to_doc()
        ) == expected
    assert repr(decompose_run(fl, torus)) == repr(
        _reference_decompositions(fl, torus)
    )


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------
@given(
    fan_in=st.integers(8, 26),
    payload=st.integers(0, 256),
    rounds=st.integers(1, 2),
    ber=st.sampled_from([0.0, 0.0001, 0.0003]),
    seed=st.integers(0, 3),
    min_episode_ns=st.sampled_from([0.0, 40.0]),
)
@settings(max_examples=14, deadline=None)
def test_contended_exchange_matches_reference(
    fan_in, payload, rounds, ber, seed, min_episode_ns
):
    """Contended 3×3×3 incasts, with and without link-level retries."""
    spec = ExperimentSpec(
        "congestion", shape=(3, 3, 3), rounds=rounds, payload=payload,
    ).with_extras(senders=fan_in)
    if ber:
        with use_fault_plan(FaultPlan(
            seed=seed,
            bit_errors=(BitError(links="*", ber=ber),),
            max_retries=64,
            backoff_max_ns=640.0,
        )):
            fl = run_experiment(spec, Captures(flight=True)).flight
    else:
        fl = run_experiment(spec, Captures(flight=True)).flight
    assert fl.contended_hops() > 0
    _assert_matches_reference(fl, Torus3D(3, 3, 3), min_episode_ns)


def test_multicast_step_matches_reference():
    """``mdstep`` 2×2×2: multicast fan-out trees under contention, each
    decomposition along one branch and each feeder from the tree."""
    spec = ExperimentSpec("mdstep", shape=(2, 2, 2), rounds=1)
    fl = run_experiment(spec, Captures(flight=True)).flight
    assert any(fl.flight_multicast) and fl.contended_hops() > 0
    _assert_matches_reference(fl, Torus3D(2, 2, 2))
