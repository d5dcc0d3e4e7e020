"""Unit tests for the congestion X-ray package: the per-link view,
backpressure tree construction and ranking, episode merging, blocker
identification, and the text/HTML/Prometheus renderers."""

import json

import pytest

from tests.conftest import run_exchange

from repro.asic import build_machine
from repro.congestion import CongestionView, direction_label
from repro.congestion.decompose import (
    DelayBucket,
    decompose_flight,
    decompose_run,
    render_decomposition,
)
from repro.congestion.report import (
    congestion_doc,
    render_congestion_html,
    render_congestion_prometheus,
    render_congestion_text,
)
from repro.congestion.tree import (
    DIRECTION_ORDER,
    INJECTION,
    CongestionTree,
    Episode,
    LinkCongestion,
    _merge_episodes,
    blocked_behind,
    build_congestion_tree,
)
from repro.congestion.view import SERIES_CAPACITY
from repro.engine import Simulator
from repro.network.multicast import compile_pattern
from repro.runner import Captures, ExperimentSpec, run_experiment
from repro.topology.torus import Torus3D
from repro.trace.export import dumps_chrome_trace
from repro.trace.flight import FlightRecorder, use_flight


def _incast(rounds, senders, payload=0):
    """The ``congestion`` incast on a 3x3x3 torus, flight-captured."""
    spec = ExperimentSpec(
        "congestion", shape=(3, 3, 3), rounds=rounds, payload=payload
    ).with_extras(senders=senders)
    return run_experiment(spec, Captures(flight=True))


@pytest.fixture(scope="module")
def incast():
    """The canonical 26-to-1 incast on a 3x3x3 torus, captured once.

    Dimension-ordered routing funnels every sender's final approach
    through the destination's z links; z+ and z- tie exactly and the
    deterministic direction order ranks z+ first.
    """
    result = _incast(rounds=1, senders=26)
    tree = build_congestion_tree(result.flight, Torus3D(3, 3, 3))
    return result, tree


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------
class TestRecorder:
    """The congestion view over the flight recorder, the one probe."""

    def test_direction_label(self):
        assert direction_label("z", 1) == "z+"
        assert direction_label("x", -1) == "x-"

    def test_uncontended_exchange_records_grants_no_waits(self):
        with use_flight(FlightRecorder()) as recorder:
            sim = Simulator()
            machine = build_machine(sim, 3, 3, 3)
            run_exchange(sim, machine.node((0, 0, 0)).slice(0),
                         machine.node((2, 0, 0)).slice(0))
        view = CongestionView(recorder)
        assert view.links()  # the traversed link appears
        assert sum(view.grants.values()) > 0
        assert view.total_wait_ns() == 0.0
        assert not view.waits
        # Occupancy timeline exists per granted link; depth timeline
        # only appears when something actually queued.
        for link in view.links():
            assert view.direction(link) in DIRECTION_ORDER
        assert view.occupancy_series
        assert not view.depth_series

    def test_contended_run_records_waits_and_depths(self, incast):
        result, _tree = incast
        recorder = result.congestion
        assert recorder.total_wait_ns() > 0
        assert recorder.max_peak_depth() >= 2
        assert sum(recorder.waits.values()) > 0
        # Every waiting link carries a depth timeline whose samples
        # never exceed the recorded peak.
        for link, series in recorder.depth_series.items():
            peak = recorder.peak_depth[link]
            assert peak >= 1
            assert max(series.values()) <= peak

    def test_ring_buffers_bound_memory(self):
        """The benchmark-scale incast overflows the 512-sample rings:
        each keeps its newest 512 samples and counts the rest."""
        result = _incast(rounds=100, senders=26, payload=256)
        view = result.congestion
        timelines = [*view.depth_series.values(),
                     *view.occupancy_series.values()]
        for series in timelines:
            assert len(series) == min(series.total_seen, SERIES_CAPACITY)
        assert any(series.dropped for series in timelines)
        assert view.total_dropped() == 3864

    def test_view_is_built_once_on_access(self, incast):
        result, _tree = incast
        assert result.congestion is result.congestion
        assert run_experiment(
            ExperimentSpec("latency", shape=(3, 3, 3), hops=1)
        ).congestion is None

    def test_absorbed_record_matches_one_shared_recorder(self):
        """A nested capture absorbed into the outer recorder gives the
        outer view exactly what attaching the outer recorder directly
        gives, multicast transit under contention included."""
        spec = ExperimentSpec("mdstep", shape=(2, 2, 2), rounds=1)
        shared = FlightRecorder()
        with use_flight(shared):
            run_experiment(spec)
            run_experiment(spec)
        absorbed = FlightRecorder()
        for _ in range(2):
            absorbed.absorb(
                run_experiment(spec, Captures(congestion=True)).flight
            )
        assert _stats(CongestionView(absorbed)) == _stats(
            CongestionView(shared)
        )
        assert dumps_chrome_trace(absorbed) == dumps_chrome_trace(shared)


def _stats(view: CongestionView) -> dict:
    return {
        "wait_ns": view.wait_ns,
        "waits": view.waits,
        "grants": view.grants,
        "peak_depth": view.peak_depth,
        "occupied_ns": view.occupied_ns,
        "directions": view.directions,
        "depth": {k: s.samples() for k, s in view.depth_series.items()},
        "occupancy": {
            k: s.samples() for k, s in view.occupancy_series.items()
        },
        "dropped": view.total_dropped(),
    }


class TestDecompositionFromLogs:
    """``decompose_run`` reads the hop log's columns; ``decompose_flight``
    reads a flight's ``HopRecord`` views.  They must agree exactly."""

    @pytest.mark.parametrize("spec", [
        # Link-level retries amend hop releases and carry retry spans.
        ExperimentSpec("fault_sensitivity", shape=(3, 3, 3), rounds=2)
        .with_extras(ber=0.0003, max_retries=64),
        # Multicast: each decomposition follows one fan-out branch.
        ExperimentSpec("mdstep", shape=(2, 2, 2), rounds=1),
    ], ids=["retries", "multicast"])
    def test_columns_match_flight_views(self, spec):
        fl = run_experiment(spec, Captures(flight=True)).flight
        torus = Torus3D(*spec.shape)
        decomps = decompose_run(fl, torus)
        views = [decompose_flight(f, torus) for f in fl.delivered_flights()]
        assert decomps == views
        retried = any(h.retry_ns > 0 for d in decomps for h in d.hops)
        assert retried == (spec.experiment == "fault_sensitivity")


# ---------------------------------------------------------------------------
# Tree construction and ranking
# ---------------------------------------------------------------------------
class TestCongestionTree:
    def test_incast_names_z_plus_bottleneck(self, incast):
        """The ISSUE's acceptance scenario: on the full 26-to-1 incast
        the tree's worst link is the destination's z+ inbound link."""
        _result, tree = incast
        assert tree.worst is not None
        assert tree.worst.direction == "z+"
        # z- ties exactly (symmetric funnel) and ranks second by the
        # deterministic direction order.
        assert tree.links[1].direction == "z-"
        assert tree.links[0].wait_ns == pytest.approx(tree.links[1].wait_ns)
        assert tree.links[0].wait_ns >= tree.links[2].wait_ns

    def test_ranking_is_sorted_and_deterministic(self, incast):
        _result, tree = incast
        keys = [(-lc.wait_ns, DIRECTION_ORDER.index(lc.direction), lc.link)
                for lc in tree.links]
        assert keys == sorted(keys)
        # Rebuild gives the identical document.
        result, _ = incast
        again = build_congestion_tree(result.flight, Torus3D(3, 3, 3))
        assert again.to_doc() == tree.to_doc()

    def test_feeders_tile_link_wait(self, incast):
        """Every nanosecond of a link's HOL wait is attributed to
        exactly one feeder (upstream link or injection)."""
        _result, tree = incast
        for lc in tree.links:
            assert sum(lc.fed_by.values()) == pytest.approx(lc.wait_ns)
            ranked = lc.ranked_feeders()
            assert sorted(ranked, key=lambda kv: (-kv[1], kv[0])) == ranked

    def test_worst_link_fed_mostly_upstream(self, incast):
        """The z+ funnel is fed by y-dimension feeders (the previous
        routing dimension), not by direct injection."""
        _result, tree = incast
        feeders = dict(tree.worst.ranked_feeders())
        upstream = sum(ns for f, ns in feeders.items() if f != INJECTION)
        assert upstream > feeders.get(INJECTION, 0.0)
        top_feeder = tree.worst.ranked_feeders()[0][0]
        assert top_feeder != INJECTION

    def test_episodes_cover_waits(self, incast):
        _result, tree = incast
        for lc in tree.links:
            total = sum(e.wait_ns for e in lc.episodes)
            assert total == pytest.approx(lc.wait_ns)
            assert sum(e.packets for e in lc.episodes) == lc.waits
            for e in lc.episodes:
                assert e.end_ns >= e.start_ns
                assert e.direction == lc.direction
        # Global episode list is sorted by wait, descending.
        eps = tree.episodes()
        assert all(eps[i].wait_ns >= eps[i + 1].wait_ns
                   for i in range(len(eps) - 1))

    def test_min_episode_filters_short_blocking(self, incast):
        result, tree = incast
        all_eps = len(tree.episodes())
        filtered = build_congestion_tree(
            result.flight, Torus3D(3, 3, 3), min_episode_ns=1e12
        )
        assert len(filtered.episodes()) == 0
        assert all_eps > 0
        # Filtering episodes never changes the wait accounting.
        assert filtered.total_wait_ns == pytest.approx(tree.total_wait_ns)

    def test_blocked_behind_identifies_fcfs_blocker(self, incast):
        result, _tree = incast
        found = 0
        for flight in result.flight.flights.values():
            for i, hop in enumerate(flight.hops):
                blocker = blocked_behind(result.flight, flight, i)
                if hop.wait_ns <= 0.0:
                    assert blocker is None
                elif blocker is not None:
                    assert blocker != flight.packet_id
                    found += 1
        assert found > 0

    def test_uncontended_run_yields_empty_tree(self):
        # A single-sender "incast" is just one uncontended write.
        result = _incast(rounds=1, senders=1)
        tree = build_congestion_tree(result.flight, Torus3D(3, 3, 3))
        assert tree.links == []
        assert tree.worst is None
        assert tree.total_wait_ns == 0.0
        assert tree.packets > 0

    def test_to_doc_schema_and_top(self, incast):
        _result, tree = incast
        doc = tree.to_doc(top=2)
        assert doc["schema"] == "repro-congest/1"
        assert len(doc["links"]) == 2
        assert doc["contended_links"] == len(tree.links)
        assert doc["total_hol_wait_ns"] == pytest.approx(tree.total_wait_ns)
        first = doc["links"][0]
        assert first["direction"] == "z+"
        assert set(first) == {"link", "direction", "wait_ns", "waits",
                              "peak_depth", "occupancy_ns", "fed_by",
                              "episodes"}
        json.dumps(doc)  # plain data, serializable


class TestEpisodeMerging:
    def test_overlapping_intervals_merge(self):
        eps = _merge_episodes("L", "z+", [(0.0, 5.0), (3.0, 8.0)], 0.0)
        assert len(eps) == 1
        assert (eps[0].start_ns, eps[0].end_ns) == (0.0, 8.0)
        assert eps[0].packets == 2
        assert eps[0].wait_ns == pytest.approx(10.0)

    def test_touching_intervals_merge(self):
        eps = _merge_episodes("L", "z+", [(0.0, 5.0), (5.0, 6.0)], 0.0)
        assert len(eps) == 1
        assert eps[0].duration_ns == pytest.approx(6.0)

    def test_disjoint_intervals_stay_separate(self):
        eps = _merge_episodes("L", "z+", [(10.0, 12.0), (0.0, 5.0)], 0.0)
        assert [(e.start_ns, e.end_ns) for e in eps] == [
            (0.0, 5.0), (10.0, 12.0)
        ]

    def test_min_duration_threshold(self):
        eps = _merge_episodes(
            "L", "z+", [(0.0, 1.0), (10.0, 20.0)], 5.0
        )
        assert len(eps) == 1
        assert eps[0].start_ns == 10.0


# ---------------------------------------------------------------------------
# Multicast pattern helpers the attribution joins against
# ---------------------------------------------------------------------------
class TestMulticastLinkViews:
    def test_links_traversed_matches_total(self):
        torus = Torus3D(3, 3, 3)
        pattern = compile_pattern(
            torus, (0, 0, 0),
            {(2, 0, 0): ["c"], (0, 2, 0): ["c"], (1, 1, 1): ["c"]},
        )
        links = pattern.links_traversed()
        assert len(links) == pattern.total_link_traversals
        assert links == sorted(links, key=lambda t: t[0])
        for _node, dim, sign in links:
            assert dim in "xyz" and sign in (-1, 1)

    def test_direction_fanout_sums_to_traversals(self):
        torus = Torus3D(3, 3, 3)
        pattern = compile_pattern(
            torus, (1, 1, 1),
            {n: ["c"] for n in [(0, 1, 1), (2, 1, 1), (1, 0, 1),
                                (1, 2, 1), (1, 1, 0), (1, 1, 2)]},
        )
        fanout = pattern.direction_fanout()
        assert sum(fanout.values()) == pattern.total_link_traversals
        assert set(fanout) <= set(DIRECTION_ORDER)
        # The 6-neighbor broadcast exits every direction once... at
        # least once each for x; y/z branch off the trunk.
        assert fanout["x+"] >= 1 and fanout["x-"] >= 1


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------
class TestRenderers:
    def test_text_report(self, incast):
        _result, tree = incast
        text = render_congestion_text(tree)
        assert "Congestion tree" in text
        assert "z+" in text
        assert "episode" in text.lower()

    def test_text_report_empty_tree(self):
        text = render_congestion_text(CongestionTree(links=[], packets=3))
        assert "no head-of-line waits" in text

    def test_decomposition_render(self, incast):
        result, _tree = incast
        decomps = decompose_run(result.flight, Torus3D(3, 3, 3))
        text = render_decomposition(decomps)
        assert "head-of-line wait" in text
        assert "UNATTRIBUTED" in text
        assert "TOTAL" in text

    def test_html_report(self, incast):
        result, tree = incast
        html = render_congestion_html(
            tree, series=result.congestion.depth_series,
            experiment="congestion", shape=(3, 3, 3),
        )
        assert html.lower().startswith("<!doctype html>")
        assert "Congestion X-ray" in html
        assert "z+" in html
        assert "svg" in html  # depth sparkline for the worst link

    def test_prometheus_exposition(self, incast):
        result, tree = incast
        prom = render_congestion_prometheus(tree, result.congestion)
        assert "# TYPE repro_congestion_hol_wait_ns counter" in prom
        assert 'direction="z+"' in prom
        assert "repro_congestion_total_hol_wait_ns" in prom
        assert "repro_congestion_contended_links" in prom
        assert prom.endswith("\n")

    def test_doc_wrapper(self, incast):
        _result, tree = incast
        doc = congestion_doc(tree, experiment="congestion",
                             shape=(3, 3, 3), top=4)
        assert doc["experiment"] == "congestion"
        assert doc["shape"] == [3, 3, 3]
        assert len(doc["links"]) == 4
