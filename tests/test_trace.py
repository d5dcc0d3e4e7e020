"""Unit tests for the trace/instrumentation package."""

import pytest

from repro.trace import (
    Activity,
    ActivityKind,
    ActivityRecorder,
    communication_split,
    per_node_communication_split,
    render_timeline,
    timeline_csv,
)


def test_record_and_query(sim):
    rec = ActivityRecorder(sim)
    rec.record("u1", ActivityKind.COMPUTE, 0.0, 10.0, "work")
    rec.record("u1", ActivityKind.SEND, 10.0, 12.0)
    rec.record("u2", ActivityKind.WAIT, 0.0, 5.0)
    assert len(rec) == 3
    assert rec.units() == ["u1", "u2"]
    assert rec.busy_ns("u1") == 12.0
    assert rec.busy_ns("u1", ActivityKind.COMPUTE) == 10.0
    assert len(rec.intervals(kind=ActivityKind.WAIT)) == 1


def test_interval_validation():
    with pytest.raises(ValueError):
        Activity("u", ActivityKind.COMPUTE, 5.0, 4.0)


def test_activity_is_slotted_frozen_and_pickles():
    import dataclasses
    import pickle

    a = Activity("u", ActivityKind.SEND, 1.0, 2.5, "pos")
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.end_ns = 0.0
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) == a


def test_record_span_ends_now(sim):
    rec = ActivityRecorder(sim)
    sim.schedule(100.0, lambda: None)
    sim.run()
    rec.record_span("u", ActivityKind.SEND, 25.0)
    (a,) = rec.intervals(unit="u")
    assert (a.start_ns, a.end_ns) == (75.0, 100.0)


def test_communication_kinds():
    assert ActivityKind.SEND.is_communication
    assert ActivityKind.WAIT.is_communication
    assert not ActivityKind.COMPUTE.is_communication


def test_communication_split_subtracts_compute_union(sim):
    rec = ActivityRecorder(sim)
    # Overlapping compute on two units: union = [0, 15).
    rec.record("a", ActivityKind.COMPUTE, 0.0, 10.0)
    rec.record("b", ActivityKind.COMPUTE, 5.0, 15.0)
    stats = communication_split(rec, "phase", 0.0, 20.0)
    assert stats.total_ns == 20.0
    assert stats.compute_ns == 15.0
    assert stats.communication_ns == 5.0
    assert 0 < stats.communication_fraction < 1


def test_split_clips_to_phase(sim):
    rec = ActivityRecorder(sim)
    rec.record("a", ActivityKind.COMPUTE, 0.0, 100.0)
    stats = communication_split(rec, "phase", 40.0, 60.0)
    assert stats.compute_ns == 20.0
    assert stats.communication_ns == 0.0


def test_per_node_split_averages_over_nodes(sim):
    rec = ActivityRecorder(sim)
    rec.record("(0,0,0):gc", ActivityKind.COMPUTE, 0.0, 4.0)
    rec.record("(1,0,0):gc", ActivityKind.COMPUTE, 0.0, 8.0)
    stats = per_node_communication_split(rec, "phase", 0.0, 10.0)
    assert stats.compute_ns == pytest.approx(6.0)
    assert stats.communication_ns == pytest.approx(4.0)


def test_timeline_renders_buckets(sim):
    rec = ActivityRecorder(sim)
    rec.record("ts", ActivityKind.SEND, 0.0, 50.0)
    rec.record("gc", ActivityKind.COMPUTE, 50.0, 100.0)
    rec.record("gc", ActivityKind.WAIT, 0.0, 50.0)
    text = render_timeline(rec, 0.0, 100.0, buckets=10)
    assert "legend" in text
    assert "s" in text and "#" in text and "." in text


def test_timeline_grouping(sim):
    rec = ActivityRecorder(sim)
    rec.record("(0,0,0):gc", ActivityKind.COMPUTE, 0.0, 10.0)
    rec.record("(1,0,0):gc", ActivityKind.COMPUTE, 5.0, 15.0)
    text = render_timeline(
        rec, 0.0, 20.0, buckets=4,
        group_by={"(0,0,0):gc": "GC", "(1,0,0):gc": "GC"},
    )
    assert "GC" in text


def test_timeline_csv(sim):
    rec = ActivityRecorder(sim)
    rec.record("u", ActivityKind.LINK, 1.0, 2.0, "x+")
    csv = timeline_csv(rec, 0.0, 10.0)
    assert csv.splitlines()[0] == "unit,kind,start_ns,end_ns,label"
    assert "u,link,1.0,2.0,x+" in csv
