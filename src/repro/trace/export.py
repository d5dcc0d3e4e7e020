"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON, JSONL, text.

Any recorded run can be opened in `ui.perfetto.dev` (or Chrome's
``about:tracing``): :func:`chrome_trace` lays the flight recorder's
spans out as

* **packets** (pid 1) — one track per packet with a top-level flight
  span (inject → last delivery), nested per-hop ``wait``/``xmit``
  spans, and an instant event per delivery;
* **links** (pid 2) — one track per link direction with an occupancy
  span per traversal, plus a ``queue`` counter series showing
  head-of-line queue depth over time;
* **units** (pid 3) — the :class:`~repro.trace.recorder.ActivityRecorder`
  intervals (compute/send/receive/wait/…), when a recorder is given.

Determinism: exported files are a pure function of the simulated run.
Global packet identifiers (which keep counting across runs in one
process) are renumbered densely in injection order, dictionary keys
are sorted, and timestamps come from the deterministic event queue —
so two identical runs export byte-identical files and traces diff
cleanly across code changes.  ``trace_event`` timestamps are in
microseconds per the format spec; nanosecond precision survives as
fractional microseconds.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator, Optional

from repro.trace.flight import FlightRecorder
from repro.trace.recorder import ActivityRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.metrics import MetricsRegistry

_PID_PACKETS = 1
_PID_LINKS = 2
_PID_UNITS = 3


def _us(ns: float) -> float:
    return ns / 1000.0


def _meta(pid: int, tid: int, name_key: str, name: str) -> dict:
    return {
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "name": name_key,
        "args": {"name": name},
    }


def _local_ids(flight: FlightRecorder) -> dict[int, int]:
    """Dense packet ids in injection order.

    :data:`repro.network.packet._packet_ids` counts for the whole
    process, so raw ids differ between two identical runs; renumbering
    restores run-to-run byte identity.
    """
    return flight.local_ids()


def chrome_trace(
    flight: FlightRecorder,
    recorder: Optional[ActivityRecorder] = None,
    metrics: "Optional[MetricsRegistry]" = None,
) -> dict:
    """Build a Chrome ``trace_event`` document (JSON-serializable dict)."""
    ids = _local_ids(flight)
    events: list[dict] = []

    # -- packets (pid 1): one thread per packet -----------------------------
    events.append(_meta(_PID_PACKETS, 0, "process_name", "packets"))
    for f in flight.flights.values():
        lid = ids[f.packet_id]
        label = (
            f"mcast {f.kind}#{lid}"
            if f.multicast
            else f"{f.kind}#{lid} {f.src_node}->{f.dst_node}"
        )
        events.append(_meta(_PID_PACKETS, lid, "thread_name", label))
        end_ns = f.delivered_ns
        if end_ns is None:  # still in flight when the run stopped
            end_ns = max(
                [f.inject_ns] + [h.release_ns for h in f.hops]
            )
        events.append({
            "ph": "X",
            "pid": _PID_PACKETS,
            "tid": lid,
            "cat": "packet",
            "name": label,
            "ts": _us(f.inject_ns),
            "dur": _us(end_ns - f.inject_ns),
            "args": {
                "payload_bytes": f.payload_bytes,
                "wire_bytes": f.wire_bytes,
                "hops": len(f.hops),
                "queue_wait_ns": f.queue_wait_ns,
                "multicast": f.multicast,
                "in_order": f.in_order,
                "src_client": f.src_client,
            },
        })
        for h in f.hops:
            if h.wait_ns > 0:
                events.append({
                    "ph": "X",
                    "pid": _PID_PACKETS,
                    "tid": lid,
                    "cat": "hop",
                    "name": f"wait {h.link}",
                    "ts": _us(h.enqueue_ns),
                    "dur": _us(h.wait_ns),
                    "args": {"queue_depth": h.queue_depth},
                })
            events.append({
                "ph": "X",
                "pid": _PID_PACKETS,
                "tid": lid,
                "cat": "hop",
                "name": f"xmit {h.link}",
                "ts": _us(h.grant_ns),
                "dur": _us(h.occupancy_ns),
                "args": {"dim": h.dim, "sign": h.sign,
                         **({"retries": h.retries, "retry_ns": h.retry_ns}
                            if h.retries else {})},
            })
        for d in f.deliveries:
            events.append({
                "ph": "i",
                "pid": _PID_PACKETS,
                "tid": lid,
                "cat": "delivery",
                "name": f"deliver {d.node}:{d.client}",
                "ts": _us(d.time_ns),
                "s": "t",
            })

    # -- links (pid 2): one thread per link direction -----------------------
    events.append(_meta(_PID_LINKS, 0, "process_name", "links"))
    link_names = flight.links()
    for tid, name in enumerate(link_names):
        events.append(_meta(_PID_LINKS, tid, "thread_name", name))
        for grant, release, pid in flight.link_occupancy.get(name, []):
            events.append({
                "ph": "X",
                "pid": _PID_LINKS,
                "tid": tid,
                "cat": "link",
                "name": f"pkt#{ids.get(pid, pid)}",
                "ts": _us(grant),
                "dur": _us(release - grant),
            })
        for t, depth in flight.queue_depth_series.get(name, []):
            events.append({
                "ph": "C",
                "pid": _PID_LINKS,
                "tid": tid,
                "name": f"queue {name}",
                "ts": _us(t),
                "args": {"waiting": depth},
            })

    # -- units (pid 3): the activity recorder's intervals -------------------
    if recorder is not None and len(recorder):
        events.append(_meta(_PID_UNITS, 0, "process_name", "units"))
        units = recorder.units()
        tid_of = {u: i for i, u in enumerate(units)}
        for u in units:
            events.append(_meta(_PID_UNITS, tid_of[u], "thread_name", u))
        for a in recorder.intervals():
            events.append({
                "ph": "X",
                "pid": _PID_UNITS,
                "tid": tid_of[a.unit],
                "cat": a.kind.value,
                "name": a.label or a.kind.value,
                "ts": _us(a.start_ns),
                "dur": _us(a.duration_ns),
            })

    doc: dict = {"traceEvents": events, "displayTimeUnit": "ns"}
    if metrics is not None and len(metrics):
        doc["otherData"] = {"metrics": metrics.snapshot()}
    return doc


def dumps_chrome_trace(
    flight: FlightRecorder,
    recorder: Optional[ActivityRecorder] = None,
    metrics: "Optional[MetricsRegistry]" = None,
) -> str:
    """Serialize :func:`chrome_trace` deterministically (sorted keys,
    compact separators, trailing newline)."""
    doc = chrome_trace(flight, recorder, metrics)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_chrome_trace(
    path: str,
    flight: FlightRecorder,
    recorder: Optional[ActivityRecorder] = None,
    metrics: "Optional[MetricsRegistry]" = None,
) -> None:
    """Write a ``trace_event`` JSON file openable in ui.perfetto.dev."""
    with open(path, "w") as fh:
        fh.write(dumps_chrome_trace(flight, recorder, metrics))


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def jsonl_lines(
    flight: FlightRecorder,
    recorder: Optional[ActivityRecorder] = None,
) -> Iterator[str]:
    """One JSON object per record, for ad-hoc processing (jq, pandas).

    Record types: ``packet`` (with nested hops and deliveries, the
    deliveries in the recorder's canonical order: time, node rank,
    client), ``link`` (aggregate per link direction), ``queue_depth`` (one
    sample), ``activity`` (one recorder interval).
    """
    ids = _local_ids(flight)

    def dump(obj: dict) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    for f in flight.flights.values():
        yield dump({
            "type": "packet",
            "id": ids[f.packet_id],
            "kind": f.kind,
            "src": list(f.src_node),
            "src_client": f.src_client,
            "dst": list(f.dst_node),
            "dst_client": f.dst_client,
            "payload_bytes": f.payload_bytes,
            "wire_bytes": f.wire_bytes,
            "multicast": f.multicast,
            "in_order": f.in_order,
            "inject_ns": f.inject_ns,
            "delivered_ns": f.delivered_ns,
            "latency_ns": f.latency_ns,
            "hops": [
                {
                    "link": h.link,
                    "enqueue_ns": h.enqueue_ns,
                    "grant_ns": h.grant_ns,
                    "release_ns": h.release_ns,
                    "wait_ns": h.wait_ns,
                    "queue_depth": h.queue_depth,
                    # Retry fields appear only under fault injection so
                    # fault-free exports stay byte-identical.
                    **({"retry_ns": h.retry_ns, "retries": h.retries}
                       if h.retries else {}),
                }
                for h in f.hops
            ],
            "deliveries": [
                {"node": list(d.node), "client": d.client, "time_ns": d.time_ns}
                for d in f.deliveries
            ],
        })
    for name in flight.links():
        occ = flight.link_occupancy.get(name, [])
        yield dump({
            "type": "link",
            "link": name,
            "traversals": len(occ),
            "busy_ns": flight.link_busy_ns(name),
            "max_queue_depth": flight.max_queue_depth(name),
        })
        for t, depth in flight.queue_depth_series.get(name, []):
            yield dump({
                "type": "queue_depth",
                "link": name,
                "time_ns": t,
                "waiting": depth,
            })
    if recorder is not None:
        for a in recorder.intervals():
            yield dump({
                "type": "activity",
                "unit": a.unit,
                "kind": a.kind.value,
                "start_ns": a.start_ns,
                "end_ns": a.end_ns,
                "label": a.label,
            })


def write_jsonl(
    path: str,
    flight: FlightRecorder,
    recorder: Optional[ActivityRecorder] = None,
) -> None:
    with open(path, "w") as fh:
        for line in jsonl_lines(flight, recorder):
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# Text summary
# ---------------------------------------------------------------------------

def flight_summary(
    flight: FlightRecorder,
    metrics: "Optional[MetricsRegistry]" = None,
    top_links: int = 10,
) -> str:
    """Human-readable congestion summary (reuses the benchmark tables)."""
    # Local import: repro.analysis imports the asic/network stack which
    # imports repro.trace — keep this package importable on its own.
    from repro.analysis.report import render_table

    flights = flight.packets()
    delivered = [f for f in flights if f.latency_ns is not None]
    rows = [
        ["packets injected", len(flights)],
        ["packets delivered (all destinations)",
         sum(len(f.deliveries) for f in flights)],
        ["link traversals",
         sum(len(f.hops) for f in flights)],
        ["contended hops", flight.contended_hops()],
        ["max queue depth", flight.max_queue_depth()],
    ]
    if delivered:
        lat = sorted(f.latency_ns for f in delivered)
        rows.append(["latency min (ns)", lat[0]])
        rows.append(["latency p50 (ns)", lat[len(lat) // 2]])
        rows.append(["latency max (ns)", lat[-1]])
    parts = [render_table("Packet flight summary", ["quantity", "value"], rows)]

    link_rows = sorted(
        (
            [name,
             len(flight.link_occupancy.get(name, [])),
             flight.link_busy_ns(name),
             flight.max_queue_depth(name)]
            for name in flight.links()
        ),
        key=lambda r: (-r[2], r[0]),
    )[:top_links]
    if link_rows:
        parts.append(render_table(
            f"Busiest links (top {len(link_rows)})",
            ["link", "packets", "busy ns", "max queue"],
            link_rows,
        ))
    if metrics is not None and len(metrics):
        parts.append(metrics.summary())
    return "\n\n".join(parts)
