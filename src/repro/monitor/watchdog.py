"""Invariant watchdogs and structured diagnostics.

The paper's communication machinery rests on conservation laws the
hardware enforces and the software must respect: every injected packet
is eventually delivered exactly as many times as its routing promises,
synchronization counters only move forward and never strand a waiter,
the hardware message FIFO never exceeds its ring capacity, and a
machine with packets in flight always makes delivery progress.  The
watchdogs check those invariants *while the simulation runs* (at the
sampler cadence) and emit structured, leveled, sim-time-stamped JSONL
diagnostics when one breaks — the "alerting" half of metrics +
alerting.

A check that ever left the ``ok`` state stays visible in the final
:class:`HealthVerdict` even if the condition later cleared: a
transient conservation violation is a bug, not noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

#: Diagnostic / check severity, in increasing order of badness.
LEVELS = ("info", "warning", "error")

#: Bound on the deepest head-of-line queue any link direction may
#: grow.  The real machine's channel buffers are tiny (packets are
#: consumed at wire speed); a queue hundreds deep in the model means a
#: workload is funnelling unboundedly into one direction — exactly the
#: failure the congestion X-ray exists to attribute.
QUEUE_LIMIT = 1024

_SEVERITY = {level: i for i, level in enumerate(LEVELS)}


@dataclass(slots=True)
class Diagnostic:
    """One structured diagnostic record with simulation-time context."""

    time_ns: float
    level: str
    check: str
    message: str
    context: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc: dict[str, Any] = {
            "t_ns": self.time_ns,
            "level": self.level,
            "check": self.check,
            "msg": self.message,
        }
        doc.update(self.context)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class DiagnosticLog:
    """Bounded, leveled diagnostic stream (JSONL on disk).

    Like every monitor buffer, the log is capacity-bounded with an
    explicit dropped counter; per-level counts are kept even for
    dropped records, so the verdict never under-reports severity.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.records: list[Diagnostic] = []
        self.dropped = 0
        self.counts = {level: 0 for level in LEVELS}

    def emit(
        self,
        time_ns: float,
        level: str,
        check: str,
        message: str,
        **context: Any,
    ) -> Diagnostic:
        if level not in _SEVERITY:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        diag = Diagnostic(time_ns, level, check, message, context)
        self.counts[level] += 1
        if len(self.records) < self.capacity:
            self.records.append(diag)
        else:
            self.dropped += 1
        return diag

    def by_level(self, level: str) -> list[Diagnostic]:
        return [d for d in self.records if d.level == level]

    @property
    def worst_level(self) -> Optional[str]:
        """Most severe level ever emitted, or ``None`` when silent."""
        for level in reversed(LEVELS):
            if self.counts[level]:
                return level
        return None

    def jsonl_lines(self) -> list[str]:
        return [d.to_json() for d in self.records]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(slots=True)
class CheckResult:
    """Worst observed state of one invariant check."""

    name: str
    status: str  # "ok" | "warning" | "error"
    detail: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class HealthVerdict:
    """The monitor's summary judgement of one run."""

    checks: list[CheckResult]
    sim_time_ns: float
    packets_injected: int
    packets_delivered: int
    packets_in_flight: int
    samples_recorded: int
    dropped_samples: int
    dropped_diagnostics: int
    diagnostic_counts: dict[str, int]
    #: Deepest head-of-line queue ever observed per link direction
    #: (``z+``-style tag → packets), the backpressure fingerprint the
    #: report and the Prometheus exposition surface.
    peak_queue_by_direction: dict[str, int] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """No check ever reached ``error`` severity.  Warnings (e.g.
        telemetry loss) are reported but do not fail the run."""
        return all(c.status != "error" for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def render_text(self) -> str:
        # Local import: repro.analysis pulls in the asic/network stack
        # (same cycle-avoidance as MetricsRegistry.summary).
        from repro.analysis.report import render_table

        mark = {"ok": "pass", "warning": "WARN", "error": "FAIL"}
        rows = [[c.name, mark[c.status], c.detail] for c in self.checks]
        table = render_table(
            "Health verdict: " + ("HEALTHY" if self.healthy else "UNHEALTHY"),
            ["invariant", "status", "detail"],
            rows,
        )
        tail = (
            f"sim time {self.sim_time_ns:.0f} ns; "
            f"packets {self.packets_injected} injected / "
            f"{self.packets_delivered} delivered / "
            f"{self.packets_in_flight} in flight; "
            f"{self.samples_recorded} samples retained "
            f"({self.dropped_samples} dropped); diagnostics "
            + ", ".join(f"{self.diagnostic_counts[k]} {k}" for k in LEVELS)
        )
        if self.peak_queue_by_direction:
            tail += "; peak queues " + ", ".join(
                f"{d}={depth}"
                for d, depth in sorted(self.peak_queue_by_direction.items())
            )
        return table + "\n" + tail


class InvariantWatchdogs:
    """The four live invariant checks over one machine.

    ``machine`` is duck-typed: anything with a ``network`` (Anton
    :class:`~repro.asic.node.Machine`) plus iterable nodes whose
    clients expose ``counters()`` and, for slices, a ``fifo``.

    Check cadence is the caller's business (the
    :class:`~repro.monitor.health.HealthMonitor` runs the cheap
    counter-based checks every sampler tick and the per-client sweeps
    on the decimated cadence); every violation is diagnosed once per
    episode rather than once per tick, so a persistent breakage cannot
    flood the log.
    """

    def __init__(
        self,
        machine,
        log: DiagnosticLog,
        stall_ns: float = 50_000.0,
    ) -> None:
        if stall_ns <= 0:
            raise ValueError(f"stall_ns must be positive, got {stall_ns}")
        self.machine = machine
        self.network = machine.network
        self.log = log
        self.stall_ns = stall_ns
        self._worst: dict[str, CheckResult] = {}
        names = [
            "packet_conservation",
            "sync_counter_consistency",
            "fifo_depth_bounds",
            "stall_detector",
            "queue_growth",
        ]
        # The fault invariants exist only when a fault session is
        # attached, so fault-free verdicts keep their historical four
        # checks byte for byte.
        if getattr(self.network, "faults", None) is not None:
            names += ["fault_packet_loss", "fault_retry_bounds"]
        for name in names:
            self._worst[name] = CheckResult(name, "ok", "")
        # Stall-detector state.
        self._progress_marker: tuple[int, int, int] = (0, 0, 0)
        self._last_progress_ns = 0.0
        self._stall_reported = False

    # -- bookkeeping ---------------------------------------------------------
    def _report(
        self,
        now: float,
        name: str,
        status: str,
        detail: str,
        **context: Any,
    ) -> None:
        worst = self._worst[name]
        if _SEVERITY[status] >= _SEVERITY.get(worst.status, 0) and status != "ok":
            if (worst.status, worst.detail) != (status, detail):
                self.log.emit(now, status, name, detail, **context)
            self._worst[name] = CheckResult(name, status, detail)

    def results(self) -> list[CheckResult]:
        """Worst observed state of every check, stable order."""
        out = []
        for name, res in self._worst.items():
            if res.ok and not res.detail:
                res = CheckResult(name, "ok", "never violated")
            out.append(res)
        return out

    # -- the invariants ------------------------------------------------------
    def check_packet_conservation(self, now: float, final: bool = False) -> None:
        """injected == completed + in-flight, deliveries == promised.

        The network model never drops packets, so the paper's
        conservation law specializes to: deliveries may never exceed
        what routing promised, the in-flight count may never go
        negative, and at quiescence nothing may remain in flight.
        """
        net = self.network
        in_flight = net.packets_injected - net.packets_completed
        if in_flight < 0:
            self._report(
                now, "packet_conservation", "error",
                f"completed {net.packets_completed} packets exceed "
                f"{net.packets_injected} injected",
                injected=net.packets_injected,
                completed=net.packets_completed,
            )
        if net.packets_delivered > net.deliveries_expected:
            self._report(
                now, "packet_conservation", "error",
                f"{net.packets_delivered} deliveries exceed the "
                f"{net.deliveries_expected} promised by routing",
                delivered=net.packets_delivered,
                expected=net.deliveries_expected,
            )
        if final:
            # Packets the fault session dropped (loudly) count as
            # completed and their owed deliveries as lost; both are 0
            # without fault injection, keeping the arithmetic intact.
            lost = getattr(net, "deliveries_lost", 0)
            if in_flight != 0:
                self._report(
                    now, "packet_conservation", "error",
                    f"{in_flight} packet(s) still in flight at the end "
                    "of the run (lost or deadlocked)",
                    in_flight=in_flight,
                )
            elif net.packets_delivered + lost != net.deliveries_expected:
                self._report(
                    now, "packet_conservation", "error",
                    f"run ended with {net.packets_delivered} deliveries "
                    f"(+{lost} accounted lost), "
                    f"expected {net.deliveries_expected}",
                    delivered=net.packets_delivered,
                    lost=lost,
                    expected=net.deliveries_expected,
                )

    def check_sync_counters(self, now: float, final: bool = False) -> None:
        """Counters are monotone within an epoch and never strand a
        satisfiable waiter."""
        for node in self.machine:
            for client in node.clients():
                for cid, counter in client.counters().items():
                    if counter.count < 0 or (
                        counter.count > counter.total_increments
                    ):
                        self._report(
                            now, "sync_counter_consistency", "error",
                            f"counter {counter.name!r} count "
                            f"{counter.count} inconsistent with "
                            f"{counter.total_increments} total increments",
                            counter=counter.name,
                        )
                    pending = counter.pending_targets()
                    if pending and pending[0] <= counter.count:
                        self._report(
                            now, "sync_counter_consistency", "error",
                            f"counter {counter.name!r} has a waiter at "
                            f"{pending[0]} though the count is already "
                            f"{counter.count} (missed wakeup)",
                            counter=counter.name,
                        )
                    elif final and pending:
                        self._report(
                            now, "sync_counter_consistency", "error",
                            f"counter {counter.name!r} ended the run "
                            f"with waiters at {pending} "
                            f"(count={counter.count})",
                            counter=counter.name,
                        )

    def check_fifo_bounds(self, now: float, final: bool = False) -> None:
        """Ring occupancy within capacity; backpressure surfaced."""
        for node in self.machine:
            for slc in node.slices:
                fifo = slc.fifo
                if fifo.occupancy > fifo.capacity:
                    self._report(
                        now, "fifo_depth_bounds", "error",
                        f"FIFO {fifo.name!r} occupancy {fifo.occupancy} "
                        f"exceeds capacity {fifo.capacity}",
                        fifo=fifo.name,
                    )
                consumed_plus_held = (
                    fifo.total_consumed + fifo.occupancy
                    + fifo.overflow_occupancy
                )
                if fifo.total_received != consumed_plus_held:
                    self._report(
                        now, "fifo_depth_bounds", "error",
                        f"FIFO {fifo.name!r} lost messages: received "
                        f"{fifo.total_received}, accounted "
                        f"{consumed_plus_held}",
                        fifo=fifo.name,
                    )
                if fifo.overflow_occupancy > 0:
                    self._report(
                        now, "fifo_depth_bounds", "warning",
                        f"FIFO {fifo.name!r} is exerting backpressure "
                        f"({fifo.overflow_occupancy} packet(s) parked)",
                        fifo=fifo.name,
                    )
                if final and len(fifo) > 0:
                    self._report(
                        now, "fifo_depth_bounds", "warning",
                        f"FIFO {fifo.name!r} ended the run with "
                        f"{len(fifo)} unconsumed message(s)",
                        fifo=fifo.name,
                    )

    def check_stall(self, now: float, final: bool = False) -> None:
        """Packets in flight must make delivery progress.

        Sim time only advances through events, so a hard engine
        deadlock ends the run (and is caught by the final conservation
        check); what *this* detector catches is livelock — events keep
        firing (polling loops, timers) while no packet is injected,
        delivered, or completed for ``stall_ns`` of simulated time even
        though packets are in flight.
        """
        net = self.network
        marker = (
            net.packets_injected,
            net.packets_completed,
            net.packets_delivered,
        )
        if marker != self._progress_marker:
            self._progress_marker = marker
            self._last_progress_ns = now
            self._stall_reported = False
            return
        in_flight = net.packets_injected - net.packets_completed
        if in_flight <= 0:
            self._last_progress_ns = now
            return
        stalled_for = now - self._last_progress_ns
        if stalled_for > self.stall_ns and not self._stall_reported:
            self._stall_reported = True
            self._report(
                now, "stall_detector", "error",
                f"{in_flight} packet(s) in flight but no network "
                f"progress for {stalled_for:.0f} ns "
                f"(threshold {self.stall_ns:.0f} ns)",
                in_flight=in_flight,
                stalled_ns=stalled_for,
            )

    def check_queue_growth(self, now: float, final: bool = False) -> None:
        """No link direction's head-of-line queue grows without bound.

        A head-of-line queue deeper than :data:`QUEUE_LIMIT` means a
        workload funnels into one direction faster than it can ever
        drain — a modelling or protocol bug, not ordinary contention.
        The sweep reads each materialized link's monotone
        ``peak_queue_length`` high watermark, so a transient spike
        between ticks is still caught.
        """
        worst_depth = 0
        worst = None
        for link in self.network.links():
            depth = link.peak_queue_length
            if depth > worst_depth:
                worst_depth = depth
                worst = link
        worst_link = "" if worst is None else repr(worst.link_id)
        if worst_depth > QUEUE_LIMIT:
            self._report(
                now, "queue_growth", "error",
                f"head-of-line queue on {worst_link} reached "
                f"{worst_depth} packet(s), above the bound of "
                f"{QUEUE_LIMIT} (unbounded queue growth)",
                link=worst_link,
                peak=worst_depth,
                limit=QUEUE_LIMIT,
            )
        elif final and self._worst["queue_growth"].ok:
            self._worst["queue_growth"] = CheckResult(
                "queue_growth", "ok",
                f"deepest queue {worst_depth} of {QUEUE_LIMIT} allowed",
            )

    def check_faults(self, now: float, final: bool = False) -> None:
        """Fault-injection invariants: no packet silently lost, retries
        bounded.  A no-op (and absent from the verdict) without an
        attached fault session.
        """
        fa = getattr(self.network, "faults", None)
        if fa is None:
            return
        net = self.network
        st = fa.stats
        net_lost = getattr(net, "packets_lost", 0)
        if st.packets_lost != net_lost:
            self._report(
                now, "fault_packet_loss", "error",
                f"loss accounting mismatch: session counted "
                f"{st.packets_lost} dropped packet(s), network counted "
                f"{net_lost} (a packet was lost silently)",
                session_lost=st.packets_lost,
                network_lost=net_lost,
            )
        elif st.packets_lost:
            self._report(
                now, "fault_packet_loss", "error",
                f"{st.packets_lost} packet(s) dropped after retry "
                f"exhaustion ({st.deliveries_lost} owed deliveries "
                "lost; detected and accounted, never silent)",
                packets_lost=st.packets_lost,
                deliveries_lost=st.deliveries_lost,
            )
        if st.max_retries_seen > fa.plan.max_retries:
            self._report(
                now, "fault_retry_bounds", "error",
                f"a traversal recorded {st.max_retries_seen} "
                f"retransmissions, above the protocol bound of "
                f"{fa.plan.max_retries}",
                max_seen=st.max_retries_seen,
                bound=fa.plan.max_retries,
            )
        if final:
            # Leave human-readable totals on checks that stayed ok.
            if self._worst["fault_packet_loss"].ok:
                self._worst["fault_packet_loss"] = CheckResult(
                    "fault_packet_loss", "ok",
                    f"0 lost ({st.retransmissions} retransmission(s) "
                    "recovered every corruption)",
                )
            if self._worst["fault_retry_bounds"].ok:
                self._worst["fault_retry_bounds"] = CheckResult(
                    "fault_retry_bounds", "ok",
                    f"worst traversal used {st.max_retries_seen} of "
                    f"{fa.plan.max_retries} allowed retransmissions",
                )
