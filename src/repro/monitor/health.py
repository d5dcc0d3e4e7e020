"""The health monitor: sampler + watchdogs wired to a live machine.

A :class:`HealthMonitor` registers probes over one machine (per-link
busy time and queue depth for every one of the ``6·N`` link
directions, plus machine-wide aggregates), installs itself on the
simulator's monitor hook, and on every sampler tick takes a snapshot
and runs the invariant watchdogs.  :meth:`finalize` runs the stricter
quiescence checks and returns the run's
:class:`~repro.monitor.watchdog.HealthVerdict`.

Attachment is ambient, mirroring the flight recorder:
:func:`use_monitoring` opens a :class:`MonitorSession`, and any machine
built by :func:`~repro.asic.node.build_machine` while the session is
active gets a monitor automatically — which is how experiments that
construct their own machinery (e.g. :class:`~repro.md.machine.AntonMD`)
are monitored without plumbing.

Everything the monitor does is read-only against simulation state, and
the monitor hook lives outside the event queue (no queue entries, no
events scheduled), so a monitored run is bit-identical to
an unmonitored one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ContextManager, Optional

from repro import instruments
from repro.monitor.sampler import DEFAULT_INTERVAL_NS, TimeSeriesSampler
from repro.monitor.watchdog import (
    DEFAULT_QUEUE_LIMIT,
    CheckResult,
    DiagnosticLog,
    HealthVerdict,
    InvariantWatchdogs,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.asic.node import Machine
    from repro.engine.simulator import Simulator

#: Default no-progress window before the stall detector fires, in
#: simulated ns.  Generous next to the 162 ns end-to-end latency and
#: the ~8 µs range-limited phase: nothing legitimate keeps packets in
#: flight for 50 µs without a single delivery.
DEFAULT_STALL_NS = 50_000.0


class HealthMonitor:
    """Continuous sampling and invariant checking for one machine."""

    def __init__(
        self,
        sim: "Simulator",
        machine: "Machine",
        interval_ns: float = DEFAULT_INTERVAL_NS,
        series_capacity: int = 512,
        slow_every: int = 4,
        stall_ns: float = DEFAULT_STALL_NS,
        log: Optional[DiagnosticLog] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.network = machine.network
        self.log = log if log is not None else DiagnosticLog()
        self.sampler = TimeSeriesSampler(
            interval_ns=interval_ns,
            capacity=series_capacity,
            slow_every=slow_every,
        )
        self.watchdogs = InvariantWatchdogs(
            machine, self.log, stall_ns=stall_ns, queue_limit=queue_limit
        )
        self._finalized = False
        self._register_probes()
        self._prev_hook = sim.set_monitor_hook(self._tick, due=sim.now)

    # -- probe registration --------------------------------------------------
    def _register_probes(self) -> None:
        net = self.network
        sim = self.sim
        probe = self.sampler.probe

        # Fast cadence: machine-wide aggregates, O(1) or one short sweep.
        probe("net.packets_in_flight", lambda: float(net.packets_in_flight))
        probe("net.packets_injected", lambda: float(net.packets_injected))
        probe("net.packets_delivered", lambda: float(net.packets_delivered))
        probe("net.link_traversals", lambda: float(net.link_traversals))
        probe("engine.pending_events", lambda: float(sim.pending))
        probe("engine.events_executed", lambda: float(sim.events_executed))

        fifos = [slc.fifo for node in self.machine for slc in node.slices]
        probe(
            "fifo.total_occupancy",
            lambda: float(sum(f.occupancy for f in fifos)),
        )
        probe(
            "fifo.max_occupancy",
            lambda: float(max(f.occupancy for f in fifos)) if fifos else 0.0,
        )

        # Slow (decimated) cadence: two series per link direction —
        # 6 directions x N nodes, the part that scales with the machine.
        # Touching network.link() here materializes every direction up
        # front (link construction is passive), so the report covers the
        # full torus even for directions that never carry a packet.
        torus = self.machine.torus
        for coord in torus.nodes():
            rank = torus.rank(coord)
            for dim in ("x", "y", "z"):
                for sign in (1, -1):
                    link = net.link(coord, dim, sign)
                    tag = f"link.n{rank:03d}.{dim}{'+' if sign > 0 else '-'}"
                    probe(f"{tag}.busy_ns", lambda ln=link: ln.busy_ns, slow=True)
                    probe(
                        f"{tag}.queue",
                        lambda ln=link: float(ln.queue_length),
                        slow=True,
                    )

    # -- live operation ------------------------------------------------------
    def _tick(self, now: float) -> float:
        """One monitoring tick: sample, then check invariants.

        Runs from the simulator's run loop; returns the next due time.
        The per-client sweeps (sync counters, FIFOs) follow the
        sampler's decimated cadence, the O(1) counter checks run every
        tick.
        """
        self.sampler.sample(now)
        wd = self.watchdogs
        wd.check_packet_conservation(now)
        wd.check_stall(now)
        wd.check_faults(now)
        ticks = self.sampler.ticks - 1
        if ticks % self.sampler.slow_every == 0:
            wd.check_sync_counters(now)
            wd.check_fifo_bounds(now)
            # Queue peaks are monotone watermarks, so a violation can
            # never slip between checks — scan on a sparser cadence
            # than the other slow sweeps to keep always-on monitoring
            # within its overhead budget (finalize rescans anyway).
            if ticks % (self.sampler.slow_every * 8) == 0:
                wd.check_queue_growth(now)
        return now + self.sampler.interval_ns

    # -- verdict -------------------------------------------------------------
    def finalize(self) -> HealthVerdict:
        """Run quiescence checks, detach from the simulator, and return
        the verdict.  Idempotent."""
        if not self._finalized:
            self._finalized = True
            now = self.sim.now
            self.sampler.sample(now)  # end-of-run snapshot
            wd = self.watchdogs
            wd.check_packet_conservation(now, final=True)
            wd.check_sync_counters(now, final=True)
            wd.check_fifo_bounds(now, final=True)
            wd.check_stall(now, final=True)
            wd.check_queue_growth(now, final=True)
            wd.check_faults(now, final=True)
            self.sim.set_monitor_hook(self._prev_hook)
        return self.verdict()

    def _telemetry_loss_check(self) -> CheckResult:
        lost = []
        if self.sampler.dropped_samples:
            lost.append(f"{self.sampler.dropped_samples} ring-buffer samples")
        if self.log.dropped:
            lost.append(f"{self.log.dropped} diagnostics")
        if not lost:
            return CheckResult("telemetry_loss", "ok", "nothing dropped")
        return CheckResult(
            "telemetry_loss",
            "warning",
            "bounded buffers evicted " + ", ".join(lost),
        )

    def verdict(self) -> HealthVerdict:
        """Current judgement (worst state of every invariant so far,
        plus the telemetry-loss accounting)."""
        net = self.network
        checks = self.watchdogs.results()
        checks.append(self._telemetry_loss_check())
        peaks: dict[str, int] = {}
        for link in net.links():
            tag = link.direction
            if link.peak_queue_length > peaks.get(tag, 0):
                peaks[tag] = link.peak_queue_length
        return HealthVerdict(
            checks=checks,
            sim_time_ns=self.sim.now,
            packets_injected=net.packets_injected,
            packets_delivered=net.packets_delivered,
            packets_in_flight=net.packets_in_flight,
            samples_recorded=self.sampler.samples_recorded,
            dropped_samples=self.sampler.dropped_samples,
            dropped_diagnostics=self.log.dropped,
            diagnostic_counts=dict(self.log.counts),
            peak_queue_by_direction=peaks,
        )


# ---------------------------------------------------------------------------
# Ambient attachment
# ---------------------------------------------------------------------------


class MonitorSession:
    """Collects monitors for every machine built while active."""

    def __init__(self, **monitor_kwargs) -> None:
        self.monitor_kwargs = monitor_kwargs
        self.monitors: list[HealthMonitor] = []

    def attach(self, sim, machine) -> HealthMonitor:
        monitor = HealthMonitor(sim, machine, **self.monitor_kwargs)
        self.monitors.append(monitor)
        return monitor

    @property
    def monitor(self) -> HealthMonitor:
        """The single attached monitor (typical case)."""
        if len(self.monitors) != 1:
            raise ValueError(
                f"session has {len(self.monitors)} monitors, expected exactly 1"
            )
        return self.monitors[0]

    def finalize(self) -> list[HealthVerdict]:
        return [m.finalize() for m in self.monitors]


def use_monitoring(**monitor_kwargs) -> ContextManager[MonitorSession]:
    """Monitor every machine built inside the ``with`` block.

    The session fills the ``monitor`` slot of :mod:`repro.instruments`,
    which :func:`~repro.asic.node.build_machine` reads.  Keyword
    arguments are forwarded to :class:`HealthMonitor` (``interval_ns``,
    ``series_capacity``, ``slow_every``, ``stall_ns``, ``log``,
    ``queue_limit``).
    """
    return instruments.use(monitor=MonitorSession(**monitor_kwargs))
