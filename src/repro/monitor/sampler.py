"""The time-series sampler: periodic snapshots of live machine state.

Driven by :class:`~repro.monitor.health.HealthMonitor`, whose tick is
the simulator's monitor hook
(:meth:`~repro.engine.simulator.Simulator.set_monitor_hook`, run by the
observed loop body of :meth:`~repro.engine.simulator.Simulator.run`), the
sampler walks its registered probes at every grid time ``k·interval_ns``
of simulated time and appends one ``(t, value)`` sample per probe into
a fixed-capacity :class:`~repro.monitor.series.RingSeries`.  Like a
logic analyzer on its clock, it samples the state the model holds at
``t``: the engine calls the tick between instants, after every event at
or before ``t`` and before any later one.  Probes are
plain callables reading state the simulation already maintains (link
busy time, FIFO occupancy, in-flight packets, event-queue depth) —
sampling never mutates anything, so a sampled run is bit-identical to
an unsampled one.

Two cadences keep overhead bounded on big machines: *fast* probes
(a handful of machine-wide aggregates) run every tick, while *slow*
probes (one or two per link direction — hundreds on a 4×4×4 torus,
thousands on 8×8×8) run every :data:`SLOW_EVERY`-th tick.  Multi-
resolution sampling is the standard production trade: coarse
everywhere, fine where it's cheap.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.monitor.series import RingSeries

#: Default sampling interval in simulated ns.  A range-limited MD step
#: spans ~8 µs, so this yields ~16 samples per step; latency-scale
#: experiments (hundreds of ns) still get a handful of ticks.
DEFAULT_INTERVAL_NS = 500.0

#: Slow probes sample on every ``SLOW_EVERY``-th tick.
SLOW_EVERY = 4


class TimeSeriesSampler:
    """Registered probes plus their ring-buffer series."""

    def __init__(
        self,
        interval_ns: float = DEFAULT_INTERVAL_NS,
        capacity: int = 512,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive, got {interval_ns}")
        self.interval_ns = interval_ns
        self.capacity = capacity
        self.series: dict[str, RingSeries] = {}
        self._fast: list[tuple[RingSeries, Callable[[], float]]] = []
        self._slow: list[tuple[RingSeries, Callable[[], float]]] = []
        #: Ticks taken so far (each tick samples every fast probe).
        self.ticks = 0

    # -- registration --------------------------------------------------------
    def probe(
        self, name: str, fn: Callable[[], float], slow: bool = False
    ) -> RingSeries:
        """Register a probe; returns its backing series.

        ``slow=True`` puts the probe on the decimated cadence (every
        :data:`SLOW_EVERY`-th tick) — use it for per-link probes, whose
        count scales with machine size.
        """
        if name in self.series:
            raise ValueError(f"probe {name!r} already registered")
        series = RingSeries(name, capacity=self.capacity)
        self.series[name] = series
        (self._slow if slow else self._fast).append((series, fn))
        return series

    # -- sampling ------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Take one tick's samples.  Called from the monitor hook."""
        for series, fn in self._fast:
            series.append(now, fn())
        if self.ticks % SLOW_EVERY == 0:
            for series, fn in self._slow:
                series.append(now, fn())
        self.ticks += 1

    # -- accounting ----------------------------------------------------------
    @property
    def dropped_samples(self) -> int:
        """Samples lost to ring-buffer capacity across all series."""
        return sum(s.dropped for s in self.series.values())

    @property
    def samples_recorded(self) -> int:
        """Samples currently retained across all series."""
        return sum(len(s) for s in self.series.values())

    def __iter__(self) -> Iterator[RingSeries]:
        for name in sorted(self.series):
            yield self.series[name]

    def __len__(self) -> int:
        return len(self.series)
