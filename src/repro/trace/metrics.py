"""A lightweight metrics registry: counters, gauges, and ns-scale
latency histograms with percentile queries.

Anton's follow-up network paper (Shim et al., arXiv:2201.08357)
justifies design choices with per-channel counters and utilization
telemetry; production training/inference stacks expose the same three
primitives.  This module provides them for the simulated machine:

* :class:`Counter` — a monotonically increasing count (packets
  injected, all-reduce runs, …);
* :class:`Gauge` — a value that moves both ways, with high/low
  watermarks (FIFO depth, outstanding packets);
* :class:`Histogram` — a distribution of observations with exact
  percentile queries (p50/p90/p99 end-to-end packet latency,
  per-hop queue wait).

A :class:`MetricsRegistry` names and owns the metrics.  It is passed
explicitly or installed as the ambient registry with
:func:`use_registry`, so that instrumented subsystems (the network
flight recorder, the collectives, the migration protocol) find it
without parameter threading.

All of this is pull-based bookkeeping on plain Python numbers: no
clocks are read, no events are scheduled, and recording never perturbs
simulated time — two runs with and without metrics produce identical
simulation results.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import ContextManager, Iterable, Iterator, Optional, Union

from repro import instruments
from repro.trace.sketch import QuantileSketch


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter; negative increments are rejected."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; cannot inc({amount})"
            )
        self._value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self._value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A value that can move both ways, with high/low watermarks."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._hi = -math.inf
        self._lo = math.inf

    @property
    def value(self) -> float:
        return self._value

    @property
    def high_watermark(self) -> float:
        """Highest value ever set (``-inf`` before the first set)."""
        return self._hi

    @property
    def low_watermark(self) -> float:
        """Lowest value ever set (``inf`` before the first set)."""
        return self._lo

    def set(self, value: float) -> None:
        self._value = value
        if value > self._hi:
            self._hi = value
        if value < self._lo:
            self._lo = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    def snapshot(self) -> dict:
        out = {"type": self.kind, "value": self._value}
        if self._hi >= self._lo:  # at least one set() happened
            out["high_watermark"] = self._hi
            out["low_watermark"] = self._lo
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """An exact-value distribution with percentile queries.

    Observations are kept verbatim (simulation scale makes this cheap:
    even a full MD step observes at most a few hundred thousand
    latencies) and sorted lazily on the first percentile query after an
    observation, so the common record-everything-then-report pattern
    sorts once.  Likewise a retained value is folded into the count,
    the compensated sum and the extremes on the first read of one, in
    observation order, so :meth:`observe` only appends.

    ``max_samples`` bounds memory for always-on monitoring: once more
    than ``max_samples`` values have been observed, the histogram
    **falls back to a streaming sketch** — the retained values are
    replayed into a :class:`~repro.trace.sketch.QuantileSketch`, the
    stored list degrades to a uniform reservoir (Vitter's algorithm R
    with a fixed seed, so runs stay deterministic), and every
    percentile query is answered by the sketch with its documented
    relative-accuracy guarantee (1% by default) instead of exactly.
    ``count``/``sum``/``mean``/``min``/``max`` remain exact in both
    regimes.  The default (``max_samples=None``) keeps the historical
    keep-everything behaviour.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        max_samples: Optional[int] = None,
    ) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.help = help
        self.max_samples = max_samples
        self._values: list[float] = []
        self._sorted: Optional[list[float]] = None
        #: The exact statistics cover the retained values before this
        #: index; the rest are folded in on the next read of one.
        self._folded = 0
        self._sum = 0.0
        self._sum_c = 0.0  # Neumaier compensation: survives cancellation
        self._seen = 0
        self._min = math.inf
        self._max = -math.inf
        #: The streaming fallback; ``None`` until the cap is exceeded.
        self.sketch: Optional[QuantileSketch] = None
        self._reservoir_rng: Optional[random.Random] = None

    @property
    def overflowed(self) -> bool:
        """True once the cap was exceeded and percentiles are sketch
        estimates rather than exact."""
        return self.sketch is not None

    def observe(self, value: float) -> None:
        if self.sketch is None:
            cap = self.max_samples
            if cap is None or len(self._values) < cap:
                self._values.append(value)
                self._sorted = None
                return
            # First overflow: replay the exact values into the sketch,
            # then keep the list only as a reservoir.
            self._settle()
            self.sketch = QuantileSketch(name=self.name)
            for v in self._values:
                self.sketch.observe(v)
            self._reservoir_rng = random.Random(0x5EED)
        self._fold((value,))
        self.sketch.observe(value)
        slot = self._reservoir_rng.randrange(self._seen)  # type: ignore[union-attr]
        if slot < self.max_samples:  # type: ignore[operator]
            self._values[slot] = value
            self._sorted = None

    def _settle(self) -> None:
        """Fold the retained values not folded yet into the exact
        statistics."""
        values = self._values
        if self._folded < len(values):
            self._fold(islice(values, self._folded, None))
            self._folded = len(values)

    def _fold(self, values: Iterable[float]) -> None:
        """Add ``values``, in order, to the count, the compensated sum
        and the extremes."""
        seen, total, comp = self._seen, self._sum, self._sum_c
        lo, hi = self._min, self._max
        for value in values:
            seen += 1
            t = total + value
            if abs(total) >= abs(value):
                comp += (total - t) + value
            else:
                comp += (value - t) + total
            total = t
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self._seen, self._sum, self._sum_c = seen, total, comp
        self._min, self._max = lo, hi

    def values(self) -> list[float]:
        """Retained observations: every one until the cap is exceeded,
        a uniform reservoir afterwards (check :attr:`overflowed`)."""
        return list(self._values)

    @property
    def count(self) -> int:
        self._settle()
        return self._seen

    @property
    def sum(self) -> float:
        self._settle()
        return self._sum + self._sum_c

    @property
    def mean(self) -> float:
        return self.sum / self._seen if self.count else 0.0

    @property
    def min(self) -> float:
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self._min

    @property
    def max(self) -> float:
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self._max

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100].

        Exact until ``max_samples`` is exceeded; a sketch estimate
        (relative error ≤ 1%) afterwards.  Raises :class:`ValueError`
        on an empty histogram — an absent distribution has no
        percentiles, and silently returning 0 has masked real bugs in
        enough telemetry stacks to be worth the explicit failure.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.sketch is not None:
            return self.sketch.percentile(p)
        self._ensure_sorted()
        values = self._sorted
        assert values is not None
        rank = math.ceil(p / 100.0 * len(values))
        return values[max(0, rank - 1)]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def _ensure_sorted(self) -> None:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} has no observations")
        if self._sorted is None:
            self._sorted = sorted(self._values)

    def snapshot(self) -> dict:
        if not self.count:
            return {"type": self.kind, "count": 0}
        out = {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }
        if self.sketch is not None:
            out["estimated"] = True
            out["relative_accuracy"] = self.sketch.relative_accuracy
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


Metric = Union[Counter, Gauge, Histogram, QuantileSketch]


class MetricsRegistry:
    """Named metrics for one run.

    Metrics are created on first use (``registry.counter("x").inc()``),
    mirroring how :class:`~repro.asic.client.NetworkClient` creates
    synchronization counters lazily.  Asking for an existing name with
    a different metric type is an error — the registry is the single
    source of truth for what a name means.
    """

    def __init__(self, histogram_max_samples: Optional[int] = None) -> None:
        #: Cap applied to histograms created through this registry;
        #: ``None`` keeps them exact (the historical behaviour).  The
        #: monitoring harness sets this so always-on runs are bounded.
        self.histogram_max_samples = histogram_max_samples
        self._metrics: dict[str, Metric] = {}

    # -- creation / lookup -------------------------------------------------
    def _get_or_create(self, cls: type, name: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"  # type: ignore[attr-defined]
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(
                name, help, max_samples=self.histogram_max_samples
            )
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a histogram"
            )
        return metric

    def sketch(self, name: str, help: str = "") -> QuantileSketch:
        """A streaming percentile sketch registered alongside the
        exact metric types (bounded memory, 1% relative accuracy)."""
        return self._get_or_create(QuantileSketch, name, help)  # type: ignore[return-value]

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._metrics[name]

    def clear(self) -> None:
        self._metrics.clear()

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Plain-data dump of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def summary(self, title: str = "Metrics") -> str:
        """Text rendering of the registry, one row per metric."""
        # Local import: repro.analysis pulls in the asic/network stack,
        # which itself imports repro.trace — keep the package cycle-free.
        from repro.analysis.report import render_table

        rows = []
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                rows.append([name, "counter", m.value, "", "", ""])
            elif isinstance(m, Gauge):
                hi = m.high_watermark if m.high_watermark != -math.inf else ""
                rows.append([name, "gauge", m.value, "", "", hi])
            else:
                kind = m.kind
                if isinstance(m, Histogram) and m.overflowed:
                    kind = "histogram~"  # sketch-estimated percentiles
                if m.count == 0:
                    rows.append([name, kind, 0, "", "", ""])
                else:
                    rows.append(
                        [name, kind, m.count, m.p50, m.p90, m.p99]
                    )
        return render_table(
            title,
            ["metric", "type", "value/count", "p50", "p90", "p99"],
            rows,
        )


# ---------------------------------------------------------------------------
# Ambient registry
# ---------------------------------------------------------------------------


def use_registry(registry: MetricsRegistry) -> ContextManager[MetricsRegistry]:
    """Install ``registry`` in the ``registry`` slot of
    :mod:`repro.instruments` for the block: the comm collectives,
    migration and the CLI's --metrics flag report into it."""
    return instruments.use(registry=registry)
