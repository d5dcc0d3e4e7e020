"""The engine self-profiler: where do simulated nanoseconds cost real
microseconds?

The ROADMAP's vectorize-the-hot-path refactor needs exactly what the
Anton paper's Table 3 gives its readers — an accounting that *tiles*:
every unit of cost attributed to exactly one row, rows summing to the
total.  :class:`EngineProfiler` provides that for the simulator's own
event loop.  Installed on a :class:`~repro.engine.simulator.Simulator`
(usually ambiently, via :func:`use_profiling`), it accounts every
executed event along three axes:

* **event type** — the generator function (or scheduled callable) that
  ran, e.g. ``_htis_phase`` or ``_next_hop``;
* **component** — the ``repro`` subpackage that owns that code
  (``network``, ``asic``, ``comm``, ``md``, ``engine``, …);
* **phase** — the innermost open profiler phase (``step:long_range``,
  ``allreduce``, …), marked by the same call sites that mark flight-
  recorder phases.

Two profiles come out:

* a **deterministic event-count profile** — pure counts, byte-identical
  across runs of the same spec (usable as a regression artifact in
  tests and CI);
* a **wall-time profile** — integer nanoseconds from
  ``perf_counter_ns``, host-dependent, whose per-component totals tile
  the run loop's measured wall time *exactly*.  Timing is chained (one
  clock read per event), so an event's wall is *dispatch-inclusive*:
  it covers the queue walk, hook dispatch, and profiler bookkeeping that
  delivered it as well as its body.  The residual the loop spends
  outside any event (startup, stop checks, teardown) is surfaced as
  its own ``engine/(scheduler)`` row.

Profiling is a passive wall-clock observer: it reads no simulated
state, schedules nothing, and occupies no queue entry, so a
profiled run is bit-identical to a bare one (property-tested).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Iterator, Optional

from repro import instruments
from repro.engine.process import Process
from repro.engine.simulator import Simulator

#: Phase key used while no profiler phase is open.
IDLE_PHASE = ""

#: How the idle phase renders in exports and tables.
IDLE_PHASE_LABEL = "(run)"

#: Synthetic event-type label for the run-loop residual — wall time
#: the loop spent outside any event's dispatch-inclusive slice
#: (startup, stop checks, teardown).
SCHEDULER_LABEL = "(scheduler)"


class ProfileCell:
    """Accumulator for one (component, event type): per-phase
    ``[count, wall_ns]`` pairs."""

    __slots__ = ("component", "label", "by_phase")

    def __init__(self, component: str, label: str) -> None:
        self.component = component
        self.label = label
        #: phase name -> [count, wall_ns]
        self.by_phase: dict[str, list[int]] = {}

    @property
    def count(self) -> int:
        return sum(rec[0] for rec in self.by_phase.values())

    @property
    def wall_ns(self) -> int:
        return sum(rec[1] for rec in self.by_phase.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProfileCell {self.component}/{self.label} "
            f"n={self.count} wall={self.wall_ns}ns>"
        )


def _component_of_path(filename: str) -> str:
    """Owning component of a source file: the ``repro`` subpackage
    (``.../repro/comm/collectives.py`` → ``comm``), ``repro`` for
    top-level modules, the parent directory name otherwise (tests,
    benchmarks, examples)."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            rest = parts[i + 1 :]
            return rest[0] if len(rest) > 1 else "repro"
    return parts[-2] if len(parts) > 1 and parts[-2] else "other"


def _component_of_module(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro":
        return parts[1] if len(parts) > 1 else "repro"
    return parts[0] or "other"


class EngineProfiler:
    """Low-overhead per-event accounting for the simulator run loop.

    The hot path — inlined in ``Simulator.run`` — is one dict lookup
    on :attr:`rec_cache` (keyed by the event callable's code object)
    plus a single chained ``perf_counter_ns`` read per event.
    Classification work (code object → component/label) happens once
    per distinct call site in :meth:`rec_for`, the cold path that
    primes the cache; phase transitions invalidate it.
    """

    def __init__(self) -> None:
        self._cells: list[ProfileCell] = []
        self._by_code: dict[Any, ProfileCell] = {}
        self._by_name: dict[tuple[str, str], ProfileCell] = {}
        #: Hot-path cache: stable call-site key (code object) → the
        #: ``[count, wall_ns]`` rec for the *current* phase.  Primed by
        #: :meth:`rec_for`, read inline by ``Simulator.run``, cleared
        #: on every phase transition.
        self.rec_cache: dict[Any, list] = {}
        self._phase_stack: list[str] = []
        self._phase: str = IDLE_PHASE
        #: Wall ns the instrumented run loops spent in total (events
        #: plus scheduler overhead), accumulated across every
        #: ``Simulator.run`` call of every attached simulator.
        self.loop_wall_ns: int = 0
        #: Simulators this profiler is attached to, in attach order.
        self.sims: list[Simulator] = []

    # -- attachment --------------------------------------------------------
    def attach(self, sim: Simulator) -> "EngineProfiler":
        """Install on a simulator (idempotent per simulator)."""
        if sim not in self.sims:
            sim.set_profiler(self)
            self.sims.append(sim)
        return self

    def detach_all(self) -> None:
        for sim in self.sims:
            if sim._profiler is self:
                sim.set_profiler(None)

    # -- cold path (called from Simulator.run on a cache miss) -------------
    def rec_for(
        self, fn: Callable, args: tuple, key: Any = None
    ) -> list:
        """The ``[count, wall_ns]`` accumulator for one queue entry in
        the current phase, resolved before the event body runs
        (``_fire`` consumes its ``_proc`` slot and its callbacks).
        ``key`` is the stable call-site key the run loop derived inline
        (or ``None`` when it couldn't); when present, the resolved rec
        is primed into :attr:`rec_cache` so subsequent events from the
        same call site hit the cache instead of this method.

        The class check uses an ``__class__ is`` pointer compare:
        :class:`Process` is not subclassed in this codebase, and a
        subclass would merely fall to the generic callable path
        (correct, just less specific).  The run loop passes no ``key``
        for :meth:`Simulator._fire`: every Timeout delivery is
        classified here, by the process it wakes."""
        obj = getattr(fn, "__self__", None)
        cls = obj.__class__ if obj is not None else None
        if cls is Process:
            code = obj.generator.gi_code
            cell = self._by_code.get(code)
            if cell is None:
                cell = ProfileCell(
                    _component_of_path(code.co_filename), code.co_name
                )
                self._by_code[code] = cell
                self._cells.append(cell)
        elif fn is Simulator._fire:
            # Simulator._fire(event): attribute the timeout delivery
            # to the first waiting process, the code that actually
            # runs inside this event: the one it resumes directly, or
            # else the owner of its first callback.
            code = None
            ev = args[0] if args else None
            waiter = getattr(ev, "_proc", None)
            if waiter is None:
                callbacks = getattr(ev, "callbacks", None)
                if callbacks:
                    waiter = getattr(callbacks[0], "__self__", None)
            if waiter is not None and waiter.__class__ is Process:
                code = waiter.generator.gi_code
            if code is not None:
                cell = self._by_code.get(code)
                if cell is None:
                    cell = ProfileCell(
                        _component_of_path(code.co_filename), code.co_name
                    )
                    self._by_code[code] = cell
                    self._cells.append(cell)
            else:
                cell = self._named_cell("engine", "Timeout")
        else:
            # Plain callables (network hops, HTIS deliveries, ...),
            # scheduled as functions or bound methods: memoize on the
            # underlying function's code object, which is stable, so
            # classification runs once per call site, not once per
            # event.
            func = getattr(fn, "__func__", fn)
            memo = getattr(func, "__code__", func)
            cell = self._by_code.get(memo)
            if cell is None:
                label = getattr(fn, "__qualname__", None) or type(fn).__name__
                module = getattr(fn, "__module__", None) or "other"
                cell = self._named_cell(_component_of_module(module), label)
                self._by_code[memo] = cell
        phase = self._phase
        rec = cell.by_phase.get(phase)
        if rec is None:
            rec = cell.by_phase[phase] = [0, 0]
        if key is not None:
            self.rec_cache[key] = rec
        return rec

    def _named_cell(self, component: str, label: str) -> ProfileCell:
        key = (component, label)
        cell = self._by_name.get(key)
        if cell is None:
            cell = ProfileCell(component, label)
            self._by_name[key] = cell
            self._cells.append(cell)
        return cell

    def account(self, cell: ProfileCell, wall_ns: int) -> None:
        rec = cell.by_phase.get(self._phase)
        if rec is None:
            rec = cell.by_phase[self._phase] = [0, 0]
        rec[0] += 1
        rec[1] += wall_ns

    def account_loop(self, wall_ns: int) -> None:
        """One ``Simulator.run`` loop finished after ``wall_ns``."""
        self.loop_wall_ns += wall_ns

    # -- phases ------------------------------------------------------------
    def phase_begin(self, name: str) -> None:
        """Open a named phase; subsequent events are attributed to it
        until the matching :meth:`phase_end` (phases nest)."""
        self._phase_stack.append(name)
        self._phase = name
        self.rec_cache.clear()  # cached recs belong to the old phase

    def phase_end(self, name: str) -> None:
        """Close the innermost open phase with this name."""
        stack = self._phase_stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                break
        self._phase = stack[-1] if stack else IDLE_PHASE
        self.rec_cache.clear()  # cached recs belong to the old phase

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self.phase_begin(name)
        try:
            yield
        finally:
            self.phase_end(name)

    # -- results -----------------------------------------------------------
    @property
    def events_total(self) -> int:
        """Events the profiler accounted (all cells, all phases)."""
        return sum(cell.count for cell in self._cells)

    @property
    def event_wall_ns(self) -> int:
        """Wall ns attributed to events (dispatch-inclusive slices)."""
        return sum(cell.wall_ns for cell in self._cells)

    @property
    def scheduler_overhead_ns(self) -> int:
        """Run-loop wall time outside any event's dispatch-inclusive
        slice: loop startup, stop checks, teardown."""
        return max(0, self.loop_wall_ns - self.event_wall_ns)

    @property
    def events_per_second(self) -> float:
        if self.loop_wall_ns <= 0:
            return 0.0
        return self.events_total / (self.loop_wall_ns / 1e9)

    def cells(self) -> list[ProfileCell]:
        """All accumulator cells, sorted by descending wall time then
        by identity (deterministic for equal-wall cells, which is what
        the count profile exercises)."""
        return sorted(
            self._cells,
            key=lambda c: (-c.wall_ns, c.component, c.label),
        )

    def phases(self) -> list[str]:
        """Every phase that accounted at least one event, sorted."""
        seen = set()
        for cell in self._cells:
            seen.update(cell.by_phase)
        return sorted(seen)

    def component_totals(
        self, include_overhead: bool = True
    ) -> dict[str, tuple[int, int]]:
        """Per-component ``(events, wall_ns)``.  With
        ``include_overhead`` (the default) the scheduler overhead is
        added to ``engine``, making the totals tile
        :attr:`loop_wall_ns` exactly."""
        totals: dict[str, list[int]] = {}
        for cell in self._cells:
            rec = totals.setdefault(cell.component, [0, 0])
            rec[0] += cell.count
            rec[1] += cell.wall_ns
        if include_overhead:
            rec = totals.setdefault("engine", [0, 0])
            rec[1] += self.scheduler_overhead_ns
        return {
            name: (rec[0], rec[1]) for name, rec in sorted(totals.items())
        }

    def count_profile(self) -> dict:
        """The deterministic profile: event counts per
        ``phase → component → event type``.  Contains no wall-clock
        values, so its canonical JSON is byte-identical across runs of
        the same spec — in any process, on any host."""
        phases: dict[str, dict[str, dict[str, int]]] = {}
        for cell in self._cells:
            for phase, (count, _wall) in cell.by_phase.items():
                comp = phases.setdefault(phase or IDLE_PHASE_LABEL, {})
                comp.setdefault(cell.component, {})[cell.label] = (
                    comp.get(cell.component, {}).get(cell.label, 0) + count
                )
        return {
            "schema": "repro-profile-counts/1",
            "events_total": self.events_total,
            "phases": {
                phase: {
                    comp: dict(sorted(labels.items()))
                    for comp, labels in sorted(comps.items())
                }
                for phase, comps in sorted(phases.items())
            },
        }

    def wall_profile(self) -> dict:
        """The wall-time profile: integer ns per
        ``phase → component → event type`` plus the scheduler-overhead
        row; component totals tile :attr:`loop_wall_ns` exactly."""
        phases: dict[str, dict[str, dict[str, dict]]] = {}
        for cell in self._cells:
            for phase, (count, wall) in cell.by_phase.items():
                comp = phases.setdefault(phase or IDLE_PHASE_LABEL, {})
                node = comp.setdefault(cell.component, {}).setdefault(
                    cell.label, {"events": 0, "wall_ns": 0}
                )
                node["events"] += count
                node["wall_ns"] += wall
        phases.setdefault(IDLE_PHASE_LABEL, {}).setdefault("engine", {})[
            SCHEDULER_LABEL
        ] = {"events": 0, "wall_ns": self.scheduler_overhead_ns}
        return {
            "schema": "repro-profile-wall/1",
            "loop_wall_ns": self.loop_wall_ns,
            "event_wall_ns": self.event_wall_ns,
            "scheduler_overhead_ns": self.scheduler_overhead_ns,
            "events_total": self.events_total,
            "events_per_second": self.events_per_second,
            "component_totals_ns": {
                name: wall
                for name, (_n, wall) in self.component_totals().items()
            },
            "phases": {
                phase: {
                    comp: dict(sorted(labels.items()))
                    for comp, labels in sorted(comps.items())
                }
                for phase, comps in sorted(phases.items())
            },
        }


# ---------------------------------------------------------------------------
# Ambient profiling
# ---------------------------------------------------------------------------


def use_profiling(
    profiler: Optional[EngineProfiler] = None,
) -> ContextManager[EngineProfiler]:
    """Profile every simulator constructed inside the ``with`` block.

    Yields the (possibly caller-supplied) :class:`EngineProfiler`, which
    fills the ``profiler`` slot of :mod:`repro.instruments`; a nested
    block shadows the outer one.
    """
    return instruments.use(
        profiler=profiler if profiler is not None else EngineProfiler()
    )
