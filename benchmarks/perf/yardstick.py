"""A fixed pure-Python workload that measures how fast the host is now.

The benchmark shares its machine with other tenants, so the same op can
take up to twice as long in one minute as in the next.  A bare run thus
runs this yardstick *during* its ops — a :class:`Probe` interrupts the
op every ``PERIOD_S`` of CPU time and runs it once — and rescales each
slice of the op by the run that ended it: an op's reported time is its
own CPU time (the probe's runs taken out) multiplied by
``REFERENCE_NS`` over the harmonic mean of the runs during the op,
i.e. the op's time on a host where one yardstick run always takes
``REFERENCE_NS``.  The yardstick uses nothing from the reproduction,
so a change to the reproduction cannot move it.

One run is a walk of dependent loads through an 8 MiB table, bound by
memory latency, then a small packet simulation on a 6×6×6 torus (a
heap of events, tuple keys, per-link busy times), bound by the
interpreter like the simulator's own loop.  Contention slows the two
halves by different amounts, and the workloads, whose heaps run from
50 to 100 MB, differ in which half they follow; the mix is a
compromise (``CHASE_STEPS``).  It is GC-neutral: it runs with the
collector off and frees everything it allocates, so it leaves the
allocation count that schedules the workload's collections where it
was.

Times are thread CPU times: the process-wide CPU clock only advances
once per scheduler tick while a CPU timer is armed.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
from array import array
from time import thread_time_ns

#: CPU ns of one run on the host the baseline was measured on (a 2-vCPU
#: 2.0 GHz Xeon, Python 3.11) in its quiet spells: the speed reported
#: times are scaled to.
REFERENCE_NS = 1_900_000

#: CPU seconds between two probe runs during an op (about 7% overhead).
PERIOD_S = 0.025

#: An op shorter than this many probe periods is rescaled by the last
#: ``WINDOW`` runs, some taken before it began.
WINDOW = 5

K = 6
PACKETS = 200
CHASE_ENTRIES = 1 << 20
#: About 30% of a run.  Timing both halves in the same processes on a
#: host whose speed swung by 1.6×, ``incast`` rescaled best with no
#: walk and ``mdstep`` and ``xray`` with 25-50% of it.
CHASE_STEPS = 3500
#: Runs discarded at construction: the first few are slow while the
#: interpreter specialises the loop.
WARMUP_RUNS = 20


def _lcg_cycle(n: int) -> array:
    """``table[i] == (5 * i + 1) % n``.  For ``n`` a power of two this
    full-period LCG is one cycle through all ``n`` entries, in an order
    no prefetcher can follow.  Built from five ranges, one per wrap, so
    no list of ``n`` ints is ever held (it would show in peak RSS)."""
    table = array("q")
    start = 0
    for wrap in range(5):
        stop = ((wrap + 1) * n + 3) // 5  # first i with 5i + 1 >= (wrap + 1) n
        table.extend(range(5 * start + 1 - wrap * n, 5 * stop + 1 - wrap * n, 5))
        start = stop
    return table


class Yardstick:
    def __init__(self) -> None:
        self.nodes = [
            (x, y, z) for x in range(K) for y in range(K) for z in range(K)
        ]
        self.busy = array("q", bytes(8 * len(self.nodes) * 6))
        self.chase = _lcg_cycle(CHASE_ENTRIES)
        self.state = 12345
        self.cursor = 0
        for _ in range(WARMUP_RUNS):
            self.sample()

    def sample(self) -> int:
        """CPU ns of one run."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = thread_time_ns()
            delivered = self._run()
            elapsed = thread_time_ns() - t0
        finally:
            if enabled:
                gc.enable()
        if delivered != PACKETS:
            raise AssertionError(f"yardstick delivered {delivered}")
        return elapsed

    def _run(self) -> int:
        chase = self.chase
        i = self.cursor
        for _ in range(CHASE_STEPS):
            i = chase[i]
        self.cursor = i
        nodes, busy = self.nodes, self.busy
        x = self.state
        events = []
        for seq in range(PACKETS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            src = nodes[x % len(nodes)]
            dst = nodes[(x >> 8) % len(nodes)]
            events.append((seq, seq, [dst, 32 + (x & 255)], src))
        heapq.heapify(events)
        seq = PACKETS
        delivered = 0
        while events:
            t, _seq, packet, at = heapq.heappop(events)
            dst = packet[0]
            if at == dst:
                delivered += 1
                continue
            dim = 0 if at[0] != dst[0] else 1 if at[1] != dst[1] else 2
            up = (dst[dim] - at[dim]) % K <= K // 2
            link = ((at[0] * K + at[1]) * K + at[2]) * 6 + dim * 2 + up
            done = max(busy[link], t) + packet[1] // 16 + 1
            busy[link] = done
            nxt = list(at)
            nxt[dim] = (at[dim] + (1 if up else -1)) % K
            heapq.heappush(events, (done + 5, seq, packet, tuple(nxt)))
            seq += 1
        self.state = x
        return delivered


class Probe:
    """Runs the yardstick every ``PERIOD_S`` of CPU time while entered.

    ``samples`` holds each run's CPU ns; ``spent_ns`` is the CPU the
    probe has taken in all, its construction and handler included, for
    the code it interrupts to subtract.
    """

    def __init__(self) -> None:
        t0 = thread_time_ns()
        self.yardstick = Yardstick()
        self.samples = [self.yardstick.sample() for _ in range(WINDOW)]
        self.spent_ns = thread_time_ns() - t0
        self._old_handler = None

    def __enter__(self) -> "Probe":
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)

    def _tick(self, signum, frame) -> None:
        t0 = thread_time_ns()
        self.samples.append(self.yardstick.sample())
        self.spent_ns += thread_time_ns() - t0

    def mark(self) -> tuple[int, int]:
        return len(self.samples), self.spent_ns

    def since(self, mark: tuple[int, int]) -> tuple[float, int]:
        """(yardstick ns, probe CPU ns) since ``mark``.

        The yardstick ns is the harmonic mean of the runs: each run
        stands for one equal ``PERIOD_S`` slice of the op, so rescaling
        every slice by its own run and adding them up is the same as
        rescaling the whole op by that mean.  A burst of contention
        during part of an op thus counts for the part it lasted.
        """
        first, spent = mark
        window = self.samples[min(first, len(self.samples) - WINDOW):]
        return statistics.harmonic_mean(window), self.spent_ns - spent
