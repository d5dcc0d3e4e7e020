"""The hardware-managed message FIFO (§III.C).

Each processing slice contains a circular FIFO within its local memory
that can receive arbitrary network messages — the escape hatch for
communication that cannot be formulated as counted remote writes
(migration is the one large consumer, §IV.B.5).  The Tensilica core
polls the tail pointer to detect new messages and advances the head
pointer as messages are consumed.  If the FIFO fills, backpressure is
exerted into the network; software must keep draining to avoid
deadlock.

The model keeps an explicit ring of ``capacity`` entries.  When a packet
arrives at a full FIFO it is parked on a network-side overflow queue and
a backpressure stall is recorded; parked packets enter the ring as
space frees.  (We account the stall rather than propagating it link by
link — the paper's software is engineered so the FIFO never fills in
steady state, and the tests assert our workloads keep it that way.)

Software waits on the tail pointer through one continuation slot, as on
a counter: ``on_message(fn, args)`` hands the next message to ``fn``
inside the event of the ``push`` that brings it, scheduling nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.network.packet import Packet

DEFAULT_FIFO_CAPACITY = 64


class MessageFifo:
    """Circular message FIFO with tail-pointer polling semantics."""

    def __init__(
        self, capacity: int = DEFAULT_FIFO_CAPACITY, name: str = ""
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._ring: deque[Packet] = deque()
        self._overflow: deque[Packet] = deque()
        #: The continuation slot: ``(fn, args)``, ``None`` while empty.
        self._then: Optional[tuple[Callable[..., None], tuple]] = None
        self.total_received = 0
        self.total_consumed = 0
        self.backpressure_stalls = 0
        self.high_watermark = 0

    @property
    def occupancy(self) -> int:
        """Messages currently between head and tail pointers."""
        return len(self._ring)

    @property
    def is_full(self) -> bool:
        return len(self._ring) >= self.capacity

    @property
    def overflow_occupancy(self) -> int:
        """Packets parked on the network-side overflow queue (depth
        probe: nonzero means backpressure is being exerted right now)."""
        return len(self._overflow)

    # -- network side -------------------------------------------------------
    def push(self, packet: Packet) -> None:
        """A message packet arrives from the network."""
        self.total_received += 1
        then = self._then
        if then is not None:
            # Software waits on the tail pointer, so the ring is empty.
            self.total_consumed += 1
            self._then = None
            then[0](*then[1], packet)
            return
        if self.is_full:
            self.backpressure_stalls += 1
            self._overflow.append(packet)
            return
        self._ring.append(packet)
        self.high_watermark = max(self.high_watermark, len(self._ring))

    # -- software side --------------------------------------------------------
    def on_message(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Run ``fn(*args, packet)`` with the next message, inside the
        event of the :meth:`push` that brings it, or at once if the ring
        holds one.  Filling the one slot while it is full raises.  The
        polling core charges its own ``FIFO_POLL_NS`` and
        ``FIFO_PROCESS_NS``; this only models availability."""
        if self._then is not None:
            raise RuntimeError(f"FIFO {self.name!r} already continues")
        pkt = self.try_poll()
        if pkt is not None:
            fn(*args, pkt)
        else:
            self._then = (fn, args)

    def clear_slot(self) -> bool:
        """Empty the continuation slot; returns whether it was full.
        For software that stops waiting on the tail pointer for another
        reason (the migration flush counter reached its target): a
        forgotten slot would swallow the next message."""
        full = self._then is not None
        self._then = None
        return full

    def try_poll(self) -> Optional[Packet]:
        """Non-blocking poll: next message or ``None`` if empty."""
        if not self._ring:
            return None
        pkt = self._ring.popleft()
        self.total_consumed += 1
        # Head advanced: admit one parked packet, if any.
        if self._overflow:
            self._ring.append(self._overflow.popleft())
            self.high_watermark = max(self.high_watermark, len(self._ring))
        return pkt

    def __len__(self) -> int:
        return len(self._ring) + len(self._overflow)
