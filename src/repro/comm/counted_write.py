"""The counted-remote-write gather abstraction (§III.B, Fig. 4).

When one or more network clients must send a predetermined number of
related packets to a single target client, space for these packets is
pre-allocated within the target's local memory.  The sources write
their data directly to the target memory, labelling all write packets
with the same synchronization-counter identifier; the target polls the
counter to learn when everything has arrived.  The operation is
logically a gather (a set of remote reads) but requires no explicit
synchronization between sources and target.

:class:`CountedGather` packages the bookkeeping the MD software layers
repeat constantly: buffer allocation, per-source slot assignment, the
expected-count contract, and the send and poll continuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.asic.client import NetworkClient
from repro.asic.slice_ import ProcessingSlice, Steps, write_step
from repro.topology.torus import NodeCoord


@dataclass(frozen=True)
class GatherSource:
    """One source's contribution to a counted gather."""

    node: NodeCoord
    client: str
    packets: int

    def __post_init__(self) -> None:
        if self.packets < 1:
            raise ValueError(f"a source must contribute >= 1 packet, got {self.packets}")


class CountedGather:
    """A fixed counted-remote-write gather into one target client.

    Parameters
    ----------
    target:
        The receiving client; a buffer named ``name`` with one slot per
        expected packet is pre-allocated in its local memory.
    name:
        Buffer and counter identifier, agreed by all parties.
    sources:
        The fixed set of contributing sources with their fixed packet
        counts (§IV.A: both the pattern and the number of packets are
        fixed before communication starts).
    """

    def __init__(
        self,
        target: NetworkClient,
        name: str,
        sources: Sequence[GatherSource],
    ) -> None:
        if not sources:
            raise ValueError("a gather needs at least one source")
        self.target = target
        self.name = name
        self.sources = tuple(sources)
        self.expected = sum(s.packets for s in self.sources)
        self.buffer = target.memory.allocate(name, self.expected)
        # Deterministic slot layout: sources own contiguous slot ranges
        # in declaration order, so every sender can compute its target
        # addresses with no coordination at run time.
        self._slots: dict[tuple[NodeCoord, str], tuple[int, int]] = {}
        base = 0
        for s in self.sources:
            key = (s.node, s.client)
            if key in self._slots:
                raise ValueError(f"duplicate source {key} in gather {name!r}")
            self._slots[key] = (base, s.packets)
            base += s.packets

    # -- sender side -------------------------------------------------------
    def _source(self, node: NodeCoord, client: str) -> tuple[int, int]:
        """A source's first slot and declared packet count."""
        found = self._slots.get((node, client))
        if found is None:
            raise KeyError(f"{node}:{client} is not a source of gather {self.name!r}")
        return found

    def slot(self, source_node: "NodeCoord | int", source_client: str, index: int) -> int:
        """The pre-agreed buffer slot for a source's ``index``-th packet."""
        node = self.target.network.torus.coord(source_node)
        base, packets = self._source(node, source_client)
        if not 0 <= index < packets:
            raise IndexError(
                f"source {node}:{source_client} declared {packets} packets; "
                f"index {index} out of range"
            )
        return base + index

    def send_from(
        self,
        sender: ProcessingSlice,
        payloads: Sequence[Any],
        fn: Optional[Callable[..., None]] = None,
        args: tuple[Any, ...] = (),
        payload_bytes: Optional[int] = None,
    ) -> None:
        """Send this source's packets back to back, then run
        ``fn(*args)``.

        ``payloads`` must match the source's declared packet count —
        the fixed-count contract is enforced, because violating it
        would hang the receiver's poll forever on real hardware.
        """
        base, declared = self._source(sender.node, sender.name)
        if len(payloads) != declared:
            raise ValueError(
                f"source {sender.node}:{sender.name} declared {declared} packets "
                f"for gather {self.name!r} but is sending {len(payloads)}"
            )
        target = self.target
        Steps(sender, [
            write_step(target.node, target.name, counter_id=self.name,
                       address=(self.name, base + i), payload=payload,
                       payload_bytes=payload_bytes)
            for i, payload in enumerate(payloads)
        ], fn, args).start()

    # -- receiver side --------------------------------------------------------
    def wait(self, poller: ProcessingSlice, fn: Callable[..., None],
             args: tuple[Any, ...] = ()) -> None:
        """Receiver side: poll until the expected count, pay the poll
        cost, then run ``fn(*args)``."""
        if poller is self.target:
            poller.poll_then(self.name, self.expected, fn, args)
        else:
            # Accumulation-memory counters are polled by a slice on the
            # same node across the on-chip ring.
            poller.poll_accum_then(self.target, self.name, self.expected, fn, args)

    def gathered(self) -> list[Any]:
        """All written payloads in slot order (post-completion helper)."""
        return self.buffer.filled()

    def reset(self) -> None:
        """Reuse the gather for the next phase: clear slots + counter."""
        self.buffer.clear()
        self.target.counter(self.name).reset()
