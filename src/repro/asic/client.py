"""Base class for network clients (Fig. 3).

Three distinct types of clients connect to the Anton network: the HTIS
units, the accumulation memories, and the processing slices.  Every
client contains a local memory that directly accepts write packets
issued by other clients, and a set of synchronization counters
(§III.B).  This base class implements the shared delivery semantics:

* a **write** packet updates the local memory at its target address,
  then increments its labelled synchronization counter;
* an **accum** packet is rejected (only accumulation memories accept
  them — they override :meth:`_receive_accum`);
* a **fifo** packet is rejected (only processing slices carry a
  hardware message FIFO).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Optional

from repro.asic.memory import LocalMemory
from repro.asic.sync_counter import SyncCounter
from repro.network.packet import Packet, PacketKind
from repro.topology.torus import NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.network import Network

# Aliases: on CPython 3.11 a global reads in ~13 ns, PacketKind.X in ~157.
_WRITE, _ACCUM = PacketKind.WRITE, PacketKind.ACCUM
_FIFO = PacketKind.FIFO


class NetworkClient:
    """A network client with local memory and synchronization counters."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node: "NodeCoord | int",
        name: str,
    ) -> None:
        self.sim = sim
        # Weak, so a machine is no reference cycle: the machine owns
        # the network, the network holds its clients, and a dropped
        # machine is freed by reference counting.
        self.network = weakref.proxy(network)
        self.node = network.torus.coord(node)
        self.name = name
        self.memory = LocalMemory(owner_name=f"{self.node}:{name}")
        self._counters: dict[str, SyncCounter] = {}
        self.packets_received = 0
        self.packets_sent = 0
        network.attach(self)

    # -- counters ------------------------------------------------------------
    def counter(self, counter_id: str) -> SyncCounter:
        """The named synchronization counter (created on first use).

        Counter identifiers are agreed between senders and this
        receiver when the fixed communication pattern is established
        (§IV.A); creating them lazily keeps that setup code simple.
        """
        c = self._counters.get(counter_id)
        if c is None:
            c = SyncCounter(self.sim, name=f"{self.node}:{self.name}:{counter_id}")
            self._counters[counter_id] = c
        return c

    def counters(self) -> dict[str, SyncCounter]:
        return dict(self._counters)

    # -- delivery (called by the network at arrival time) ---------------------
    def receive(self, packet: Packet) -> None:
        self.packets_received += 1
        kind = packet.kind
        if kind is _WRITE:
            self._receive_write(packet)
        elif kind is _ACCUM:
            self._receive_accum(packet)
        elif kind is _FIFO:
            self._receive_fifo(packet)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unknown packet kind {kind!r}")

    def _receive_write(self, packet: Packet) -> None:
        if packet.address is not None:
            self.memory.write(packet.address, packet.payload)
        counter_id = packet.counter_id
        if counter_id is not None:  # ``counter()`` only to create one
            (self._counters.get(counter_id)
             or self.counter(counter_id)).increment()

    def _receive_accum(self, packet: Packet) -> None:
        raise TypeError(
            f"client {self.name!r} at {self.node} is not an accumulation "
            "memory and cannot accept accumulation packets"
        )

    def _receive_fifo(self, packet: Packet) -> None:
        raise TypeError(
            f"client {self.name!r} at {self.node} has no hardware message "
            "FIFO"
        )

    # -- sending ---------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Hand a fully formed packet to the network (no overhead here;
        subclasses charge their packet-assembly cost first)."""
        if packet.src_node != self.node or packet.src_client != self.name:
            raise ValueError(
                f"packet source {packet.src_node}:{packet.src_client} does "
                f"not match injecting client {self.node}:{self.name}"
            )
        self.packets_sent += 1
        self.network.inject(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r} at {self.node}>"
