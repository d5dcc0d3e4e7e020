"""Accumulation memories (§II, §III.A).

Each ASIC includes two accumulation memories used to sum forces and
charges.  They cannot send packets, but accept a special accumulation
packet that **adds** its payload (in 4-byte quantities) to the value
currently stored at the targeted address.  Their synchronization
counters are polled by processing slices on the same node across the
on-chip network (higher polling latency than a slice-local poll).

The model keeps real numerical state: each address holds a float or a
numpy array, and arriving accumulation packets add their payload
value.  Integration tests use this to check that force accumulation
over the network is *numerically* identical to a serial reduction
(up to floating-point associativity, which we sidestep by comparing
with a tolerance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.asic.client import NetworkClient
from repro.network.packet import Packet
from repro.topology.torus import NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.network import Network


class AccumulationMemory(NetworkClient):
    """One accumulation memory: write-accumulate storage + counters."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node: "NodeCoord | int",
        index: int,
    ) -> None:
        if index not in (0, 1):
            raise ValueError(f"accumulation memory index must be 0 or 1, got {index}")
        super().__init__(sim, network, node, f"accum{index}")
        self.index = index
        self._values: dict[Any, Any] = {}
        self.accum_packets = 0

    # -- storage -----------------------------------------------------------
    def value(self, address: Any) -> Any:
        """Current accumulated value at ``address`` (0.0 if untouched)."""
        return self._values.get(address, 0.0)

    def clear(self, address: Optional[Any] = None) -> None:
        """Zero one address, or the whole memory when ``address`` is None.

        Software clears accumulation regions between time-step phases;
        the cost of doing so is part of the compute model, not charged
        here.
        """
        if address is None:
            self._values.clear()
        else:
            self._values.pop(address, None)

    def addresses(self) -> list[Any]:
        return list(self._values)

    # -- delivery -------------------------------------------------------------
    def _receive_accum(self, packet: Packet) -> None:
        self.accum_packets += 1
        if packet.address is None:
            raise ValueError("accumulation packet without a target address")
        payload = packet.payload
        if payload is not None:
            if isinstance(payload, list):
                # A packed packet: a run of (key, quantity) pairs, each
                # accumulated at its own fine-grained address — how the
                # hardware adds a payload "in 4-byte quantities" across
                # an address range (§III.A).
                for key, quantity in payload:
                    self._accumulate(("item", key), quantity)
            else:
                self._accumulate(packet.address, payload)
        counter_id = packet.counter_id
        if counter_id is not None:
            (self._counters.get(counter_id)
             or self.counter(counter_id)).increment()

    def _accumulate(self, address: Any, payload: Any) -> None:
        # Scalars are summed without numpy, so a run that accumulates
        # only floats never loads it; an array payload's caller has.
        current = self._values.get(address)
        if current is None and isinstance(payload, (int, float)):
            self._values[address] = float(payload)
        elif isinstance(current, float):
            self._values[address] = current + float(payload)
        else:
            import numpy as np

            if current is not None:
                np.add(current, payload, out=current)
            elif isinstance(payload, np.ndarray):
                self._values[address] = payload.astype(np.float64, copy=True)
            else:
                self._values[address] = float(payload)

    def _receive_fifo(self, packet: Packet) -> None:
        raise TypeError("accumulation memories have no message FIFO")
