"""Packet formats (§III.A).

Packets carry 32 bytes of header and 0–256 bytes of payload; writes of
up to 8 bytes transport the data in the header itself.  Three packet
kinds exist in the model:

* **write** — a remote write into a client's local memory, labelled
  with a synchronization-counter identifier (counted remote writes,
  §III.B);
* **accum** — an accumulation packet that *adds* its payload, in 4-byte
  quantities, to the value currently stored at the target address
  (accepted only by accumulation memories);
* **fifo** — an arbitrary message delivered to a processing slice's
  hardware-managed circular FIFO (§III.C), used when communication
  cannot be formulated as counted remote writes (migration).

Fixed cost.  Anton keeps a packet's two ends cheap (a 36 ns send, a
42 ns poll), and so does the model's host time.  A :class:`Packet` is
a slotted class whose ``__init__`` draws its id inline and reads its
wire size from a per-size table; the hot constructors call it
positionally.  A birth costs about 0.37 µs on CPython 3.11, where the
keyword-built dataclass with a ``default_factory`` id and a
``__post_init__`` cost 1.1 µs (see :mod:`repro.network.network` for
the delivery's share).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Optional

from repro.constants import (
    HEADER_BYTES,
    INLINE_PAYLOAD_BYTES,
    MAX_PAYLOAD_BYTES,
    TORUS_LINK_EFFECTIVE_GBPS,
)
from repro.topology.torus import NodeCoord

_packet_ids = itertools.count()


class PacketKind(Enum):
    WRITE = "write"
    ACCUM = "accum"
    FIFO = "fifo"


# Aliases: on CPython 3.11 a global reads in ~13 ns, PacketKind.X in ~157.
_WRITE, _ACCUM = PacketKind.WRITE, PacketKind.ACCUM

#: ``(wire_bytes, serialization_ns)`` by payload size: the bytes
#: occupying a link (header + non-inline payload) and the per-link
#: streaming time, computed once per size rather than once per packet.
_WIRE = tuple(
    (wire, wire * 8.0 / TORUS_LINK_EFFECTIVE_GBPS)
    for wire in (HEADER_BYTES if n <= INLINE_PAYLOAD_BYTES else HEADER_BYTES + n
                 for n in range(MAX_PAYLOAD_BYTES + 1))
)


class Packet:
    """A network packet.

    Parameters
    ----------
    src_node, src_client:
        Originating node coordinate and client name.
    dst_node, dst_client:
        Target node and client.  For multicast packets these describe
        the injection point; the actual fan-out comes from the pattern
        table (``pattern_id``).
    payload_bytes:
        Payload size, 0–256.
    payload:
        Optional actual data (a numpy array or any picklable object);
        carried end to end so that integration tests can verify data
        integrity, but never consulted by the network model itself.
    counter_id:
        Synchronization counter to increment at the receiver (write and
        accum packets).
    address:
        Target offset/key in the receiving client's local memory.
    in_order:
        Header flag selectively guaranteeing in-order delivery between
        a fixed source-destination pair (§III.A).
    pattern_id:
        Multicast pattern identifier; ``None`` for unicast.
    packet_id:
        Drawn from a process-wide count unless given.
    """

    __slots__ = ("src_node", "src_client", "dst_node", "dst_client", "kind",
                 "payload_bytes", "payload", "counter_id", "address",
                 "in_order", "pattern_id", "packet_id", "wire_bytes",
                 "serialization_ns")

    def __init__(
        self,
        src_node: NodeCoord,
        src_client: str,
        dst_node: NodeCoord,
        dst_client: str,
        kind: PacketKind = _WRITE,
        payload_bytes: int = 0,
        payload: Any = None,
        counter_id: Optional[str] = None,
        address: Optional[Any] = None,
        in_order: bool = False,
        pattern_id: Optional[int] = None,
        packet_id: Optional[int] = None,
    ) -> None:
        # The id is drawn before validation, so a rejected packet uses
        # one up, as it always has.
        if packet_id is None:
            packet_id = next(_packet_ids)
        if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload must be 0..{MAX_PAYLOAD_BYTES} bytes, "
                f"got {payload_bytes}"
            )
        if kind is _ACCUM and payload_bytes % 4 != 0:
            raise ValueError(
                "accumulation packets add their payload in 4-byte "
                f"quantities; got {payload_bytes} bytes"
            )
        self.src_node = src_node
        self.src_client = src_client
        self.dst_node = dst_node
        self.dst_client = dst_client
        self.kind = kind
        self.payload_bytes = payload_bytes
        self.payload = payload
        self.counter_id = counter_id
        self.address = address
        self.in_order = in_order
        self.pattern_id = pattern_id
        self.packet_id = packet_id
        self.wire_bytes, self.serialization_ns = _WIRE[payload_bytes]

    # -- wire model ---------------------------------------------------------
    @property
    def inline(self) -> bool:
        """True when the payload rides in the header (≤ 8 bytes)."""
        return self.payload_bytes <= INLINE_PAYLOAD_BYTES

    @property
    def is_multicast(self) -> bool:
        return self.pattern_id is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.kind.value} pkt#{self.packet_id} "
            f"{self.src_node}:{self.src_client} -> "
            f"{self.dst_node}:{self.dst_client} {self.payload_bytes}B>"
        )


def WritePacket(**kwargs: Any) -> Packet:
    """Convenience constructor for a write packet."""
    kwargs.setdefault("kind", PacketKind.WRITE)
    return Packet(**kwargs)


def AccumPacket(**kwargs: Any) -> Packet:
    """Convenience constructor for an accumulation packet."""
    kwargs.setdefault("kind", PacketKind.ACCUM)
    return Packet(**kwargs)


def FifoPacket(**kwargs: Any) -> Packet:
    """Convenience constructor for a FIFO message packet."""
    kwargs.setdefault("kind", PacketKind.FIFO)
    return Packet(**kwargs)


def payload_bytes_of(data: Any) -> int:
    """Payload size of an actual data object (numpy-aware)."""
    if data is None:
        return 0
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, str):
        return min(len(data.encode()), MAX_PAYLOAD_BYTES)
    if isinstance(data, (int, float)):
        return 8
    # Last, so sizing a scalar loads no numpy.
    import numpy as np

    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    raise TypeError(f"cannot infer payload size of {type(data).__name__}")
