"""Client local memories with pre-allocated receive buffers (§IV.A).

Anton's software pre-allocates receive-side storage for almost every
piece of data to be communicated, before the simulation begins, and
avoids changing those addresses.  The model mirrors this: a
:class:`LocalMemory` holds named buffers (numpy arrays or plain slot
lists) allocated up front; remote writes land at (buffer, offset) and
it is an error to write to an unallocated buffer or out of bounds —
exactly the failure a mis-programmed remote write would cause on the
real machine.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional


class Buffer:
    """One pre-allocated receive buffer: a fixed number of slots."""

    __slots__ = ("name", "slots", "writes")

    def __init__(self, name: str, num_slots: int) -> None:
        if num_slots < 1:
            raise ValueError(f"buffer {name!r} needs >= 1 slot, got {num_slots}")
        self.name = name
        self.slots: list[Any] = [None] * num_slots
        self.writes = 0

    def __len__(self) -> int:
        return len(self.slots)

    def write(self, offset: int, value: Any) -> None:
        if not 0 <= offset < len(self.slots):
            raise IndexError(
                f"remote write to {self.name!r} offset {offset} out of "
                f"bounds (size {len(self.slots)})"
            )
        self.slots[offset] = value
        self.writes += 1

    def read(self, offset: int) -> Any:
        if not 0 <= offset < len(self.slots):
            raise IndexError(
                f"read from {self.name!r} offset {offset} out of bounds "
                f"(size {len(self.slots)})"
            )
        return self.slots[offset]

    def filled(self) -> list[Any]:
        """All written slots, in offset order (None slots skipped)."""
        return [s for s in self.slots if s is not None]

    def clear(self) -> None:
        """Reset all slots for the next phase (addresses are reused)."""
        for i in range(len(self.slots)):
            self.slots[i] = None
        # ``writes`` is cumulative on purpose (statistics).


class LocalMemory:
    """A client's remotely writable local memory."""

    def __init__(self, owner_name: str = "") -> None:
        self.owner_name = owner_name
        self._buffers: dict[str, Buffer] = {}

    def allocate(self, name: str, num_slots: int) -> Buffer:
        """Pre-allocate a named receive buffer.

        Re-allocating an existing name is an error: fixed communication
        patterns require fixed addresses (§IV.A).
        """
        if name in self._buffers:
            raise ValueError(f"buffer {name!r} already allocated in "
                             f"{self.owner_name!r}")
        buf = Buffer(name, num_slots)
        self._buffers[name] = buf
        return buf

    def buffer(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise KeyError(
                f"remote write to unallocated buffer {name!r} in "
                f"{self.owner_name!r}; receive storage must be "
                "pre-allocated before communication begins"
            ) from None

    def has_buffer(self, name: str) -> bool:
        return name in self._buffers

    def write(self, address: tuple[str, int], value: Any) -> None:
        """Perform a remote write at ``address = (buffer, offset)``."""
        name, offset = address
        try:
            buf = self._buffers[name]
        except KeyError:
            buf = self.buffer(name)  # raises, naming the buffer
        buf.write(offset, value)

    def read(self, address: tuple[str, int]) -> Any:
        name, offset = address
        return self.buffer(name).read(offset)

    def buffers(self) -> Iterator[Buffer]:
        return iter(self._buffers.values())

    def __contains__(self, name: str) -> bool:
        return name in self._buffers
