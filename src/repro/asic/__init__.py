"""Models of the network clients on an Anton ASIC (§II, §III, Fig. 1).

Each node hosts seven local memories / clients: one per processing
slice (four), one for the HTIS, and two accumulation memories.  All of
them can directly accept write packets issued by other clients
(Fig. 3); all of them carry synchronization counters (§III.B).
"""

from repro.asic.accumulation import AccumulationMemory
from repro.asic.client import NetworkClient
from repro.asic.fifo import MessageFifo
from repro.asic.htis import HTIS, InteractionBuffer
from repro.asic.memory import LocalMemory
from repro.asic.node import AntonNode, Machine, build_machine
from repro.asic.slice_ import ProcessingSlice
from repro.asic.sync_counter import SyncCounter

__all__ = [
    "AccumulationMemory",
    "AntonNode",
    "Machine",
    "HTIS",
    "InteractionBuffer",
    "LocalMemory",
    "MessageFifo",
    "NetworkClient",
    "ProcessingSlice",
    "SyncCounter",
    "build_machine",
]
