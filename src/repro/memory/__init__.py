"""Memory substrate: set-associative caches, MSHRs, DRAM, and the hierarchy."""

from repro.memory.cache import Cache
from repro.memory.dram import Dram, ROW_CLOSED, ROW_CONFLICT, ROW_HIT
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.mshr import Mshr, MshrEntry

__all__ = [
    "Cache",
    "Dram",
    "ROW_HIT",
    "ROW_CLOSED",
    "ROW_CONFLICT",
    "AccessResult",
    "MemoryHierarchy",
    "Mshr",
    "MshrEntry",
]
