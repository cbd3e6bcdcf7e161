"""Cache and memory-hierarchy substrate."""

from repro.memory.cache import AccessResult, Cache, CacheStatistics
from repro.memory.hierarchy import (
    HierarchyResponse,
    MainMemory,
    MemoryHierarchy,
    ServiceLevel,
)

__all__ = [
    "AccessResult",
    "Cache",
    "CacheStatistics",
    "HierarchyResponse",
    "MainMemory",
    "MemoryHierarchy",
    "ServiceLevel",
]
