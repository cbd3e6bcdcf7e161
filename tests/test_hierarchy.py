"""Tests for the L2/main-memory hierarchy."""

from __future__ import annotations

import pytest

from repro.config.system import MemoryTiming, SystemConfig
from repro.memory.hierarchy import MainMemory, MemoryHierarchy, ServiceLevel


@pytest.fixture
def system() -> SystemConfig:
    return SystemConfig()


@pytest.fixture
def hierarchy(system) -> MemoryHierarchy:
    return MemoryHierarchy(system)


class TestMainMemory:
    def test_latency_matches_table1(self):
        memory = MainMemory(MemoryTiming())
        assert memory.access(32) == 96
        assert memory.accesses == 1

    def test_access_counter(self):
        memory = MainMemory(MemoryTiming())
        for _ in range(5):
            memory.access(8)
        assert memory.accesses == 5


class TestMemoryHierarchy:
    def test_cold_miss_goes_to_memory(self, hierarchy, system):
        response = hierarchy.access_from_l1_miss(0x4000)
        assert response.level is ServiceLevel.MEMORY
        assert response.latency == system.l2_cache.latency + system.l2_miss_penalty

    def test_second_access_hits_in_l2(self, hierarchy, system):
        hierarchy.access_from_l1_miss(0x4000)
        response = hierarchy.access_from_l1_miss(0x4000)
        assert response.level is ServiceLevel.L2
        assert response.latency == system.l2_cache.latency

    def test_l2_statistics(self, hierarchy):
        hierarchy.access_from_l1_miss(0x4000)
        hierarchy.access_from_l1_miss(0x4000)
        hierarchy.access_from_l1_miss(0x8000)
        assert hierarchy.l2_accesses == 3
        assert hierarchy.l2_misses == 2
        assert hierarchy.l2_miss_rate == pytest.approx(2 / 3)

    def test_miss_rate_zero_without_accesses(self, hierarchy):
        assert hierarchy.l2_miss_rate == 0.0

    def test_reset_statistics_keeps_contents(self, hierarchy):
        hierarchy.access_from_l1_miss(0x4000)
        hierarchy.reset_statistics()
        assert hierarchy.l2_accesses == 0
        # The block is still cached, so the next access is an L2 hit.
        assert hierarchy.access_from_l1_miss(0x4000).level is ServiceLevel.L2

