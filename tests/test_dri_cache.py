"""Tests for the DRI i-cache itself (resizing, lookup correctness, statistics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry, SystemConfig
from repro.dri.dri_cache import DRIICache
from repro.dri.throttle import ResizeDecision
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import replay
from repro.workloads.trace import InstructionTrace


def make_cache(
    size_bytes: int = 8 * 1024,
    size_bound: int = 1024,
    miss_bound: int = 50,
    sense_interval: int = 256,
    associativity: int = 1,
) -> DRIICache:
    geometry = CacheGeometry(size_bytes=size_bytes, block_size=32, associativity=associativity)
    parameters = DRIParameters(
        miss_bound=miss_bound, size_bound=size_bound, sense_interval=sense_interval
    )
    return DRIICache(geometry, parameters)


class TestBasics:
    def test_starts_at_full_size(self):
        cache = make_cache()
        assert cache.current_size_bytes == 8 * 1024
        assert cache.active_fraction == 1.0

    def test_resizing_tag_bits_for_paper_configuration(self):
        cache = make_cache(size_bytes=64 * 1024, size_bound=1024)
        assert cache.resizing_tag_bits == 6

    def test_behaves_like_conventional_cache_before_resizing(self):
        cache = make_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit
        assert cache.stats.accesses == 2

    def test_contains_tracks_current_mapping(self):
        cache = make_cache()
        cache.access(0x2000)
        assert cache.contains(0x2000)
        assert not cache.contains(0x4000)


class TestDownsizing:
    def test_low_miss_interval_downsizes(self):
        cache = make_cache(miss_bound=50)
        for line in range(10):
            cache.access(line * 32)
        outcome = cache.end_interval()
        assert outcome.decision is ResizeDecision.DOWNSIZE
        assert cache.current_size_bytes == 4 * 1024

    def test_downsizing_invalidates_disabled_sets(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, miss_bound=1000)
        # Fill a block that lives in a high-numbered set (set 200 of 256).
        high_set_address = 200 * 32
        cache.access(high_set_address)
        cache.end_interval()  # downsizes to 4K = 128 sets; set 200 is gated off
        assert cache.current_sets == 128
        assert not cache.access(high_set_address).hit

    def test_blocks_in_surviving_sets_still_hit_after_downsizing(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, miss_bound=1000)
        low_set_address = 5 * 32
        cache.access(low_set_address)
        cache.end_interval()  # 4K now; set 5 still active and content retained
        assert cache.access(low_set_address).hit

    def test_downsizing_stops_at_size_bound(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=2048, miss_bound=1000)
        for _ in range(10):
            cache.access(0x0)
            cache.end_interval()
        assert cache.current_size_bytes == 2048

    def test_lookup_correct_at_minimum_size(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, miss_bound=10_000)
        for _ in range(4):
            cache.end_interval()
        assert cache.current_size_bytes == 1024
        # Two addresses that map to the same set at 1K but different tags.
        first = 0x0
        second = 1024
        cache.access(first)
        assert cache.access(first).hit
        cache.access(second)  # evicts first (direct-mapped at 1K)
        assert not cache.access(first).hit


class TestUpsizing:
    def test_high_miss_interval_upsizes(self):
        cache = make_cache(miss_bound=5)
        cache.controller.force_size(1024)
        for line in range(64):
            cache.access(line * 32)  # 64 distinct lines: mostly misses
        outcome = cache.end_interval()
        assert outcome.decision is ResizeDecision.UPSIZE
        assert cache.current_size_bytes == 2048

    def test_upsizing_causes_refetch_not_corruption(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, miss_bound=10_000)
        # Shrink to 1K.
        for _ in range(4):
            cache.end_interval()
        address = 0x1540  # maps differently at 1K and 8K
        cache.access(address)
        assert cache.access(address).hit
        # Grow back to 2K: the block may now map to a new set and must be
        # refetched once, after which it hits again.
        cache.controller.force_size(2048)
        cache.access(address)
        assert cache.access(address).hit


class TestIntervals:
    def test_accesses_never_close_an_interval(self):
        """Only the replay loop closes sense intervals: a whole interval's
        worth of accesses, one by one or batched, leaves it open."""
        cache = make_cache(sense_interval=64, miss_bound=50)
        for index in range(64):
            cache.access((index % 4) * 32)
        cache.access_batch(np.arange(4, dtype=np.uint64) * 32)
        assert cache.current_size_bytes == 8 * 1024
        assert cache.dri_stats.intervals == []
        assert cache._open_interval() == (68, 4)

    def test_engine_closes_each_sense_interval(self):
        """Replayed with ``dri=`` parameters, the engine closes an interval
        every ``interval_length_accesses`` accesses: after 64 accesses
        with almost no misses the cache has downsized once."""
        parameters = make_cache(sense_interval=64).parameters
        system = SystemConfig(l1_icache=CacheGeometry(size_bytes=8 * 1024, block_size=32))
        trace = InstructionTrace(
            name="loop", line_addresses=(np.arange(64, dtype=np.uint64) % 4) * 32,
            instructions_per_line=1,
        )
        for engine in ("scalar", "batched"):
            cache = make_cache(sense_interval=64, miss_bound=50)
            replay(trace, cache, MemoryHierarchy(system), 1.0, system, dri=parameters,
                   engine=engine)
            assert cache.current_size_bytes == 4 * 1024, engine
            assert len(cache.dri_stats.intervals) == 1, engine

    def test_manual_interval_instruction_count(self):
        cache = make_cache()
        for line in range(8):
            cache.access(line * 32)
        cache.end_interval(instructions=64)
        assert cache.dri_stats.intervals[0].instructions == 64
        assert cache.dri_stats.intervals[0].accesses == 8

    def test_finalize_records_partial_interval(self):
        cache = make_cache()
        cache.access(0x0)
        cache.finalize()
        assert len(cache.dri_stats.intervals) == 1
        assert cache.dri_stats.intervals[0].resized == "none"

    def test_finalize_with_no_pending_accesses_is_noop(self):
        cache = make_cache()
        cache.finalize()
        assert cache.dri_stats.intervals == []

    def test_finalize_rejects_a_valid_tag_in_a_gated_set(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, miss_bound=1000)
        cache.access(0x0)
        cache.end_interval()  # downsizes to 4K: sets 128..255 are gated off
        assert cache.current_sets == 128
        cache.finalize()  # an honest plane passes
        cache._tag_plane[200, 0] = 7  # a stray write into a gated row
        with pytest.raises(ValueError, match="gated-off set.*miss_bound=1000"):
            cache.finalize()

    def test_finalize_rejects_a_valid_tag_after_an_invalid_frame(self):
        cache = make_cache(associativity=4, miss_bound=1000)
        cache.access(0x0)
        cache.finalize()  # set 0 holds one tag, most recent first
        cache._tag_plane[0, 2] = 7  # a stray write past the invalid frame
        with pytest.raises(ValueError, match="set 0 holds a valid tag after.*miss_bound=1000"):
            cache.finalize()

    def test_finalize_rejects_a_tag_held_twice(self):
        cache = make_cache(associativity=4, miss_bound=1000)
        cache.access(0x0)
        cache.finalize()
        cache._tag_plane[0, 1] = cache._tag_plane[0, 0]
        with pytest.raises(ValueError, match="set 0 holds one tag twice.*miss_bound=1000"):
            cache.finalize()

    def test_interval_counters_reset_between_intervals(self):
        cache = make_cache()
        cache.access(0x0)
        cache.end_interval()
        cache.access(0x0)  # hit
        cache.end_interval()
        first, second = cache.dri_stats.intervals
        assert first.misses == 1
        assert second.misses == 0


class TestStatistics:
    def test_average_size_fraction_reflects_downsizing(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, miss_bound=1000)
        # First interval at 8K, then three more downsizing to 1K.
        for _ in range(4):
            cache.access(0x0)
            cache.end_interval()
        assert 0.0 < cache.dri_stats.average_size_fraction < 1.0
        assert cache.dri_stats.downsizings == 3

    def test_size_trajectory_monotone_under_pure_downsizing(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, miss_bound=1000)
        for _ in range(4):
            cache.access(0x0)
            cache.end_interval()
        trajectory = cache.dri_stats.size_trajectory()
        assert trajectory == sorted(trajectory, reverse=True)

    def test_size_time_fractions_sum_to_one(self):
        cache = make_cache()
        for _ in range(5):
            cache.access(0x0)
            cache.end_interval()
        fractions = cache.dri_stats.size_time_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_reset_restores_full_size_and_clears_stats(self):
        cache = make_cache()
        cache.access(0x0)
        cache.end_interval()
        cache.reset()
        assert cache.current_size_bytes == 8 * 1024
        assert cache.stats.accesses == 0
        assert cache.dri_stats.intervals == []
        assert not cache.access(0x0).hit  # contents were flushed


class TestSetAssociativeDRI:
    def test_four_way_dri_cache_resizes_sets(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, associativity=4, miss_bound=1000)
        assert cache.current_sets == 64
        cache.end_interval()
        assert cache.current_sets == 32
        assert cache.current_size_bytes == 4 * 1024

    def test_four_way_keeps_conflicting_blocks(self):
        cache = make_cache(size_bytes=8 * 1024, size_bound=1024, associativity=4, miss_bound=1000)
        stride = cache.current_sets * 32
        addresses = [way * stride for way in range(4)]
        for address in addresses:
            cache.access(address)
        for address in addresses:
            assert cache.access(address).hit
