"""Tests for LRU replacement on the tag plane's recency-ordered rows.

Each row of a :class:`Cache` tag plane lists its set's tags most recent
first, with invalid frames (-1) only at the tail: a tag's column is its
LRU rank, and a miss in a full set evicts the last column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.system import CacheGeometry
from repro.memory.cache import Cache


def make_cache(num_sets: int = 4, associativity: int = 4) -> Cache:
    return Cache(
        CacheGeometry(
            size_bytes=32 * num_sets * associativity, block_size=32, associativity=associativity
        )
    )


def address(cache: Cache, set_index: int, tag: int) -> int:
    return (tag * cache.num_sets + set_index) * 32


def fill(cache: Cache, set_index: int, tags) -> None:
    for tag in tags:
        cache.access(address(cache, set_index, tag))


class TestLRU:
    def test_initial_victim_is_last_way(self):
        cache = make_cache()
        fill(cache, 2, range(4))
        assert cache._tag_plane[2].tolist() == [3, 2, 1, 0]
        # The first fill sits in the last column and is evicted first.
        assert cache.access(address(cache, 2, 9)).evicted_tag == 0
        assert cache._tag_plane[2].tolist() == [9, 3, 2, 1]

    def test_touch_moves_way_to_most_recent(self):
        cache = make_cache(num_sets=2)
        fill(cache, 0, range(4))
        fill(cache, 1, range(4))
        assert cache.access(address(cache, 0, 1)).hit  # depth 2
        assert cache._tag_plane[0].tolist() == [1, 3, 2, 0]
        # Other sets are unaffected.
        assert cache._tag_plane[1].tolist() == [3, 2, 1, 0]

    def test_victim_is_least_recently_used(self):
        cache = make_cache(num_sets=1)
        fill(cache, 0, (0, 1, 2, 3, 0, 1))
        # Tag 2 is now the least recently used.
        assert cache.access(address(cache, 0, 7)).evicted_tag == 2

    def test_single_way_always_victim_zero(self):
        cache = make_cache(num_sets=1, associativity=1)
        fill(cache, 0, (5, 5))
        assert cache.access(address(cache, 0, 6)).evicted_tag == 5
        assert cache._tag_plane.tolist() == [[6]]

    def test_reset_restores_initial_order(self):
        cache = make_cache()
        fill(cache, 1, (0, 1, 2, 3, 0))
        cache.invalidate_set(1)
        assert cache._tag_plane[1].tolist() == [-1] * 4
        # Refilled, the set evicts in fill order again.
        fill(cache, 1, (4, 5, 6, 7))
        assert cache.access(address(cache, 1, 8)).evicted_tag == 4

    def test_work_array_round_trip_matches_scalar(self):
        """The batched classifier gathers a chunk's touched rows into a
        work array, shifts them per wavefront and writes them back; the
        plane must then equal the scalar path's."""
        rng = np.random.default_rng(3)
        batched, scalar = make_cache(num_sets=8), make_cache(num_sets=8)
        for _ in range(50):
            size = int(rng.integers(1, 40))
            lines = rng.integers(0, 6, size=size) * 8 + rng.integers(0, 8, size=size)
            chunk = lines.astype(np.uint64) * 32
            expected = [scalar.access(line).hit for line in chunk.tolist()]
            assert batched.access_batch(chunk).tolist() == expected
            assert np.array_equal(batched._tag_plane, scalar._tag_plane)
        assert batched.stats == scalar.stats

    def test_ranks_stay_a_permutation(self):
        """A tag's column is its rank: every row holds distinct valid tags,
        followed only by invalid frames."""
        cache = make_cache(num_sets=4, associativity=8)
        rng = np.random.default_rng(5)
        for _ in range(200):
            cache.access(address(cache, int(rng.integers(0, 4)), int(rng.integers(0, 12))))
        for row in cache._tag_plane.tolist():
            valid = [tag for tag in row if tag != -1]
            assert row == valid + [-1] * (8 - len(valid))
            assert len(set(valid)) == len(valid)

    def test_rejects_zero_associativity(self):
        with pytest.raises(ValueError, match="associativity must be a power of two"):
            CacheGeometry(size_bytes=512, block_size=32, associativity=0)

    def test_rejects_zero_sets(self):
        with pytest.raises(ValueError, match="associativity cannot exceed"):
            CacheGeometry(size_bytes=64, block_size=32, associativity=4)
