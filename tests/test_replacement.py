"""Tests for the dense cache-wide LRU replacement state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.replacement import LRUState


class TestLRU:
    def test_initial_victim_is_last_way(self):
        state = LRUState(num_sets=4, associativity=4)
        assert state.victim_one(2) == 3

    def test_touch_moves_way_to_most_recent(self):
        state = LRUState(num_sets=2, associativity=4)
        state.touch_one(0, 3)
        assert state.victim_one(0) == 2
        # Other sets are unaffected.
        assert state.victim_one(1) == 3

    def test_victim_is_least_recently_used(self):
        state = LRUState(num_sets=1, associativity=4)
        for way in (0, 1, 2, 3):
            state.fill_one(0, way)
        state.touch_one(0, 0)
        state.touch_one(0, 1)
        # Way 2 is now the least recently used.
        assert state.victim_one(0) == 2

    def test_single_way_always_victim_zero(self):
        state = LRUState(num_sets=1, associativity=1)
        state.touch_one(0, 0)
        assert state.victim_one(0) == 0

    def test_reset_restores_initial_order(self):
        state = LRUState(num_sets=3, associativity=4)
        state.touch_one(1, 3)
        state.reset_one(1)
        assert state.victim_one(1) == 3

    def test_work_array_round_trip_matches_scalar(self):
        rng = np.random.default_rng(3)
        batched = LRUState(num_sets=8, associativity=4)
        scalar = LRUState(num_sets=8, associativity=4)
        for _ in range(50):
            sets = rng.permutation(8)[: int(rng.integers(1, 9))]
            ways = rng.integers(0, 4, size=sets.shape[0])
            hit_mask = rng.random(sets.shape[0]) < 0.5
            work = batched.gather(sets)
            batched.update_block(work, sets.shape[0], ways, hit_mask)
            batched.scatter(sets, work)
            for set_index, way, hit in zip(sets.tolist(), ways.tolist(), hit_mask.tolist()):
                if hit:
                    scalar.touch_one(set_index, way)
                else:
                    scalar.fill_one(set_index, way)
            assert np.array_equal(batched.ranks, scalar.ranks)
            work = batched.gather(np.arange(8))
            assert np.array_equal(
                batched.victims_block(work, np.arange(8)),
                np.array([scalar.victim_one(s) for s in range(8)]),
            )

    def test_ranks_stay_a_permutation(self):
        state = LRUState(num_sets=4, associativity=8)
        rng = np.random.default_rng(5)
        for _ in range(200):
            state.touch_one(int(rng.integers(0, 4)), int(rng.integers(0, 8)))
        for row in state.ranks:
            assert sorted(row.tolist()) == list(range(8))

    def test_rejects_zero_associativity(self):
        with pytest.raises(ValueError):
            LRUState(4, 0)

    def test_rejects_zero_sets(self):
        with pytest.raises(ValueError):
            LRUState(0, 2)
