"""Tests for the generic set-associative cache substrate."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry
from repro.dri.dri_cache import DRIICache
from repro.memory import cache as cache_module
from repro.memory.cache import Cache, CacheBank


def make_cache(size_bytes: int = 1024, block_size: int = 32, associativity: int = 1) -> Cache:
    return Cache(CacheGeometry(size_bytes=size_bytes, block_size=block_size, associativity=associativity))


class TestAddressDecomposition:
    def test_block_address_strips_offset(self):
        cache = make_cache()
        assert cache.block_address(0x1234) == 0x1234 >> 5

    def test_set_index_uses_low_block_bits(self):
        cache = make_cache(size_bytes=1024, block_size=32)  # 32 sets
        assert cache.num_sets == 32
        assert cache.set_index(0x0) == 0
        assert cache.set_index(32 * 5) == 5
        assert cache.set_index(32 * 37) == 5  # wraps modulo 32 sets

    def test_tag_excludes_index_and_offset(self):
        cache = make_cache(size_bytes=1024, block_size=32)
        address = (7 << (5 + 5)) | (3 << 5) | 9  # tag 7, set 3, offset 9
        assert cache.tag_of(address) == 7
        assert cache.set_index(address) == 3


class TestHitsAndMisses:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit

    def test_same_block_different_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x101F).hit  # same 32-byte block

    def test_adjacent_block_misses(self):
        cache = make_cache()
        cache.access(0x1000)
        assert not cache.access(0x1020).hit

    def test_direct_mapped_conflict_eviction(self):
        cache = make_cache(size_bytes=1024, block_size=32, associativity=1)
        first = 0x0000
        second = first + 1024  # same set, different tag
        cache.access(first)
        result = cache.access(second)
        assert not result.hit
        assert result.evicted_tag is not None
        assert not cache.access(first).hit  # first was evicted

    def test_two_way_holds_both_conflicting_blocks(self):
        cache = make_cache(size_bytes=1024, block_size=32, associativity=2)
        first = 0x0000
        second = first + 512  # 16 sets of 2 ways: 512 bytes apart aliases
        cache.access(first)
        cache.access(second)
        assert cache.access(first).hit
        assert cache.access(second).hit

    def test_lru_eviction_in_two_way(self):
        cache = make_cache(size_bytes=1024, block_size=32, associativity=2)
        stride = 512
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a most recently used
        cache.access(c)  # evicts b (LRU)
        assert cache.access(a).hit
        assert not cache.access(b).hit

    def test_statistics_counts(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x20)
        stats = cache.stats
        assert stats.accesses == 3
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.miss_rate == pytest.approx(2 / 3)
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_miss_rate_zero_without_accesses(self):
        assert make_cache().stats.miss_rate == 0.0

    def test_contains_has_no_side_effects(self):
        cache = make_cache()
        cache.access(0x40)
        before = cache.stats.accesses
        assert cache.contains(0x40)
        assert not cache.contains(0x80)
        assert cache.stats.accesses == before


class TestInvalidation:
    def test_invalidate_set_drops_blocks(self):
        cache = make_cache()
        cache.access(0x0)
        set_index = cache.set_index(0x0)
        dropped = cache.invalidate_set(set_index)
        assert dropped == 1
        assert not cache.access(0x0).hit

    def test_invalidate_empty_set_returns_zero(self):
        cache = make_cache()
        assert cache.invalidate_set(3) == 0

    def test_invalidate_out_of_range_raises(self):
        cache = make_cache()
        with pytest.raises(IndexError):
            cache.invalidate_set(cache.num_sets)

    def test_flush_empties_cache(self):
        cache = make_cache()
        for block in range(10):
            cache.access(block * 32)
        assert cache.resident_blocks() == 10
        dropped = cache.flush()
        assert dropped == 10
        assert cache.resident_blocks() == 0

    def test_utilization(self):
        cache = make_cache(size_bytes=1024, block_size=32)
        assert cache.utilization() == 0.0
        for block in range(16):
            cache.access(block * 32)
        assert cache.utilization() == pytest.approx(0.5)


class TestCapacityInvariant:
    def test_never_exceeds_capacity(self):
        cache = make_cache(size_bytes=512, block_size=32, associativity=2)
        for address in range(0, 64 * 1024, 32):
            cache.access(address)
        assert cache.resident_blocks() <= cache.geometry.num_blocks

    def test_fills_to_capacity_with_distinct_blocks(self):
        cache = make_cache(size_bytes=512, block_size=32, associativity=2)
        for address in range(0, 512, 32):
            cache.access(address)
        assert cache.resident_blocks() == cache.geometry.num_blocks
        # Re-accessing them all should produce no further misses.
        misses_before = cache.stats.misses
        for address in range(0, 512, 32):
            assert cache.access(address).hit
        assert cache.stats.misses == misses_before


class TestWideSetIndexBatch:
    """A cache with more than 65,536 sets sorts its set indices as uint32
    keys; the batched classifiers must still match per-address access."""

    NUM_SETS = 131_072

    @pytest.mark.parametrize("associativity", [1, 2], ids=["direct", "2-way"])
    def test_access_batch_matches_per_address_access(self, associativity):
        geometry = CacheGeometry(
            size_bytes=self.NUM_SETS * 32 * associativity,
            block_size=32,
            associativity=associativity,
        )
        rng = np.random.default_rng(131_072 + associativity)
        # Hot sets in pairs s and s + 65,536, which share their low 16 bits,
        # with a few tags each: hits, fills and evictions in every pair.
        low = rng.choice(1 << 16, size=256, replace=False)
        hot_sets = np.concatenate([low, low + (1 << 16)])
        lines = rng.integers(0, 5, size=20_000) * self.NUM_SETS + rng.choice(hot_sets, size=20_000)
        addresses = lines.astype(np.uint64) * 32

        reference = Cache(geometry)
        expected = [reference.access(address).hit for address in addresses.tolist()]
        batched = Cache(geometry)
        assert batched._set_key_dtype == np.uint32
        hits = batched.access_batch(addresses)

        assert hits.tolist() == expected
        assert batched.stats == reference.stats
        assert reference.stats.evictions > 0
        assert np.array_equal(batched._tag_plane, reference._tag_plane)


class TestDirectMappedBank:
    """Direct-mapped bank members that share a set mask share one per-mask
    pass; each must still end exactly as if classified on its own."""

    GEOMETRY = CacheGeometry(size_bytes=4096, block_size=32, associativity=1)  # 128 sets
    FOOTPRINT = 512  # blocks, four per full-size set
    # (size bound, current size) of each DRI member, after a conventional
    # member: set masks 127, 127, 63, 63, 15 with tag shifts 7, 4, 4, 5, 4,
    # so classes share a mask both with and without a shared tag shift.
    DRI_SIZES = ((512, 4096), (512, 2048), (1024, 2048), (512, 512))

    def _members(self):
        """The members, each preloaded from one seed: in every active set
        a footprint block's tag (so some first probes hit and some evict a
        valid block) or an empty frame."""
        members = [Cache(self.GEOMETRY)]
        for size_bound, size in self.DRI_SIZES:
            dri = DRIICache(self.GEOMETRY, DRIParameters(size_bound=size_bound))
            dri.controller.force_size(size)
            members.append(dri)
        rng = np.random.default_rng(15)
        for member in members:
            mask, shift = member._index_key()
            sets = np.arange(mask + 1)
            blocks = sets + (mask + 1) * rng.integers(0, self.FOOTPRINT // (mask + 1), size=sets.size)
            tags = blocks >> shift
            tags[rng.random(sets.size) < 0.25] = -1
            member._tag_plane[sets, 0] = tags
        return members

    def _addresses(self):
        lines = np.random.default_rng(16).integers(0, self.FOOTPRINT, size=3000)
        return lines.astype(np.uint64) * 32

    @staticmethod
    def _first_probe_outcomes(member, addresses):
        """What each set's first probe meets in ``member``: its own tag
        ("hit"), another valid one ("evict") or an empty frame ("fill")."""
        mask, shift = member._index_key()
        stored = member._tag_plane[:, 0].tolist()
        outcomes, seen = set(), set()
        for block in (addresses >> np.uint64(5)).tolist():
            if block & mask not in seen:
                seen.add(block & mask)
                tag = stored[block & mask]
                outcomes.add("hit" if tag == block >> shift else "evict" if tag >= 0 else "fill")
        return outcomes

    @pytest.mark.parametrize("max_probes", [3000, 1000])
    def test_members_match_their_own_access_batch(self, max_probes):
        addresses = self._addresses()
        references = self._members()
        for reference in references:
            assert self._first_probe_outcomes(reference, addresses) == {"hit", "evict", "fill"}
        expected = [reference.access_batch(addresses) for reference in references]

        members = self._members()
        bank = CacheBank(members)
        with mock.patch.object(
            cache_module, "_direct_mapped_pass", wraps=cache_module._direct_mapped_pass
        ) as spy:
            misses = dict(zip(bank.leaders.tolist(), bank.classify(addresses, max_probes)))
        leader_of = {row: row for row in misses} | dict(bank.followers())
        bank.settle()

        # One pass per distinct set mask per classifier call.
        calls = -(-addresses.shape[0] // max_probes)
        assert sorted(call.args[1] for call in spy.call_args_list) == sorted(
            [15, 63, 127] * calls
        )
        for row, (member, reference, reference_hits) in enumerate(
            zip(members, references, expected)
        ):
            # A member misses where its leader does.
            assert misses[leader_of[row]].tolist() == np.flatnonzero(~reference_hits).tolist()
            assert member.stats == reference.stats
            assert np.array_equal(member._tag_plane, reference._tag_plane)
        for member, reference in zip(members[1:], references[1:]):
            assert (member._interval_accesses, member._interval_misses) == (
                reference._interval_accesses,
                reference._interval_misses,
            )
