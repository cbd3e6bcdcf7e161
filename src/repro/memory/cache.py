"""A generic set-associative cache model on a dense tag-plane substrate.

This is the substrate both the conventional i-cache baseline and the DRI
i-cache build on.  The model is *functional* (it tracks which blocks are
present, hits and misses) with per-access statistics; timing is handled by
the CPU model, and energy by :mod:`repro.energy`.

Design notes
------------
* The tag store is a dense ``(num_sets, associativity)`` int64 **tag
  plane** (-1 = invalid frame) whose rows are LRU recency lists: column
  0 holds a set's most recently used tag, and invalid frames sit only at
  the tail.  A hit at depth d moves its tag to column 0 and shifts
  columns 0..d-1 right by one; a miss shifts every column right, drops
  the last one (an eviction iff it was valid) and writes column 0.
  Under LRU, hits, misses and evictions do not depend on which way holds
  a block, so the row order is all the replacement state there is.
  There are no per-set Python objects, so the batched path can classify
  and fill whole chunks of accesses without entering the interpreter per
  address.
* :meth:`Cache.access_batch` classifies a chunk vectorised at any
  associativity.  Direct-mapped caches split the work in two: a per-mask
  pass (:func:`_direct_mapped_pass`) sorts the chunk by set once and
  classifies every probe that is not the first of its set in the chunk —
  it hits iff the previous probe of its set had the same block, whatever
  the cache held before — and a per-cache step (:func:`_first_probes`)
  compares only each touched set's first probe with the stored tag and
  writes back its last probe's tag.  Set-associative caches process the
  chunk in *wavefronts* — the k-th access of every touched set is
  independent of every other set's, so each wavefront is one vectorised
  compare-and-shift step over distinct sets.  Sets hammered far more
  often than the rest of the chunk (a tight loop in one set) fall out of
  the wavefronts early and are finished by the scalar tail, keeping the
  vector width useful.
* Both paths are bit-identical to calling :meth:`Cache.access` per
  address, including statistics, eviction counts, and final contents.
* Both paths start by sorting the chunk by set, stably.  The
  set-associative one stable-argsorts set indices cast to the narrowest
  unsigned type holding ``num_sets - 1``: numpy radix-sorts keys of 16
  bits or less (Table 1's L2), several times faster than its int64
  timsort, and the cast keeps the permutation.  The direct-mapped pass
  radix-sorts set keys of 8 bits or fewer as uint8, in one pass, and
  sorts wider ones as packed ``(set << position_bits) | position`` keys
  with a plain ``np.sort``: the keys are unique, so that order is the
  stable one, and it needs no argsort and no gather of the sorted keys.
  At 16,384 accesses under Table 1's 11-bit mask the whole pass took
  143 µs instead of 197 µs with uint16 argsort keys (2-vCPU Xeon, numpy
  2.4.6); under masks of 8 bits or fewer the uint8 argsort was as fast
  or faster.
* Addresses are plain integers; the set index is extracted with shifts and
  masks derived from the geometry, exactly as hardware would.
* The cache exposes ``invalidate_set`` and ``flush`` so the DRI i-cache can
  model the disabling of sets when downsizing (blocks in gated-off sets
  lose their contents).
* :class:`CacheBank` stacks same-geometry caches on one plane, so the
  lockstep engine classifies a chunk for all of them at once: one
  per-mask pass for every group of direct-mapped members that share a
  set mask, one composite call for set-associative members.  Fresh
  members with one set-mask history share a leader and are not
  classified themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config.system import CacheGeometry

MIN_WAVEFRONT_SETS = 8
"""Below this many still-active sets, a wavefront stops paying for numpy
dispatch and the set-associative classifier finishes the chunk's remaining
(heavily skewed) sets with the scalar tail."""


def _direct_mapped_pass(blocks: np.ndarray, mask: int):
    """The per-mask half of direct-mapped classification.

    Stable-sorts a non-empty chunk of block addresses by set
    (``blocks & mask``) and returns ``(hits, positions, sets,
    first_blocks, last_blocks)``:

    * ``hits`` — in program order, True where a probe's block equals the
      block of the previous probe of its set.  A probe that is not the
      first of its set in the chunk hits iff that holds, whatever the
      cache held before the chunk; and "same set and same tag" means
      "same block" under conventional and DRI indexing alike (a DRI tag
      keeps every bit above the minimum-size index).  So this is the
      outcome of every such probe for every direct-mapped cache indexed
      by ``mask``.  First probes read False here;
    * ``positions`` — the program-order position of each touched set's
      first probe, whose outcome depends on the cache's stored tag;
    * ``sets``, ``first_blocks``, ``last_blocks`` — each touched set and
      the blocks of its first and its last probe.

    Set keys of 8 bits or fewer are radix-sorted as uint8 in one pass.
    Wider ones are sorted as packed ``(set << position_bits) | position``
    keys, uint32 where they fit and int64 otherwise (a set index and a
    position never reach bit 63): every packed key is unique, so the plain
    sort is the stable order, and the sorted keys carry both the
    permutation and the sorted sets.
    """
    count = blocks.shape[0]
    if mask <= 0xFF:
        keys = (blocks & mask).astype(np.uint8)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    else:
        position_bits = (count - 1).bit_length()
        key_type = np.uint32 if mask.bit_length() + position_bits <= 32 else np.int64
        packed = np.bitwise_and(blocks, mask, dtype=key_type, casting="unsafe")
        packed <<= position_bits
        packed |= np.arange(count, dtype=key_type)
        packed.sort()
        order = np.bitwise_and(packed, (1 << position_bits) - 1, dtype=np.intp)
        sorted_keys = packed >> position_bits
    sorted_blocks = blocks[order]
    # One boundary array: True where a set's run of probes starts, plus a
    # closing True, so consecutive edges are each run's first probe and
    # one past its last.
    boundary = np.empty(count + 1, dtype=bool)
    boundary[0] = boundary[count] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:count])
    edges = np.flatnonzero(boundary)
    first, last = edges[:-1], edges[1:] - 1
    # A repeat is never a set's first probe: another set means another block.
    repeats = np.empty(count, dtype=bool)
    repeats[0] = False
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=repeats[1:])
    hits = np.empty(count, dtype=bool)
    hits[order] = repeats
    return hits, order[first], sorted_keys[first], sorted_blocks[first], sorted_blocks[last]


def _first_probes(dense: np.ndarray, frames: np.ndarray, first_blocks: np.ndarray,
                  last_blocks: np.ndarray, shifts) -> Tuple[np.ndarray, np.ndarray]:
    """The per-cache half: resolve each touched set's first probe and
    leave its last probe's tag resident (a hit leaves the matching tag, a
    miss fills its own).

    ``frames`` index the flat direct-mapped column ``dense``: one cache's
    touched sets (1-D, with an integer tag shift), or ``(c, sets)`` rows
    of a bank class, one per member, with ``(c, 1)`` shifts.  Returns the
    stored tags the first probes met and their hit mask, shaped like
    ``frames``.
    """
    stored = dense[frames]
    first_hits = stored == first_blocks >> shifts
    dense[frames] = last_blocks >> shifts
    return stored, first_hits


def _retag(rows: np.ndarray, old_shift: int, new_shift: int) -> np.ndarray:
    """One cache's ``(sets, ways)`` rows with each valid tag cut at tag
    shift ``new_shift`` instead of ``old_shift``.

    A tag keeps every block bit from its shift up, and the bits below it
    are the low bits of the set index (a set mask never covers fewer), so
    a frame of set r holds block ``(tag << old_shift) | (r & low)``.
    """
    if old_shift == new_shift:
        return rows
    low = np.arange(rows.shape[0], dtype=np.int64)[:, None] & ((1 << old_shift) - 1)
    return np.where(rows == -1, -1, ((rows << old_shift) | low) >> new_shift)


@dataclass
class CacheStatistics:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when the cache has not been accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Hits per access."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def snapshot(self) -> "CacheStatistics":
        """Return an independent copy of the current counters."""
        return CacheStatistics(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
        )


@dataclass
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    set_index: int
    tag: int
    evicted_tag: Optional[int] = None


class Cache:
    """A set-associative cache with LRU replacement.

    Parameters
    ----------
    geometry:
        Capacity, block size, associativity, and latency.
    name:
        Label used in statistics reports (e.g. ``"L1I"``).
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self.stats = CacheStatistics()
        self._offset_bits = geometry.offset_bits
        self._num_sets = geometry.num_sets
        self._index_mask = self._num_sets - 1
        self._index_bits = self._num_sets.bit_length() - 1
        # The set-associative classifier's sort key type (see the design
        # notes; the direct-mapped pass derives its own from the mask).
        self._set_key_dtype = np.min_scalar_type(self._num_sets - 1)
        self._associativity = geometry.associativity
        # The dense substrate: one int64 tag per block frame (-1 = invalid),
        # each row most recent first.
        self._tag_plane = np.full((self._num_sets, self._associativity), -1, dtype=np.int64)
        # Direct-mapped scalar probes use a flat view of the single column:
        # `item()`/scalar stores on it keep the whole probe in plain ints.
        self._dm_plane = self._tag_plane[:, 0] if self._associativity == 1 else None

    # ------------------------------------------------------------------
    # Address decomposition
    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self._num_sets

    def block_address(self, address: int) -> int:
        """The block-aligned address (address without the offset bits)."""
        return address >> self._offset_bits

    def set_index(self, address: int) -> int:
        """The set an address maps to."""
        return self.block_address(address) & self._index_mask

    def tag_of(self, address: int) -> int:
        """The tag bits of an address for this cache's full-size indexing."""
        return self.block_address(address) >> self._index_bits

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, address: int) -> AccessResult:
        """Look up ``address``; on a miss, fill the block (allocate on miss)."""
        block = self.block_address(address)
        set_index = block & self._index_mask
        tag = block >> self._index_bits
        return self._access_set(set_index, tag)

    def _access_set(self, set_index: int, tag: int) -> AccessResult:
        """Access a specific set with a pre-computed tag (used by subclasses)."""
        self.stats.accesses += 1
        hit, evicted = self._probe_set(set_index, tag)
        if hit:
            self.stats.hits += 1
            return AccessResult(hit=True, set_index=set_index, tag=tag)
        self.stats.misses += 1
        if evicted is not None:
            self.stats.evictions += 1
        return AccessResult(hit=False, set_index=set_index, tag=tag, evicted_tag=evicted)

    def _probe_set(self, set_index: int, tag: int) -> Tuple[bool, Optional[int]]:
        """One full-semantics access on the substrate, without statistics.

        Returns ``(hit, evicted_tag)``.  This is the scalar reference the
        batched classifiers are bit-identical to, and the workhorse of the
        set-associative classifier's scalar tail.

        Direct-mapped caches take a specialised path: one ``item()`` read
        of the flat tag column, a pure-int compare, and a scalar store —
        no numpy row gather and no list construction.  A set-associative
        row is moved as a recency list: a hit moves its tag to the front,
        a miss drops the last frame (evicting it iff it is valid) and
        puts the new tag in front.
        """
        if self._dm_plane is not None:
            plane = self._dm_plane
            stored = plane.item(set_index)
            if stored == tag:
                return True, None
            plane[set_index] = tag
            return False, (stored if stored >= 0 else None)
        row = self._tag_plane[set_index].tolist()
        try:
            depth = row.index(tag)
        except ValueError:
            evicted = row.pop()
            row.insert(0, tag)
            self._tag_plane[set_index] = row
            return False, (evicted if evicted >= 0 else None)
        if depth:
            del row[depth]
            row.insert(0, tag)
            self._tag_plane[set_index] = row
        return True, None

    def contains(self, address: int) -> bool:
        """True if the block holding ``address`` is resident under the
        current mapping (no side effects)."""
        block = self.block_address(address)
        mask, shift = self._index_key()
        return bool((self._tag_plane[block & mask] == block >> shift).any())

    # ------------------------------------------------------------------
    # Batched access (the simulation engine's fast path)
    # ------------------------------------------------------------------
    def access_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Look up a whole chunk of addresses; returns a boolean hit mask.

        Statistics (accesses, hits, misses, evictions) and the resulting
        cache contents are bit-identical to calling :meth:`access` on each
        address in order.  Every associativity takes a vectorised path:
        direct-mapped chunks take one per-mask pass plus a step over the
        touched sets, set-associative chunks are processed in per-set
        wavefronts.
        """
        addresses = np.ascontiguousarray(addresses, dtype=np.uint64)
        if addresses.ndim != 1:
            raise ValueError("addresses must be a one-dimensional array")
        return self._access_batch_chunks(addresses)

    def _access_batch_chunks(self, addresses: np.ndarray) -> np.ndarray:
        """Decompose and classify a validated batch (the DRI cache extends
        this to count into its open sense interval)."""
        return self._classify_chunk(self._blocks(addresses))

    def _blocks(self, addresses: np.ndarray) -> np.ndarray:
        """Block addresses of uint64 ``addresses`` as int64, in one pass: a
        line address shifted right by the offset bits is below 2**63, so
        the view keeps every value."""
        return (addresses >> np.uint64(self._offset_bits)).view(np.int64)

    def _index_key(self) -> Tuple[int, int]:
        """``(set mask, tag shift)`` of the current indexing; the DRI cache
        masks to its active sets and keeps minimum-size tags."""
        return self._index_mask, self._index_bits

    def _open_interval(self) -> Tuple[int, int]:
        """``(accesses, misses)`` of the open sense interval: a plain cache
        has none; the DRI cache reports its own."""
        return 0, 0

    def _record_batch(self, accesses: int, misses: int, open_interval: Tuple[int, int]) -> None:
        """Accounting beyond the L1 counters for ``accesses`` classified in
        a :class:`CacheBank`, ``misses`` of them missing, after which
        ``open_interval`` is open (the DRI cache charges its statistics and
        sets its open sense interval here)."""

    def _classify_chunk(self, blocks: np.ndarray) -> np.ndarray:
        """Classify one chunk of block addresses under the current indexing
        and apply the fills."""
        mask, shift = self._index_key()
        if self._associativity == 1:
            return self._classify_chunk_direct(blocks, mask, shift)
        return self._classify_chunk_assoc(blocks & mask, blocks >> shift)

    def _classify_chunk_direct(self, blocks: np.ndarray, mask: int, shift: int) -> np.ndarray:
        """Direct-mapped classification: the per-mask pass, then this
        cache's first probe of each touched set.  Only valid for
        direct-mapped caches."""
        count = blocks.shape[0]
        if count == 0:
            return np.empty(0, dtype=bool)
        hits, positions, sets, first_blocks, last_blocks = _direct_mapped_pass(blocks, mask)
        stored, first_hits = _first_probes(self._dm_plane, sets, first_blocks, last_blocks, shift)
        hits[positions] = first_hits
        misses = count - int(np.count_nonzero(hits))
        # Every miss evicts except one that fills an empty frame, and only
        # the first probe of a set can find its frame empty.
        evictions = misses - int(np.count_nonzero(stored < 0))
        self.stats.accesses += count
        self.stats.hits += count - misses
        self.stats.misses += misses
        self.stats.evictions += evictions
        return hits

    def _classify_chunk_assoc(self, set_indices: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Set-associative classification in per-set wavefronts.

        A stable sort by set groups each set's probes in program order.
        The k-th probe of a set depends only on that set's earlier probes
        and state, never on another set's — so wavefront k (the k-th probe
        of *every* set still active) is one vectorised step over distinct
        sets.  The step shifts each row right by one up to the probe's
        depth (every column for a miss, dropping the last) and writes the
        probe's tag to column 0: column d moves iff the tag is not among
        columns 0..d-1.  When fewer than :data:`MIN_WAVEFRONT_SETS` sets
        remain active (a chunk dominated by a few hot sets), the remaining
        probes are finished per set with the scalar reference.
        """
        count = set_indices.shape[0]
        if count == 0:
            return np.empty(0, dtype=bool)
        plane = self._tag_plane

        order = np.argsort(set_indices.astype(self._set_key_dtype), kind="stable")
        sorted_sets = set_indices[order]
        sorted_tags = tags[order]

        # A probe repeating its set's previous tag always hits at depth 0,
        # where the shift is a no-op — so duplicate runs are classified up
        # front and drop out of the wavefronts.  Every other probe's
        # outcome overwrites its entry below.
        sorted_hits = np.empty(count, dtype=bool)
        sorted_hits[0] = False
        sorted_hits[1:] = (sorted_sets[1:] == sorted_sets[:-1]) & (
            sorted_tags[1:] == sorted_tags[:-1]
        )
        kept = np.flatnonzero(~sorted_hits)
        kept_sets = sorted_sets[kept]
        kept_tags = sorted_tags[kept]
        kept_count = kept.shape[0]
        kept_hits = np.empty(kept_count, dtype=bool)

        # Per-set probe runs of the deduplicated chunk, largest first:
        # ordering the touched sets by descending probe count makes
        # wavefront k's active sets a contiguous prefix of every per-set
        # array.  One boundary array, closed by a final True, gives each
        # run's first probe and one past its last.
        boundaries = np.empty(kept_count + 1, dtype=bool)
        boundaries[0] = boundaries[kept_count] = True
        np.not_equal(kept_sets[1:], kept_sets[:-1], out=boundaries[1:kept_count])
        edges = np.flatnonzero(boundaries)
        starts = edges[:-1]
        counts = edges[1:] - starts
        by_count = np.argsort(-counts, kind="stable")
        sets_desc = kept_sets[starts[by_count]]
        starts_desc = starts[by_count]
        counts_desc = counts[by_count]

        # actives[k] = how many sets still have a k-th probe; run wavefronts
        # while that stays wide enough to be worth a vectorised step.
        max_rounds = int(counts_desc[0])
        actives = np.searchsorted(-counts_desc, -np.arange(max_rounds), side="left")
        narrow = np.nonzero(actives[1:] < MIN_WAVEFRONT_SETS)[0]
        rounds = int(narrow[0]) + 1 if narrow.size else max_rounds

        # The touched sets' rows, gathered once for the whole chunk and
        # transposed: by_depth[d] holds column d of every touched row.
        by_depth = np.take(plane, sets_desc, axis=0).T.copy()
        last = self._associativity - 1
        evictions = 0

        for round_index in range(rounds):
            active = int(actives[round_index])
            positions = starts_desc[:active] + round_index
            wave_tags = kept_tags[positions]
            rows = by_depth[:, :active]
            # not_found[d]: the tag is in none of columns 0..d.
            not_found = np.logical_and.accumulate(rows != wave_tags, axis=0)
            misses = not_found[last]
            kept_hits[positions] = ~misses
            # A miss drops the last frame, and evicts iff that one is valid.
            evictions += int(np.count_nonzero(misses & (rows[last] != -1)))
            rows[1:] = np.where(not_found[:-1], rows[:-1], rows[1:])
            rows[0] = wave_tags

        plane[sets_desc] = by_depth.T

        if rounds < max_rounds:
            # Scalar tail: the few sets probed more often than the completed
            # wavefronts, each finished in program order on the substrate.
            for row in range(int(actives[rounds])):
                set_index = int(sets_desc[row])
                start = int(starts_desc[row]) + rounds
                stop = int(starts_desc[row]) + int(counts_desc[row])
                for probe in range(start, stop):
                    hit, evicted = self._probe_set(set_index, int(kept_tags[probe]))
                    kept_hits[probe] = hit
                    if evicted is not None:
                        evictions += 1

        sorted_hits[kept] = kept_hits
        total_hits = int(np.count_nonzero(sorted_hits))
        self.stats.accesses += count
        self.stats.hits += total_hits
        self.stats.misses += count - total_hits
        self.stats.evictions += evictions

        hits = np.empty(count, dtype=bool)
        hits[order] = sorted_hits
        return hits

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_set(self, set_index: int) -> int:
        """Invalidate every block in ``set_index``; returns the number dropped."""
        if not 0 <= set_index < self._num_sets:
            raise IndexError(f"set index {set_index} out of range")
        row = self._tag_plane[set_index]
        dropped = int(np.count_nonzero(row != -1))
        if dropped:
            row[:] = -1
            self.stats.invalidations += dropped
        return dropped

    def invalidate_range(self, start: int, stop: int) -> int:
        """Invalidate sets ``start..stop``; returns the number of blocks dropped."""
        if not 0 <= start <= stop <= self._num_sets:
            raise IndexError(f"set range [{start}, {stop}) out of range")
        region = self._tag_plane[start:stop]
        dropped = int(np.count_nonzero(region != -1))
        if dropped:
            region[...] = -1
            self.stats.invalidations += dropped
        return dropped

    def flush(self) -> int:
        """Invalidate the whole cache; returns the number of blocks dropped."""
        return self.invalidate_range(0, self._num_sets)

    def resident_blocks(self) -> int:
        """Number of valid blocks currently held."""
        return int(np.count_nonzero(self._tag_plane != -1))

    def set_tags(self, set_index: int) -> Tuple[int, ...]:
        """The valid tags resident in ``set_index``, most recent first (no
        side effects)."""
        row = self._tag_plane[set_index]
        return tuple(int(tag) for tag in row[row != -1])

    def utilization(self) -> float:
        """Fraction of block frames currently holding valid blocks."""
        return self.resident_blocks() / self.geometry.num_blocks


class CacheBank(Cache):
    """Same-geometry caches stacked on one tag plane and classified together.

    The lockstep engine replays one trace for K caches at once.  The bank
    allocates one ``(K * sets, ways)`` tag plane; member k owns rows
    ``k * sets`` up to ``(k + 1) * sets``, and its own ``_tag_plane`` and
    ``_dm_plane`` become row-slice views of it, so invalidation and every
    per-member query keep working unchanged.  Member k indexes with set
    mask ``mask_k`` and tag shift ``shift_k``: its
    :meth:`Cache._index_key` when the bank is built, kept in a ``(K, 2)``
    array until :meth:`set_masks` changes it.

    Direct-mapped members that share a set mask share every outcome but
    their first probe of each touched set (see :func:`_direct_mapped_pass`),
    so each such class takes one per-mask pass and one
    :func:`_first_probes` step over its members' rows.  Set-associative
    members probe the composite set ``k * sets + (block & mask_k)`` with
    tag ``block >> shift_k``; the members' set ranges are disjoint and
    the classifier's stable sort keeps each member's program order, so
    one :meth:`_classify_chunk_assoc` call over all members equals K calls.

    Each member's accesses and misses build up in length-K arrays, in all
    and in its open interval (:meth:`close_intervals` ends it), and are
    charged once, by :meth:`settle`.

    Members flagged ``fresh`` (empty, never replayed; the caller vouches
    for whatever sits below them too) that share a set mask share one
    *leader*, the first of them.  A cache's contents are a function of
    its set-mask history, so only leaders are classified; each follower
    takes its leader's hit row, and its own rows are written by
    :meth:`settle`.  :meth:`set_masks` splits a share group whose members'
    masks come to differ.  Unflagged members are their own leaders.
    """

    def __init__(self, members: Sequence[Cache], fresh: Sequence[bool] = ()) -> None:
        geometry = members[0].geometry
        if any(member.geometry != geometry for member in members):
            raise ValueError("the caches of a bank must share one geometry")
        super().__init__(geometry, name="bank")
        sets, ways = geometry.num_sets, geometry.associativity
        self.members = list(members)
        # The classifiers read only the plane, the sort key type, the
        # associativity and the member row offsets; the bank itself is
        # never indexed.
        self._num_sets = len(members) * sets
        self._set_key_dtype = np.min_scalar_type(self._num_sets - 1)
        self._tag_plane = np.concatenate([member._tag_plane for member in members])
        self._dm_plane = self._tag_plane[:, 0] if ways == 1 else None
        for index, member in enumerate(members):
            member._tag_plane = self._tag_plane[index * sets : (index + 1) * sets]
            member._dm_plane = member._tag_plane[:, 0] if ways == 1 else None
        self._offsets = np.arange(len(members), dtype=np.int64)[:, None] * sets
        self._keys = np.array([member._index_key() for member in members], dtype=np.int64)
        shares = list(fresh) or [False] * len(members)
        first_by_mask = {}
        self._leader = np.array([
            first_by_mask.setdefault(mask, row) if share else row
            for row, (mask, share) in enumerate(zip(self._keys[:, 0].tolist(), shares))
        ])
        self._regroup()
        self._baseline = [
            (member.resident_blocks(), member.stats.invalidations) for member in members
        ]
        self._accesses = 0
        self._misses = np.zeros(len(members), dtype=np.int64)
        opened = np.array([member._open_interval() for member in members], dtype=np.int64)
        self._open_accesses, self._open_misses = opened.T.copy()

    def _regroup(self) -> None:
        """Derive the leaders, the followers and (direct-mapped) the mask
        classes from the member -> leader map."""
        own = self._leader == np.arange(len(self.members))
        self.leaders = np.flatnonzero(own)
        self._followers = np.flatnonzero(~own)
        self._classes = self._mask_classes() if self._associativity == 1 else None

    def _mask_classes(self):
        """The leaders grouped by set mask: ``(mask, rows, row offsets,
        tag shifts)`` per class, offsets and shifts as ``(c, 1)`` columns."""
        rows_by_mask = {}
        for row, mask in zip(self.leaders.tolist(), self._keys[self.leaders, 0].tolist()):
            rows_by_mask.setdefault(mask, []).append(row)
        classes = []
        for mask, rows in rows_by_mask.items():
            rows = np.array(rows)
            classes.append((mask, rows, self._offsets[rows], self._keys[rows, 1:]))
        return classes

    def _copy_rows(self, source: int, target: int) -> None:
        """Write member ``target``'s rows from member ``source``'s, whose
        blocks it holds, in its own tag shift."""
        shifts = self._keys[:, 1].tolist()
        self.members[target]._tag_plane[...] = _retag(
            self.members[source]._tag_plane, shifts[source], shifts[target]
        )

    def set_masks(self, rows: np.ndarray, masks: np.ndarray) -> List[Tuple[int, int]]:
        """Index the members at ``rows`` with new set masks (DRI members
        that resized) and split the share groups whose masks now differ.

        The members that left their leader's mask follow the first of them
        with their new mask, whose rows become a copy of the old leader's.
        Returns the ``(old leader, new leader)`` pairs.  Call it before
        gating wipes any rows (:meth:`invalidate_from`).
        """
        self._keys[rows, 0] = masks
        masks = self._keys[:, 0]
        splits = {}
        for row in np.flatnonzero(masks != masks[self._leader]).tolist():
            old = int(self._leader[row])
            self._leader[row] = splits.setdefault((old, int(masks[row])), row)
        pairs = [(old, new) for (old, _), new in splits.items()]
        for old, new in pairs:
            self._copy_rows(old, new)
        self._regroup()
        return pairs

    def invalidate_from(self, rows: np.ndarray, sets: np.ndarray) -> None:
        """Invalidate every set from ``sets[i]`` up of the member at
        ``rows[i]`` (what a downsize gates off).

        A share group downsizes as one, so only its leader's rows are
        wiped; each follower counts the blocks its leader dropped.
        """
        dropped = {}
        for row, first in zip(rows.tolist(), sets.tolist()):
            if self._leader[row] == row:
                dropped[row] = self.members[row].invalidate_range(first, self.geometry.num_sets)
        for row in rows.tolist():
            if self._leader[row] != row:
                self.members[row].stats.invalidations += dropped[int(self._leader[row])]

    def followers(self) -> List[Tuple[int, int]]:
        """The ``(follower, leader)`` pairs of the share groups."""
        return list(zip(self._followers.tolist(), self._leader[self._followers].tolist()))

    def classify(self, addresses: np.ndarray, max_probes: int) -> np.ndarray:
        """Classify one chunk for every member; returns the ``(K, n)`` hit mask.

        Only leaders are classified; a follower's row is its leader's.
        The members' accesses and misses are counted here and charged by
        :meth:`settle`.  ``max_probes`` bounds the scratch arrays and
        keeps numpy's cost per probe near its minimum: a direct-mapped
        pass covers at most that many accesses, a set-associative call
        that many composite probes.
        """
        addresses = np.ascontiguousarray(addresses, dtype=np.uint64)
        count = addresses.shape[0]
        blocks = self._blocks(addresses)
        hits = np.empty((len(self.members), count), dtype=bool)
        if self._associativity == 1:
            self._classify_by_mask(blocks, max_probes, hits)
        else:
            self._classify_composite(blocks, max_probes, hits)
        if self._followers.size:
            hits[self._followers] = hits[self._leader[self._followers]]
        misses = count - np.count_nonzero(hits, axis=1)
        self._accesses += count
        self._misses += misses
        self._open_accesses += count
        self._open_misses += misses
        return hits

    def close_intervals(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """End the open interval of the members at ``rows`` and start the
        next; returns their ``(accesses, misses)`` in the one that ended."""
        accesses, misses = self._open_accesses[rows], self._open_misses[rows]
        self._open_accesses[rows] = 0
        self._open_misses[rows] = 0
        return accesses, misses

    def _classify_by_mask(self, blocks, max_accesses, hits) -> None:
        """One per-mask pass per class of leaders sharing a set mask, then
        the class's first probes on its leaders' rows at once."""
        for start in range(0, blocks.shape[0], max_accesses):
            block = blocks[start : start + max_accesses]
            for mask, rows, offsets, shifts in self._classes:
                common, positions, sets, firsts, lasts = _direct_mapped_pass(block, mask)
                _, first_hits = _first_probes(self._dm_plane, offsets + sets, firsts, lasts, shifts)
                hits[rows, start : start + block.shape[0]] = common
                hits[rows[:, None], positions + start] = first_hits

    def _classify_composite(self, blocks, max_probes, hits) -> None:
        """The leaders' composite probes through one wavefront call per
        at most ``max_probes`` of them."""
        leaders = self.leaders
        masks, shifts = self._keys[leaders, :1], self._keys[leaders, 1:]
        offsets = self._offsets[leaders]
        step = max(1, max_probes // leaders.size)
        for start in range(0, blocks.shape[0], step):
            block = blocks[start : start + step]
            sets = (block & masks) + offsets
            probe_hits = self._classify_chunk_assoc(sets.ravel(), (block >> shifts).ravel())
            hits[leaders, start : start + step] = probe_hits.reshape(leaders.size, -1)

    def settle(self) -> None:
        """Write each follower's rows from its leader, then charge each
        member's classifications, once, after its last one.

        Accesses, hits and misses come from the per-member counts, and
        :meth:`~Cache._record_batch` takes them with the member's open
        interval.  A miss either fills an empty frame or evicts, and since
        the bank was built a member's valid frames changed only by those
        fills and by invalidations.  So its evictions are its misses minus
        the growth in valid frames, with the invalidated frames added back.
        """
        for follower, leader in self.followers():
            self._copy_rows(leader, follower)
        state = zip(
            self.members,
            self._baseline,
            self._misses.tolist(),
            self._open_accesses.tolist(),
            self._open_misses.tolist(),
        )
        accesses = self._accesses
        for member, (valid, invalidations), misses, open_accesses, open_misses in state:
            stats = member.stats
            stats.accesses += accesses
            stats.hits += accesses - misses
            stats.misses += misses
            fills = member.resident_blocks() - valid + stats.invalidations - invalidations
            stats.evictions += misses - fills
            member._record_batch(accesses, misses, (open_accesses, open_misses))
