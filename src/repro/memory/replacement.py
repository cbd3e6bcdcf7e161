"""LRU replacement state over the dense tag-plane substrate.

The paper's caches use LRU throughout (Table 1 lists the L1 d-cache as
"2-way (LRU)"), and so does every cache this reproduction builds.

Unlike the classic one-policy-object-per-set design, the state here is a
single object per *cache* that keeps the victim-selection state for every
set in one dense ``(num_sets, associativity)`` array of recency ranks
(0 = most recently used, ``associativity - 1`` = victim), parallel to the
cache's tag plane.

The per-set methods (``touch_one`` / ``fill_one`` / ``victim_one``) drive
the scalar reference path.  The batched classifier of
:meth:`repro.memory.cache.Cache.access_batch` instead works on *work
arrays*: it calls ``gather`` once per chunk to pull the state of every
touched set into a compact array (ordered so each wavefront is a
contiguous prefix), drives the wavefronts through ``victims_block`` /
``update_block``, and calls ``scatter`` once at the end to write the
state back.  Rows of a work array always correspond to *distinct* sets,
which the classifier guarantees by construction.

``reset_range`` restores a span of sets to the exact state of a freshly
constructed strategy (used when the DRI i-cache gates sets off).
"""

from __future__ import annotations

import abc

import numpy as np


class ReplacementState(abc.ABC):
    """Victim-selection state for every set of one cache.

    The work-array methods must be bit-identical to applying the
    corresponding ``*_one`` methods per access: a round trip of ``gather``
    → per-wavefront ``victims_block`` (full sets only) + ``update_block``
    → ``scatter`` leaves exactly the state the scalar path would.
    """

    name: str = "abstract"

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets < 1:
            raise ValueError("num_sets must be at least 1")
        if associativity < 1:
            raise ValueError("associativity must be at least 1")
        self.num_sets = num_sets
        self.associativity = associativity

    # ------------------------------------------------------------------
    # Scalar path (one access)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def touch_one(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abc.abstractmethod
    def fill_one(self, set_index: int, way: int) -> None:
        """Record that ``way`` of ``set_index`` was filled with a new block."""

    @abc.abstractmethod
    def victim_one(self, set_index: int) -> int:
        """The way ``set_index`` would evict next."""

    # ------------------------------------------------------------------
    # Batched path (work arrays over distinct sets)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gather(self, sets: np.ndarray) -> np.ndarray:
        """Copy the state of the distinct ``sets`` into a work array
        (row i holds ``sets[i]``'s state)."""

    @abc.abstractmethod
    def scatter(self, sets: np.ndarray, work: np.ndarray) -> None:
        """Write a work array from :meth:`gather` back to the same ``sets``."""

    @abc.abstractmethod
    def victims_block(self, work: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Victim ways for the work rows ``indices`` (all of them full sets)."""

    @abc.abstractmethod
    def update_block(
        self, work: np.ndarray, active: int, ways: np.ndarray, hit_mask: np.ndarray
    ) -> None:
        """Close one wavefront: work rows ``0..active`` each serviced one
        access on ``ways[i]``, a hit where ``hit_mask[i]`` and a fill
        elsewhere."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reset_range(self, start: int, stop: int) -> None:
        """Restore sets ``start..stop`` to the freshly-constructed state."""

    def reset_one(self, set_index: int) -> None:
        """Restore one set to the freshly-constructed state."""
        self.reset_range(set_index, set_index + 1)

    def reset_all(self) -> None:
        """Restore every set to the freshly-constructed state."""
        self.reset_range(0, self.num_sets)


class LRUState(ReplacementState):
    """Least-recently-used replacement.

    ``ranks[s, w]`` is way ``w``'s position in set ``s``'s recency order
    (0 = most recent); each row is always a permutation of
    ``0..associativity-1``, and the victim is the way with the maximum
    rank.  A fresh set ranks way 0 most recent, matching the historical
    per-set order ``[0, 1, ..., associativity - 1]``.
    """

    name = "lru"

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self.ranks = np.tile(np.arange(associativity, dtype=np.int64), (num_sets, 1))

    def touch_one(self, set_index: int, way: int) -> None:
        row = self.ranks[set_index]
        rank = row[way]
        if rank == 0:  # already most recent (always, when direct-mapped)
            return
        row[row < rank] += 1
        row[way] = 0

    fill_one = touch_one

    def victim_one(self, set_index: int) -> int:
        return int(self.ranks[set_index].argmax())

    def gather(self, sets: np.ndarray) -> np.ndarray:
        return self.ranks[sets]

    def scatter(self, sets: np.ndarray, work: np.ndarray) -> None:
        self.ranks[sets] = work

    def victims_block(self, work: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return work[indices].argmax(axis=1)

    def update_block(
        self, work: np.ndarray, active: int, ways: np.ndarray, hit_mask: np.ndarray
    ) -> None:
        # Hits and fills both promote the used way to most-recent.
        rows = work[:active]
        positions = np.arange(active)
        ranks = rows[positions, ways]
        rows += rows < ranks[:, None]
        rows[positions, ways] = 0

    def reset_range(self, start: int, stop: int) -> None:
        self.ranks[start:stop] = np.arange(self.associativity, dtype=np.int64)
