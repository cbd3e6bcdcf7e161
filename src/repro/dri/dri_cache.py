"""The Dynamically ResIzable instruction cache (the paper's core contribution).

A :class:`DRIICache` behaves exactly like a conventional i-cache of its
full size until it decides, at a sense-interval boundary, to change the
number of active sets:

* **downsizing** disables the highest-numbered sets in powers of two; the
  gated-Vdd transistors of those sets are turned off, so their contents
  are lost (modelled as invalidation) and they stop dissipating leakage;
* **upsizing** re-enables sets; they come back empty, and blocks that now
  map to a different set simply miss once and get refetched (the i-cache
  tolerates the resulting aliases because instructions are read-only,
  Section 2.2).

Lookups always compare the tag of the *smallest allowed size* (regular
tag + resizing tag bits), so the surviving blocks remain valid across
downsizing without any flush or block migration.

The cache counts its accesses and misses per sense interval and consults a
:class:`~repro.dri.controller.ResizeController` at every boundary; all
statistics needed by the Section 5.2 energy formulas are accumulated in a
:class:`~repro.dri.stats.DRIStatistics`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry
from repro.dri.controller import ResizeController, ResizeOutcome
from repro.dri.mask import SizeMask
from repro.dri.stats import DRIStatistics
from repro.dri.throttle import ResizeDecision
from repro.memory.cache import AccessResult, Cache


class DRIICache(Cache):
    """A dynamically resizable, gated-Vdd instruction cache.

    Parameters
    ----------
    geometry:
        Full-size geometry (the conventional cache it replaces).
    parameters:
        Adaptivity parameters (miss-bound, size-bound, interval, divisibility).
    name:
        Label for statistics reports.
    auto_interval:
        If true (default) the cache evaluates the resize decision by itself
        whenever the interval's accesses cover ``parameters.sense_interval``
        *instructions* (each access stands for ``instructions_per_access``
        instructions); if false the driver must call :meth:`end_interval`
        explicitly.
    instructions_per_access:
        Dynamic instructions each cache access represents.  The paper
        approximates one access per instruction (the default); trace-driven
        simulation at fetch-line granularity passes the trace's
        instructions-per-line so the sense interval means *instructions* in
        both drive modes.
    """

    fused_chunk = None
    """Placeholder for a removed method.  ``perfbench/layers.py`` (lines
    305-315) reads ``DRIICache.fused_chunk`` and
    ``DRIICache.__dict__["fused_chunk"]`` when it installs its tracing
    wrappers.  The next change to the benchmark drops perfbench's
    ``repro.memory.kernels`` import, that wrapper and the ``dri.fused.*``
    metrics; this attribute and :mod:`repro.memory.kernels` then go."""

    def __init__(
        self,
        geometry: CacheGeometry,
        parameters: DRIParameters,
        name: str = "DRI-L1I",
        address_bits: int = 32,
        auto_interval: bool = True,
        instructions_per_access: int = 1,
    ) -> None:
        super().__init__(geometry, name=name)
        if instructions_per_access < 1:
            raise ValueError("instructions_per_access must be at least 1")
        self.parameters = parameters
        self.mask = SizeMask(geometry, parameters.size_bound, address_bits=address_bits)
        self.controller = ResizeController(parameters, self.mask)
        self.dri_stats = DRIStatistics(full_size_bytes=geometry.size_bytes)
        self.auto_interval = auto_interval
        self.instructions_per_access = instructions_per_access
        self._interval_length_accesses = max(
            1, parameters.sense_interval // instructions_per_access
        )
        self._interval_accesses = 0
        self._interval_misses = 0
        self._min_index_bits = self.mask.min_index_bits

    # ------------------------------------------------------------------
    # Size queries
    # ------------------------------------------------------------------
    @property
    def current_size_bytes(self) -> int:
        """The cache capacity currently powered on, in bytes."""
        return self.controller.current_size

    @property
    def current_sets(self) -> int:
        """The number of sets currently enabled."""
        return self.controller.current_sets

    @property
    def active_fraction(self) -> float:
        """Enabled capacity as a fraction of the full capacity (right now)."""
        return self.current_size_bytes / self.geometry.size_bytes

    @property
    def resizing_tag_bits(self) -> int:
        """Extra tag bits stored to support downsizing to the size-bound."""
        return self.mask.resizing_tag_bits

    @property
    def interval_length_accesses(self) -> int:
        """Sense-interval length in accesses (the one conversion from the
        instruction-denominated ``sense_interval``; drivers align on this)."""
        return self._interval_length_accesses

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, address: int) -> AccessResult:
        """Fetch lookup with the current size mask and min-size tags."""
        block = self.block_address(address)
        set_index = block & (self.controller.current_sets - 1)
        tag = block >> self._min_index_bits
        result = self._access_set(set_index, tag)
        self.dri_stats.record_access(result.hit)
        self._interval_accesses += 1
        if not result.hit:
            self._interval_misses += 1
        if self.auto_interval and self._interval_accesses >= self._interval_length_accesses:
            self.end_interval()
        return result

    def _access_batch_chunks(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised lookup under the current size mask and min-size tags.

        Chunks are split internally at sense-interval boundaries (in auto
        mode) so batched and scalar driving see identical interval counts
        and resize points; the active set count is re-read after every
        boundary because a resize may have changed it.  The classification
        itself is the base cache's (direct-mapped or wavefront
        set-associative) under :meth:`_index_key`.
        """
        total = addresses.shape[0]
        hits = np.empty(total, dtype=bool)
        position = 0
        while position < total:
            if self.auto_interval and self._interval_accesses >= self._interval_length_accesses:
                self.end_interval()
            take = total - position
            if self.auto_interval:
                take = min(take, self._interval_length_accesses - self._interval_accesses)
            chunk = addresses[position : position + take]
            block = (chunk >> np.uint64(self._offset_bits)).astype(np.int64)
            chunk_hits = self._classify_chunk(block)
            misses = take - int(np.count_nonzero(chunk_hits))
            self.dri_stats.record_accesses(take, misses)
            self._interval_accesses += take
            self._interval_misses += misses
            hits[position : position + take] = chunk_hits
            position += take
            if self.auto_interval and self._interval_accesses >= self._interval_length_accesses:
                self.end_interval()
        return hits

    def _index_key(self) -> Tuple[int, int]:
        """The active-set mask and the minimum-size tag shift."""
        return self.controller.current_sets - 1, self._min_index_bits

    def _open_interval(self) -> Tuple[int, int]:
        """``(accesses, misses)`` of the open sense interval."""
        return self._interval_accesses, self._interval_misses

    def _record_batch(self, accesses: int, misses: int, open_interval: Tuple[int, int]) -> None:
        """Charge a bank's classifications to the statistics, and leave
        ``open_interval`` open (the group pass closed the rest)."""
        self.dri_stats.record_accesses(accesses, misses)
        self._interval_accesses, self._interval_misses = open_interval

    # ------------------------------------------------------------------
    # Interval handling
    # ------------------------------------------------------------------
    def end_interval(self, instructions: Optional[int] = None) -> ResizeOutcome:
        """Close the current sense interval and apply the resize decision.

        ``instructions`` defaults to the interval's access count times
        ``instructions_per_access`` (with the default of one access per
        instruction this is the paper's approximation).
        """
        accesses = self._interval_accesses
        misses = self._interval_misses
        if instructions is None:
            instructions = accesses * self.instructions_per_access
        size_during = self.controller.current_size
        outcome = self.controller.end_of_interval(
            misses, accesses=accesses, instructions=instructions
        )
        if outcome.decision is ResizeDecision.DOWNSIZE and outcome.changed:
            self._disable_sets(outcome.new_size)
        self.dri_stats.record_interval(
            instructions=instructions,
            accesses=accesses,
            misses=misses,
            size_bytes_during=size_during,
            size_bytes_at_end=outcome.new_size,
            resized=outcome.decision.value if outcome.changed else "none",
            throttled=outcome.throttled,
        )
        self._interval_accesses = 0
        self._interval_misses = 0
        return outcome

    def _disable_sets(self, new_size: int) -> None:
        """Invalidate the sets being gated off by a downsize to ``new_size``."""
        self.invalidate_range(self.mask.sets_for_size(new_size), self.num_sets)

    # ------------------------------------------------------------------
    # Run finalisation
    # ------------------------------------------------------------------
    def finalize(self, instructions: Optional[int] = None) -> None:
        """Flush a partial final interval into the statistics (no resize).

        Raises ``ValueError`` if a gated-off set (at or above
        :attr:`current_sets`) holds a valid tag: gating must have wiped
        it, and nothing indexes it until an upsize re-enables it empty.
        A set-associative cache's rows must also stay recency lists: no
        valid tag after an invalid frame, and no tag twice.
        """
        plane = self._tag_plane
        if (plane[self.current_sets :] != -1).any():
            raise ValueError(
                f"{self.name}: a gated-off set above the {self.current_sets} active "
                f"sets holds a valid tag (parameters: {self.parameters})"
            )
        if self.geometry.associativity > 1:
            valid = plane != -1
            ordered = np.sort(plane, axis=1)
            for defect, frames in (
                ("a valid tag after an invalid frame", valid[:, 1:] > valid[:, :-1]),
                ("one tag twice", (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != -1)),
            ):
                rows = np.flatnonzero(frames.any(axis=1))
                if rows.size:
                    raise ValueError(
                        f"{self.name}: set {rows[0]} holds {defect} "
                        f"(parameters: {self.parameters})"
                    )
        if self._interval_accesses == 0:
            return
        accesses = self._interval_accesses
        misses = self._interval_misses
        if instructions is None:
            instructions = accesses * self.instructions_per_access
        self.dri_stats.record_interval(
            instructions=instructions,
            accesses=accesses,
            misses=misses,
            size_bytes_during=self.controller.current_size,
            size_bytes_at_end=self.controller.current_size,
            resized="none",
        )
        self._interval_accesses = 0
        self._interval_misses = 0

    def reset(self) -> None:
        """Return to full size, drop all contents, and zero all statistics."""
        self.flush()
        self.stats.reset()
        self.controller.reset()
        self.dri_stats = DRIStatistics(full_size_bytes=self.geometry.size_bytes)
        self._interval_accesses = 0
        self._interval_misses = 0
