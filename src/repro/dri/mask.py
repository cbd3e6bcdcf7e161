"""The DRI i-cache size mask (Figure 1 of the paper).

A conventional cache uses a fixed number of index bits to pick a set.  The
DRI i-cache resizes by changing the number of *active* sets, so it masks
the index with a value derived from the current size: downsizing shifts
the mask right (fewer index bits), upsizing shifts it left.

Because the smallest size uses the fewest index bits, it needs the most
tag bits.  The DRI i-cache always stores and compares the tag that the
*smallest allowed size* (the size-bound) would use — the extra bits beyond
the conventional tag are the **resizing tag bits**.  Storing them at all
times is what lets the cache keep its contents valid across downsizing
without a flush (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config.system import CacheGeometry


def _log2(value: int) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError(f"expected a power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class SizeMask:
    """Index-masking arithmetic for one (geometry, size-bound) pair.

    All sizes are in bytes and must be powers of two.  The mask works on
    block addresses (addresses with the offset bits already removed).
    """

    geometry: CacheGeometry
    size_bound: int
    address_bits: int = 32

    def __post_init__(self) -> None:
        if self.size_bound < self.geometry.block_size * self.geometry.associativity:
            raise ValueError(
                "size_bound must hold at least one set "
                f"({self.geometry.block_size * self.geometry.associativity} bytes)"
            )
        if self.size_bound > self.geometry.size_bytes:
            raise ValueError("size_bound cannot exceed the full cache size")
        _log2(self.size_bound)  # validates power of two

    # ------------------------------------------------------------------
    # Static properties
    # ------------------------------------------------------------------
    @property
    def full_sets(self) -> int:
        """Number of sets at the full (maximum) size."""
        return self.geometry.num_sets

    @property
    def min_sets(self) -> int:
        """Number of sets at the size-bound (minimum) size."""
        return self.size_bound // (self.geometry.block_size * self.geometry.associativity)

    @property
    def full_index_bits(self) -> int:
        """Index bits used at the full size."""
        return _log2(self.full_sets)

    @property
    def min_index_bits(self) -> int:
        """Index bits used at the size-bound."""
        return _log2(self.min_sets)

    @property
    def resizing_tag_bits(self) -> int:
        """Extra tag bits stored beyond a conventional cache's tag (Section 2.1).

        For the paper's 64K direct-mapped cache with a 1K size-bound this
        is 6 (16 regular tag bits plus 6 resizing bits = 22 total).
        """
        return self.full_index_bits - self.min_index_bits

    @property
    def conventional_tag_bits(self) -> int:
        """Tag bits a conventional cache of the full size would store."""
        return self.geometry.tag_bits(self.address_bits)

    @property
    def total_tag_bits(self) -> int:
        """Tag bits the DRI i-cache stores per block frame."""
        return self.conventional_tag_bits + self.resizing_tag_bits

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    def allowed_sizes(self, divisibility: int = 2) -> List[int]:
        """All sizes reachable by repeated resizing, smallest to largest."""
        if divisibility < 2 or divisibility & (divisibility - 1):
            raise ValueError("divisibility must be a power of two >= 2")
        sizes = []
        size = self.size_bound
        while size <= self.geometry.size_bytes:
            sizes.append(size)
            size *= divisibility
        if sizes[-1] != self.geometry.size_bytes:
            # Divisibility does not divide the range evenly; the cache can
            # still reach the full size as its ceiling.
            sizes.append(self.geometry.size_bytes)
        return sizes

    def sets_for_size(self, size_bytes: int) -> int:
        """Number of active sets when the cache size is ``size_bytes``."""
        if size_bytes < self.size_bound or size_bytes > self.geometry.size_bytes:
            raise ValueError(
                f"size {size_bytes} outside [{self.size_bound}, {self.geometry.size_bytes}]"
            )
        _log2(size_bytes)
        return size_bytes // (self.geometry.block_size * self.geometry.associativity)

    def size_for_sets(self, active_sets: int) -> int:
        """Cache size in bytes when ``active_sets`` sets are enabled."""
        return active_sets * self.geometry.block_size * self.geometry.associativity

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def index_mask(self, active_sets: int) -> int:
        """The AND-mask applied to the block address to pick a set."""
        if active_sets < self.min_sets or active_sets > self.full_sets:
            raise ValueError("active_sets outside the allowed range")
        _log2(active_sets)
        return active_sets - 1

    def set_index(self, block_address: int, active_sets: int) -> int:
        """Set index for a block address at the current size."""
        return block_address & self.index_mask(active_sets)

    def tag(self, block_address: int) -> int:
        """The stored tag: the block address above the *minimum* index bits.

        The same tag is stored and compared at every size, which is what
        makes downsizing safe without a flush.
        """
        return block_address >> self.min_index_bits
