"""Per-interval and whole-run statistics of a DRI i-cache.

The energy accounting (Section 5.2) needs the **active fraction** of the
cache averaged over the execution, the total access and miss counts, and
the number of extra L2 accesses relative to a conventional cache; the
figures additionally report the **average cache size**.  This module
collects those quantities as the cache runs, keeping per-interval columns
so examples, benches and ``repro run --trajectory`` can plot the size
trajectory against the application's phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class IntervalRecord:
    """What happened during one sense interval."""

    index: int
    instructions: int
    accesses: int
    misses: int
    size_bytes_at_end: int
    size_bytes_during: int
    resized: str

    @property
    def miss_rate(self) -> float:
        """Miss rate within this interval."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


_COLUMNS = (
    "instructions", "accesses", "misses", "size_bytes_during", "size_bytes_at_end", "resized"
)
"""The stored interval columns, in :meth:`DRIStatistics.extend_intervals`
order: every :class:`IntervalRecord` field but ``index``, which is a
record's position."""


@dataclass
class DRIStatistics:
    """Accumulated statistics of one DRI i-cache run.

    The interval records are kept as columns, one list per
    :class:`IntervalRecord` field; :attr:`intervals` builds the records
    when read.
    """

    full_size_bytes: int
    accesses: int = 0
    misses: int = 0
    upsizings: int = 0
    downsizings: int = 0
    throttled_downsizings: int = 0
    _columns: Dict[str, list] = field(
        default_factory=lambda: {name: [] for name in _COLUMNS}, repr=False
    )
    _size_weighted_instructions: float = 0.0
    _instructions_observed: int = 0
    size_histogram: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_access(self, hit: bool) -> None:
        """Record one cache access."""
        self.accesses += 1
        if not hit:
            self.misses += 1

    def record_accesses(self, count: int, misses: int) -> None:
        """Record a whole chunk of accesses at once (batched engine path)."""
        if count < 0 or misses < 0 or misses > count:
            raise ValueError("need 0 <= misses <= count")
        self.accesses += count
        self.misses += misses

    def record_interval(
        self,
        instructions: int,
        accesses: int,
        misses: int,
        size_bytes_during: int,
        size_bytes_at_end: int,
        resized: str,
        throttled: bool = False,
    ) -> None:
        """Record the end of one sense interval.

        ``size_bytes_during`` is the size that was in effect while the
        interval ran (the size chosen at the *previous* boundary);
        ``size_bytes_at_end`` is the size chosen for the next interval.
        """
        self.extend_intervals((instructions,), (accesses,), (misses,), (size_bytes_during,),
                              (size_bytes_at_end,), (resized,), int(throttled))

    def extend_intervals(
        self,
        instructions: Sequence[int],
        accesses: Sequence[int],
        misses: Sequence[int],
        size_bytes_during: Sequence[int],
        size_bytes_at_end: Sequence[int],
        resized: Sequence[str],
        throttled: int = 0,
    ) -> None:
        """Record the ends of successive sense intervals, one column per
        field (as :meth:`record_interval` per interval, in order);
        ``throttled`` counts the downsizes the throttle refused in them."""
        columns = (instructions, accesses, misses, size_bytes_during, size_bytes_at_end, resized)
        if len(set(map(len, columns))) > 1:
            raise ValueError("interval columns must have equal lengths")
        for name, column in zip(_COLUMNS, columns):
            self._columns[name].extend(column)
        # One float add per interval, in order, so the weighted sum rounds
        # exactly as recording the intervals one at a time does.
        weighted, histogram = self._size_weighted_instructions, self.size_histogram
        for size, count in zip(size_bytes_during, instructions):
            weighted += size * count
            histogram[size] = histogram.get(size, 0) + count
        self._size_weighted_instructions = weighted
        self._instructions_observed += sum(instructions)
        self.upsizings += resized.count("upsize")
        self.downsizings += resized.count("downsize")
        self.throttled_downsizings += throttled

    # ------------------------------------------------------------------
    # Interval records
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> List[IntervalRecord]:
        """Every sense interval's record, in order (built on each read)."""
        rows = zip(*(self._columns[name] for name in _COLUMNS))
        return [
            IntervalRecord(index, instructions, accesses, misses, at_end, during, resized)
            for index, (instructions, accesses, misses, during, at_end, resized) in enumerate(rows)
        ]

    def interval_columns(self) -> Dict[str, list]:
        """The interval records as columns, a fresh list each: ``index``,
        then the other fields in :meth:`extend_intervals` order (the
        ``repro run --trajectory`` CSV columns)."""
        columns = {"index": list(range(len(self._columns["accesses"])))}
        columns.update((name, list(self._columns[name])) for name in _COLUMNS)
        return columns

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def miss_rate(self) -> float:
        """Whole-run L1 miss rate."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def average_size_bytes(self) -> float:
        """Instruction-weighted average cache size over the run."""
        if self._instructions_observed == 0:
            return float(self.full_size_bytes)
        return self._size_weighted_instructions / self._instructions_observed

    @property
    def average_size_fraction(self) -> float:
        """Average size as a fraction of the full cache size (Figure 3, right)."""
        return self.average_size_bytes / self.full_size_bytes

    @property
    def average_active_fraction(self) -> float:
        """Alias used by the energy formulas (identical to the size fraction)."""
        return self.average_size_fraction

    @property
    def resizings(self) -> int:
        """Total number of size changes."""
        return self.upsizings + self.downsizings

    @property
    def instructions_observed(self) -> int:
        """Total dynamic instructions covered by recorded intervals."""
        return self._instructions_observed

    def size_time_fractions(self) -> Dict[int, float]:
        """Fraction of execution spent at each size (instruction-weighted)."""
        if self._instructions_observed == 0:
            return {}
        return {
            size: count / self._instructions_observed
            for size, count in sorted(self.size_histogram.items())
        }

    def size_trajectory(self) -> List[int]:
        """The cache size in effect during each successive interval."""
        return list(self._columns["size_bytes_during"])
