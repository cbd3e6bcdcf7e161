"""Result containers produced by the simulator.

A :class:`SimulationResult` captures everything one run produces —
architectural counts, timing, and (for DRI runs) the resizing statistics —
in a form the energy model and the experiment drivers can consume without
re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dri.stats import DRIStatistics
from repro.energy.model import RunStatistics


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one benchmark on one i-cache configuration.

    Attributes
    ----------
    benchmark:
        Benchmark name.
    cache_kind:
        ``"conventional"`` or ``"dri"``.
    instructions:
        Dynamic instructions simulated.
    cycles:
        Execution time in cycles from the timing model.
    l1_accesses / l1_misses:
        L1 i-cache line accesses and misses.
    l2_accesses / l2_misses:
        Accesses to and misses in the unified L2 caused by i-fetch, so
        ``l2_accesses == l1_misses``; construction checks this law too.
    dri_stats:
        Resizing statistics (None for conventional runs).
    resizing_tag_bits:
        Number of resizing tag bits the configuration stores (0 for
        conventional runs).
    engine:
        The replay engine that executed the run — ``"batched"`` or
        ``"scalar"``, never ``"auto"``.  Empty for results built by
        callers that predate the field.
    """

    benchmark: str
    cache_kind: str
    instructions: int
    cycles: int
    l1_accesses: int
    l1_misses: int
    l2_accesses: int
    l2_misses: int
    dri_stats: Optional[DRIStatistics] = None
    resizing_tag_bits: int = 0
    engine: str = ""

    def __post_init__(self) -> None:
        if self.cache_kind not in ("conventional", "dri"):
            raise ValueError("cache_kind must be 'conventional' or 'dri'")
        counts = (
            self.instructions,
            self.cycles,
            self.l1_accesses,
            self.l1_misses,
            self.l2_accesses,
            self.l2_misses,
        )
        if min(counts) < 0:
            raise ValueError("counts cannot be negative")
        # Conservation laws of an i-fetch-only hierarchy; O(intervals).
        if self.l1_misses > self.l1_accesses:
            raise ValueError("conservation: l1_misses exceeds l1_accesses")
        if self.l2_misses > self.l2_accesses:
            raise ValueError("conservation: l2_misses exceeds l2_accesses")
        if self.l2_accesses != self.l1_misses:
            raise ValueError("conservation: l2_accesses differs from l1_misses")
        if self.dri_stats is not None:
            columns = self.dri_stats.interval_columns()
            if sum(columns["accesses"]) != self.l1_accesses:
                raise ValueError("conservation: interval accesses do not sum to l1_accesses")
            if sum(columns["misses"]) != self.l1_misses:
                raise ValueError("conservation: interval misses do not sum to l1_misses")
            # The resize ladder holds powers of two up to the full size.
            full = self.dri_stats.full_size_bytes
            names = ("size_bytes_during", "size_bytes_at_end")
            for index, sizes in enumerate(zip(*(columns[name] for name in names))):
                for name, size in zip(names, sizes):
                    if size < 1 or size & (size - 1) or size > full:
                        raise ValueError(
                            f"conservation: interval {index} {name} {size} is not a "
                            f"power of two at most full_size_bytes {full}"
                        )

    @property
    def l1_miss_rate(self) -> float:
        """L1 i-cache misses per L1 access."""
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_misses / self.l1_accesses

    @property
    def miss_rate_per_instruction(self) -> float:
        """L1 i-cache misses per instruction (the paper's miss-rate basis)."""
        if self.instructions == 0:
            return 0.0
        return self.l1_misses / self.instructions

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def average_size_fraction(self) -> float:
        """Average active size as a fraction of the full size (1.0 for conventional)."""
        if self.dri_stats is None:
            return 1.0
        return self.dri_stats.average_size_fraction

    def run_statistics(self, conventional: "SimulationResult") -> RunStatistics:
        """Build the Section 5.2 inputs, given the matching conventional run.

        The extra L2 accesses are the DRI run's L2 accesses beyond what the
        conventional i-cache generated over the same instruction stream.
        The L1 access count used for the resizing-tag energy is the
        instruction count, following the paper's one-access-per-instruction
        approximation (the line-granular simulation would otherwise
        undercount the tag-array activations).
        """
        if conventional.cache_kind != "conventional":
            raise ValueError("expected a conventional baseline result")
        if conventional.benchmark != self.benchmark:
            raise ValueError("baseline and DRI results are for different benchmarks")
        extra_l2 = max(0, self.l2_accesses - conventional.l2_accesses)
        return RunStatistics(
            cycles=self.cycles,
            l1_accesses=self.instructions,
            active_fraction=self.average_size_fraction,
            resizing_tag_bits=self.resizing_tag_bits,
            extra_l2_accesses=extra_l2,
            execution_time_cycles=self.cycles,
        )
