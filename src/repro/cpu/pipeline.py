"""Approximate out-of-order pipeline timing model.

The paper runs SimpleScalar's cycle-accurate ``sim-outorder``; this
reproduction uses a first-order analytical model of the same Table 1 core
(8-wide issue, 128-entry ROB, 128-entry LSQ).  There is no branch
predictor model: mispredictions are folded into the base CPI below.
The model is deliberately simple — the DRI evaluation needs only the
*relative* execution time between a conventional i-cache and a DRI
i-cache, and that difference is driven almost entirely by the extra L1
i-cache misses.

Timing accounting
-----------------
For every committed instruction the model charges the benchmark's base CPI
(covering issue-width limits, data-cache misses, dependence stalls, and
branch mispredictions).  On top of that it charges, per instruction-fetch
miss, the miss latency reduced by an **overlap factor**: an out-of-order
core can hide part of a front-end stall by draining instructions already
in the reorder buffer, and the deeper the ROB relative to the miss
latency, the more of it is hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.system import PipelineConfig


@dataclass
class TimingBreakdown:
    """Where the cycles of a run went."""

    base_cycles: float = 0.0
    fetch_stall_cycles: float = 0.0

    @property
    def total_cycles(self) -> int:
        """Total execution time in whole cycles."""
        return int(round(self.base_cycles + self.fetch_stall_cycles))


@dataclass
class TimingModel:
    """Analytical out-of-order timing accounting.

    Parameters
    ----------
    pipeline:
        The Table 1 core parameters.
    base_cpi:
        Cycles per instruction of everything except i-cache misses;
        workload models provide a per-benchmark value.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    base_cpi: float = 0.75

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ValueError("base CPI must be positive")
        self._breakdown = TimingBreakdown()

    # ------------------------------------------------------------------
    # Overlap model
    # ------------------------------------------------------------------
    def fetch_stall_overlap(self, miss_latency: int) -> float:
        """Fraction of a fetch-miss latency hidden by the out-of-order window.

        While fetch is stalled the back end can keep committing the
        instructions already in the ROB.  At the benchmark's base CPI the
        ROB can cover roughly ``rob_size * base_cpi`` cycles of stall; the
        hidden fraction is that cover divided by the miss latency, capped
        below one so long-latency (memory) misses are never fully hidden.
        """
        if miss_latency <= 0:
            return 1.0
        cover_cycles = self.pipeline.reorder_buffer_size * self.base_cpi
        # Fetch restart and ROB refill are never free: cap the hidden
        # fraction so at least 40% of the latency is always exposed.
        return min(0.6, cover_cycles / (cover_cycles + miss_latency * 4.0))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def account_instructions(self, count: int) -> None:
        """Charge the base CPI for ``count`` committed instructions."""
        if count < 0:
            raise ValueError("instruction count cannot be negative")
        self._breakdown.base_cycles += count * self.base_cpi

    def account_fetch_miss(self, miss_latency: int) -> None:
        """Charge one instruction-fetch miss of ``miss_latency`` cycles."""
        if miss_latency < 0:
            raise ValueError("latency cannot be negative")
        exposed = miss_latency * (1.0 - self.fetch_stall_overlap(miss_latency))
        self._breakdown.fetch_stall_cycles += exposed

    def account_fetch_misses(self, miss_latency: int, count: int) -> None:
        """Charge ``count`` identical fetch misses in one call (sweep fast path)."""
        if count < 0:
            raise ValueError("count cannot be negative")
        if count == 0:
            return
        exposed = miss_latency * (1.0 - self.fetch_stall_overlap(miss_latency))
        self._breakdown.fetch_stall_cycles += exposed * count

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def breakdown(self) -> TimingBreakdown:
        """The cycle breakdown accumulated so far."""
        return self._breakdown

    @property
    def cycles(self) -> int:
        """Total cycles accumulated so far."""
        return self._breakdown.total_cycles

    def execution_time_seconds(self) -> float:
        """Wall-clock execution time at the configured frequency."""
        return self.cycles / self.pipeline.frequency_hz

    def reset(self) -> None:
        """Zero the accumulated cycle counts."""
        self._breakdown = TimingBreakdown()
