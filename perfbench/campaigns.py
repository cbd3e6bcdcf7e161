"""The benchmark's workloads: one campaign per call, through the public API.

Every workload is a closed loop of campaigns driven from one process; a
campaign is what one user command does.  Each campaign builds a fresh
``Simulator`` and ``ParameterSweep`` (``engine="auto"``), runs, and
closes the sweep, which shuts its worker pool down.

* ``fig3-serial`` / ``fig3-pool2`` -- ``figure3_experiment`` at
  ``DEFAULT_SCALE`` over all 15 benchmarks: 240 DRI grid runs plus 15
  conventional baselines of 600k instructions, at ``jobs=1`` and on a
  two-worker pool.
* ``paper-scale-dm`` -- streamed traces (never materialised) of 10M line
  fetches for one benchmark per behaviour class, each run conventional
  plus miss-bound DRI at the paper's own one-million-instruction sense
  interval on Table 1's 64K direct-mapped L1.  The miss-bound is the
  Figure 3 grid's 30 misses per 12,500 instructions scaled by 80 to the
  1M-instruction interval (DESIGN.md §5).

A campaign function is the timed part.  It returns a function that,
called afterwards and untimed, reads every ``SimulationResult`` back out
of the closed sweep's memo into a ``Campaign``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.config.parameters import DRIParameters
from repro.config.system import SystemConfig
from repro.energy.model import EnergyModel
from repro.simulation.executor import CampaignHealth
from repro.simulation.experiments import DEFAULT_SCALE, figure3_experiment
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import stream_trace
from repro.workloads.spec95 import benchmark_names, get_benchmark

PAPER_ACCESSES = 10_000_000
"""Line fetches per paper-scale trace (80M instructions at 8 per line)."""

PAPER_BENCHMARKS = ("li", "go", "gcc")
"""One benchmark per behaviour class: small footprint, large, phased."""

PAPER_PARAMETERS = DRIParameters(miss_bound=30 * 80, size_bound=1024, sense_interval=1_000_000)

INSTRUCTIONS_PER_LINE = 8


Run = Tuple[Optional[DRIParameters], SimulationResult]
"""One simulation: its DRI parameters (None for a conventional run) and result."""


@dataclass
class Campaign:
    """Every run one campaign produced, plus the sweep's health ledger."""

    runs: List[Run]
    health: CampaignHealth
    system: SystemConfig
    figure3: Optional[Dict[str, float]] = None

    @property
    def results(self) -> List[SimulationResult]:
        return [result for _, result in self.runs]

    @property
    def instructions(self) -> int:
        return sum(result.instructions for result in self.results)

    @property
    def engines(self) -> List[str]:
        """The concrete engines the runs resolved to."""
        return sorted({result.engine for result in self.results})

    def digest(self) -> str:
        """SHA-256 over every run's simulated outputs, in a fixed order.

        Covers cycles, L1 and L2 counts, and the DRI interval records
        (accesses, misses, sizes, decisions) of each run, plus the
        Figure 3 suite means where the campaign has them.  The engine
        that ran is left out: the engines are bit-identical by contract.
        """
        rows = sorted(json.dumps(_run_row(parameters, result)) for parameters, result in self.runs)
        payload = json.dumps({"runs": rows, "figure3": self.figure3}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def problems(self) -> List[str]:
        """Conservation laws every run must satisfy, whatever the seed."""
        found: List[str] = []
        for result in self.results:
            found.extend(_invariant_problems(result, self.system))
        return found


def _run_row(parameters: Optional[DRIParameters], result: SimulationResult) -> list:
    row = [
        None if parameters is None else [parameters.miss_bound, parameters.size_bound, parameters.sense_interval],
        result.benchmark,
        result.cache_kind,
        result.instructions,
        result.cycles,
        result.l1_accesses,
        result.l1_misses,
        result.l2_accesses,
        result.l2_misses,
        result.resizing_tag_bits,
    ]
    stats = result.dri_stats
    if stats is not None:
        row.append([stats.upsizings, stats.downsizings, stats.throttled_downsizings])
        row.append(
            [
                [r.instructions, r.accesses, r.misses, r.size_bytes_during, r.size_bytes_at_end, r.resized]
                for r in stats.intervals
            ]
        )
    return row


def _invariant_problems(result: SimulationResult, system: SystemConfig) -> List[str]:
    name = f"{result.benchmark}/{result.cache_kind}"
    problems = []
    if result.l1_accesses * INSTRUCTIONS_PER_LINE != result.instructions:
        problems.append(f"{name}: {result.l1_accesses} fetches for {result.instructions} instructions")
    if result.l2_accesses != result.l1_misses:
        problems.append(f"{name}: {result.l2_accesses} L2 accesses for {result.l1_misses} L1 misses")
    if not 0 <= result.l2_misses <= result.l2_accesses:
        problems.append(f"{name}: {result.l2_misses} L2 misses out of range")
    if result.cycles < result.l1_accesses:
        problems.append(f"{name}: {result.cycles} cycles for {result.l1_accesses} fetches")
    stats = result.dri_stats
    if stats is not None:
        if sum(r.accesses for r in stats.intervals) != result.l1_accesses:
            problems.append(f"{name}: interval accesses do not sum to the run's")
        if sum(r.misses for r in stats.intervals) != result.l1_misses:
            problems.append(f"{name}: interval misses do not sum to the run's")
        full = system.l1_icache.size_bytes
        if any(r.size_bytes_during > full or r.size_bytes_during & (r.size_bytes_during - 1) for r in stats.intervals):
            problems.append(f"{name}: an interval size is off the size ladder")
    return problems


Collect = Callable[[], Campaign]


def figure3_campaign(seed: int, jobs: int) -> Collect:
    """Figure 3 at default scale: the paper's per-benchmark grid search."""
    scale = replace(DEFAULT_SCALE, seed=seed)
    simulator = Simulator(
        trace_instructions=scale.trace_instructions, seed=scale.seed, engine="auto"
    )
    sweep = ParameterSweep(
        simulator=simulator,
        energy_model=EnergyModel(),
        base_parameters=scale.base_parameters(),
        jobs=jobs,
    )
    with sweep:
        figure = figure3_experiment(scale=scale, sweep=sweep)

    def collect() -> Campaign:
        # All memo hits: the sweep is closed and runs nothing new.
        grids = sweep.grid_many(
            benchmark_names(), miss_bounds=scale.miss_bounds, size_bounds=scale.size_bounds
        )
        runs: List[Run] = []
        for grid in grids.values():
            runs.append((None, grid.conventional))
            runs.extend((point.parameters, point.simulation) for point in grid.points)
        return Campaign(
            runs=runs,
            health=sweep.health,
            system=simulator.system,
            figure3={
                "constrained_energy_delay_reduction": figure.mean_energy_delay_reduction(True),
                "unconstrained_energy_delay_reduction": figure.mean_energy_delay_reduction(False),
                "constrained_size_reduction": figure.mean_size_reduction(True),
                "unconstrained_size_reduction": figure.mean_size_reduction(False),
            },
        )

    return collect


def paper_scale_campaign(seed: int) -> Collect:
    """Streamed paper-length runs, conventional plus DRI per benchmark."""
    simulator = Simulator(seed=seed, engine="auto")
    sweep = ParameterSweep(simulator=simulator, base_parameters=PAPER_PARAMETERS)
    sources = [
        stream_trace(
            get_benchmark(name),
            total_instructions=PAPER_ACCESSES * INSTRUCTIONS_PER_LINE,
            seed=seed,
        )
        for name in PAPER_BENCHMARKS
    ]
    with sweep:
        points = sweep.evaluate_many([(source, PAPER_PARAMETERS) for source in sources])

    def collect() -> Campaign:
        runs: List[Run] = [(None, sweep.conventional_baseline(source)) for source in sources]
        runs.extend((point.parameters, point.simulation) for point in points)
        return Campaign(runs=runs, health=sweep.health, system=simulator.system)

    return collect


WORKLOADS: Dict[str, Callable[[int], Collect]] = {
    "fig3-serial": lambda seed: figure3_campaign(seed, jobs=1),
    "fig3-pool2": lambda seed: figure3_campaign(seed, jobs=2),
    "paper-scale-dm": paper_scale_campaign,
}
"""Each workload's campaign: ``WORKLOADS[name](seed)`` runs one (timed) and
returns the untimed collect step."""

POOLED = frozenset({"fig3-pool2"})
"""Workloads whose worker pool keeps every vCPU busy during a campaign."""
