"""Trace-driven simulation of conventional and DRI i-caches.

:class:`Simulator` runs one benchmark's instruction-fetch trace through an
L1 i-cache (conventional :class:`~repro.memory.cache.Cache` or
:class:`~repro.dri.dri_cache.DRIICache`) backed by the Table 1 L2/memory
hierarchy, accounts execution time with the out-of-order timing model, and
returns a :class:`~repro.simulation.results.SimulationResult`.

The simulator caches generated traces so a parameter sweep replays exactly
the same reference stream for every configuration of a benchmark — the
same methodology as the paper's (one SimpleScalar binary/input per
benchmark, many cache configurations).

The replay itself lives in :mod:`repro.simulation.engine`; the simulator
is a thin wrapper that builds the caches and selects the scalar or batched
engine (``engine="auto"`` means batched).  The engines are bit-identical:
the dense tag-plane substrate vectorises direct-mapped and
set-associative classification alike (DESIGN.md §6).  Every
:class:`SimulationResult` records the engine that executed it.

Workloads resolve to a :class:`~repro.workloads.source.TraceSource`:
benchmark names and specs become (cached) in-memory traces, while any
pre-built source — a streamed :func:`~repro.workloads.generator.stream_trace`,
an mmapped :class:`~repro.workloads.source.TraceStore`, an external
:class:`~repro.workloads.source.DinTraceSource` — replays as-is, chunk by
chunk, at flat memory.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config.parameters import DRIParameters
from repro.config.system import DEFAULT_SYSTEM, SystemConfig
from repro.dri.dri_cache import DRIICache
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import Member, TraceLike, replay_lockstep
from repro.simulation.engine import replay as engine_replay
from repro.simulation.engine import resolve_engine
from repro.simulation.results import SimulationResult
from repro.workloads.generator import generate_trace
from repro.workloads.phases import WorkloadSpec
from repro.workloads.source import TraceSource
from repro.workloads.spec95 import get_benchmark
from repro.workloads.trace import InstructionTrace

WorkloadLike = Union[str, WorkloadSpec, InstructionTrace, TraceSource]


class Simulator:
    """Runs benchmarks against i-cache configurations.

    Parameters
    ----------
    system:
        The simulated system (Table 1 defaults).
    trace_instructions:
        Dynamic instruction count of generated traces.
    seed:
        Trace-generation seed (all configurations of one benchmark share
        the same trace).
    engine:
        Replay engine: ``"auto"`` (default, meaning ``"batched"``),
        ``"batched"``, or ``"scalar"``.  The engines are bit-identical;
        ``"scalar"`` exists as the semantic reference and for the
        throughput benchmarks.
    """

    def __init__(
        self,
        system: SystemConfig = DEFAULT_SYSTEM,
        trace_instructions: int = 600_000,
        seed: int = 2001,
        engine: str = "auto",
    ) -> None:
        if trace_instructions < 1:
            raise ValueError("trace_instructions must be positive")
        self.system = system
        self.trace_instructions = trace_instructions
        self.seed = seed
        self.engine = resolve_engine(engine)
        self._trace_cache: Dict[Tuple[str, int, int], InstructionTrace] = {}

    # ------------------------------------------------------------------
    # Workload handling
    # ------------------------------------------------------------------
    def resolve_workload(self, workload: WorkloadLike) -> Tuple[TraceLike, float]:
        """Return the (trace, base CPI) pair for a workload argument.

        ``workload`` may be a benchmark name, a :class:`WorkloadSpec`, a
        pre-generated :class:`InstructionTrace`, or any
        :class:`TraceSource` (streamed, mmapped store, external reader).
        For traces and sources the base CPI defaults to the registry value
        if the benchmark identity (``base_name``, which :meth:`split`
        pieces keep) matches a benchmark, else a generic 0.75.
        """
        if isinstance(workload, (InstructionTrace, TraceSource)):
            benchmark = (
                workload.benchmark_name
                if isinstance(workload, InstructionTrace)
                else workload.base_name
            )
            base_cpi = 0.75
            try:
                base_cpi = get_benchmark(benchmark).base_cpi
            except KeyError:
                pass
            return workload, base_cpi
        spec = get_benchmark(workload) if isinstance(workload, str) else workload
        key = (spec.name, self.trace_instructions, self.seed)
        trace = self._trace_cache.get(key)
        if trace is None:
            trace = generate_trace(
                spec, total_instructions=self.trace_instructions, seed=self.seed
            )
            self._trace_cache[key] = trace
        return trace, spec.base_cpi

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run_conventional(self, workload: WorkloadLike) -> SimulationResult:
        """Simulate the conventional (fixed-size) i-cache baseline."""
        trace, base_cpi = self.resolve_workload(workload)
        return self.run_many(trace, base_cpi, [None])[0]

    def run_fixed_size(
        self,
        workload: WorkloadLike,
        size_bytes: int,
        associativity: int | None = None,
    ) -> SimulationResult:
        """Simulate a statically resized i-cache of ``size_bytes``.

        This is the "design-time" alternative to the DRI i-cache: a cache
        permanently built (or permanently gated) at a smaller size, with no
        adaptation.  It is used by the static-versus-dynamic ablation
        (DESIGN.md): for phased applications no single static size can
        match the DRI i-cache, which is the paper's core motivation for
        resizing *dynamically*.
        """
        trace, base_cpi = self.resolve_workload(workload)
        geometry = self.system.l1_icache
        fixed_geometry = replace(
            geometry,
            size_bytes=size_bytes,
            associativity=associativity if associativity is not None else geometry.associativity,
        )
        run = (
            Cache(fixed_geometry, name=f"L1I-{size_bytes // 1024}K"),
            MemoryHierarchy(self.system),
            None,
        )
        cycles = engine_replay(trace, *run[:2], base_cpi, self.system, engine=self.engine)
        return self._result(trace, run, cycles)

    def run_dri(self, workload: WorkloadLike, parameters: DRIParameters) -> SimulationResult:
        """Simulate the DRI i-cache with the given adaptivity parameters."""
        trace, base_cpi = self.resolve_workload(workload)
        return self.run_dri_trace(trace, base_cpi, parameters)

    def run_dri_trace(
        self, trace: TraceLike, base_cpi: float, parameters: DRIParameters
    ) -> SimulationResult:
        """Simulate the DRI i-cache on an already-resolved (trace, CPI) pair."""
        return self.run_many(trace, base_cpi, [parameters])[0]

    def run_many(
        self,
        trace: TraceLike,
        base_cpi: float,
        parameter_sets: Sequence[Optional[DRIParameters]],
    ) -> List[SimulationResult]:
        """Simulate every parameter set on one resolved (trace, CPI) pair.

        ``None`` means the conventional baseline.  This is the work unit
        the sweep runs per benchmark, serially and in pool workers (which
        receive the trace as an mmap-backed store path, not a pickled
        array).  On the batched engine the runs replay in lockstep
        (:func:`~repro.simulation.engine.replay_lockstep`): one pass over
        the trace per sense-interval length, conventional runs joining
        the first group.  On the scalar engine they replay one at a time.
        Results come back in input order, each bit-identical to its own
        single run.
        """
        runs = [self._member(trace, parameters) for parameters in parameter_sets]
        cycles = [0] * len(runs)
        singles: List[int] = []
        conventional: List[int] = []
        by_interval: Dict[int, List[int]] = {}
        for index, (icache, _, parameters) in enumerate(runs):
            if self.engine != "batched":
                singles.append(index)
            elif parameters is None:
                conventional.append(index)
            else:
                by_interval.setdefault(icache.interval_length_accesses, []).append(index)
        # Conventional runs take no interval decisions: they join the first group.
        groups = list(by_interval.values()) or [[]]
        groups[0] = conventional + groups[0]
        for group in filter(None, groups):
            group_cycles = replay_lockstep(
                trace, [runs[index] for index in group], base_cpi, self.system
            )
            for index, value in zip(group, group_cycles):
                cycles[index] = value
        for index in singles:
            icache, hierarchy, parameters = runs[index]
            cycles[index] = engine_replay(
                trace, icache, hierarchy, base_cpi, self.system, dri=parameters, engine=self.engine
            )
        return [self._result(trace, run, value) for run, value in zip(runs, cycles)]

    # ------------------------------------------------------------------
    # Members and results
    # ------------------------------------------------------------------
    def _member(self, trace: TraceLike, parameters: Optional[DRIParameters]) -> Member:
        """A run's fresh L1 (conventional or manually driven DRI) and L2/memory."""
        if parameters is None:
            icache: Cache = Cache(self.system.l1_icache, name="L1I")
        else:
            icache = DRIICache(
                self.system.l1_icache,
                parameters,
                address_bits=self.system.address_bits,
                auto_interval=False,
                instructions_per_access=trace.instructions_per_line,
            )
        return icache, MemoryHierarchy(self.system), parameters

    def _result(self, trace: TraceLike, run: Member, cycles: int) -> SimulationResult:
        """Close a replayed run (the DRI cache's open interval) into its result."""
        icache, hierarchy, parameters = run
        dri = parameters is not None
        if dri:
            icache.finalize()
        return SimulationResult(
            benchmark=trace.name,
            cache_kind="dri" if dri else "conventional",
            instructions=trace.num_instructions,
            cycles=cycles,
            l1_accesses=icache.stats.accesses,
            l1_misses=icache.stats.misses,
            l2_accesses=hierarchy.l2_accesses,
            l2_misses=hierarchy.l2_misses,
            dri_stats=icache.dri_stats if dri else None,
            resizing_tag_bits=icache.resizing_tag_bits if dri else 0,
            engine=self.engine,
        )
