"""Parameter sweeps and the best-case energy-delay search.

The paper determines each benchmark's miss-bound and size-bound
empirically, "searching the combination space" for the best energy-delay
product (Section 5.3), under two regimes:

* **performance-constrained** — among configurations whose slowdown
  relative to the conventional i-cache is at most 4%, pick the lowest
  energy-delay product;
* **performance-unconstrained** — pick the lowest energy-delay product
  regardless of slowdown.

:class:`ParameterSweep` runs a grid of (miss-bound, size-bound) pairs for
one benchmark against a shared conventional baseline, producing a
:class:`SweepResult` from which either regime's best configuration can be
selected.  Figures 4 and 5 reuse the same machinery with fixed parameter
scalings instead of a search.

Grid points are independent simulations, so the sweep can fan them out
over worker processes (``jobs`` in the constructor, or per call).  The
pool itself is a persistent :class:`~repro.simulation.executor.SweepExecutor`
owned by the sweep: workers are forked once, on the first parallel call,
and reused by every later ``prefetch``/``grid``/``grid_many``/
``evaluate_many`` call until the sweep is closed.  Each involved
benchmark's trace is spilled once into an mmap-backed
:class:`~repro.workloads.source.TraceStore` and the executor ships only
the store *paths* — every worker memory-maps the same file and caches
the opened source per benchmark, so the trace data exists once in the
page cache no matter how many workers replay it, and each worker opens a
benchmark's store once for the pool's whole lifetime.  Tasks travel in
adaptive chunks with dynamic assignment (``chunk`` overrides the size),
and results stream back as chunks finish (:meth:`ParameterSweep.prefetch_iter`).
Every completed point lands in a per-(benchmark, geometry, parameters)
memo, so repeated evaluations — the Figures 4–6 sensitivity studies all
revisit the Figure 3 base points — never re-simulate.  The work unit of
a pool is a flat *(benchmark, grid point)* pair, so a multi-benchmark
driver (:meth:`ParameterSweep.grid_many`, :meth:`ParameterSweep.evaluate_many`,
or :meth:`ParameterSweep.prefetch` directly) keeps every worker busy
across benchmark boundaries instead of draining one benchmark's grid at
a time.  A parallel sweep returns exactly the same points, in the same
order, as a serial one; ``jobs=1`` never touches pool machinery at all.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry, SystemConfig
from repro.energy.comparison import PERFORMANCE_CONSTRAINT, ComparisonResult, compare_runs
from repro.energy.model import EnergyModel
from repro.simulation.executor import (
    DEFAULT_MAX_RETRIES,
    CampaignHealth,
    StoreMap,
    SweepExecutor,
    SweepTask,
    TaskError,
    check_fault_settings,
    group_by_benchmark,
)
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import Simulator, WorkloadLike
from repro.workloads.source import TraceSource, TraceStore
from repro.workloads.trace import InstructionTrace

TraceLike = Union[InstructionTrace, TraceSource]

DEFAULT_MISS_BOUNDS = (10, 30, 80, 200)
"""Default miss-bound grid (misses per sense interval)."""

DEFAULT_SIZE_BOUNDS = (1024, 4096, 16384, 65536)
"""Default size-bound grid (bytes)."""

_SweepTask = SweepTask
"""One pool work unit: (benchmark name, parameters); ``None`` parameters
mean the conventional baseline run.  (Worker plumbing lives in
:mod:`repro.simulation.executor`.)"""


def _trace_fingerprint(trace: TraceLike) -> Tuple:
    """A cheap content identity for collision detection.

    ``(accesses, instructions/line, line size, address sample)`` — the
    sample is the head and tail of the address array when the trace is
    materialised (in-memory trace or mmapped store) and ``None`` for
    streamed sources, whose content cannot be probed without replaying.
    """
    sample = None
    array = None
    if isinstance(trace, InstructionTrace):
        array = trace.line_addresses
    elif isinstance(trace, TraceStore):
        array = trace.addresses_mmap
    if array is not None and array.shape[0]:
        sample = (
            tuple(int(value) for value in array[:4]),
            tuple(int(value) for value in array[-4:]),
        )
    return (
        int(trace.num_accesses),
        int(trace.instructions_per_line),
        int(trace.line_size),
        sample,
    )


def _fingerprints_conflict(known: Tuple, new: Tuple) -> bool:
    """True when two same-named traces demonstrably differ in content.

    The scalar prefix (length, geometry) must match outright; the
    address samples are compared only when both sides have one, so a
    streamed source never false-positives against its own spilled store.
    """
    if known[:3] != new[:3]:
        return True
    return known[3] is not None and new[3] is not None and known[3] != new[3]


def _resolve_jobs(jobs: int, task_count: Optional[int] = None) -> int:
    """Normalise a jobs request: values below one mean "all cores".

    With a ``task_count``, the result is additionally clamped to it, so a
    4-point grid never pays for an 8-worker pool — the extra workers
    would be forked, initialised, and never handed a task.
    """
    if jobs < 1:
        jobs = max(1, os.cpu_count() or 1)
    if task_count is not None:
        jobs = min(jobs, max(1, task_count))
    return jobs


@dataclass(frozen=True)
class SweepPoint:
    """One (parameters, simulation, comparison) triple of a sweep."""

    parameters: DRIParameters
    simulation: SimulationResult
    comparison: ComparisonResult

    @property
    def energy_delay(self) -> float:
        """Relative energy-delay product of this configuration."""
        return self.comparison.relative_energy_delay

    @property
    def meets_constraint(self) -> bool:
        """True if the slowdown is within the 4% bound."""
        return self.comparison.meets_performance_constraint


@dataclass
class SweepResult:
    """All evaluated configurations of one benchmark plus its baseline."""

    benchmark: str
    conventional: SimulationResult
    points: List[SweepPoint] = field(default_factory=list)

    def best(self, constrained: bool = True) -> Optional[SweepPoint]:
        """The lowest-energy-delay point, optionally requiring <=4% slowdown.

        Falls back to the full-size (never-downsizing) behaviour being
        unattainable: if no point meets the constraint, the least-slow
        point is returned so callers always get something comparable to
        the paper's "disallow downsizing" handling of fpppp.
        """
        candidates = self.points
        if not candidates:
            return None
        if constrained:
            meeting = [point for point in candidates if point.meets_constraint]
            if meeting:
                candidates = meeting
            else:
                slow = min(point.comparison.slowdown for point in candidates)
                candidates = [
                    point for point in candidates if point.comparison.slowdown <= slow + 1e-12
                ]
        return min(candidates, key=lambda point: point.energy_delay)

    def by_parameters(self, miss_bound: int, size_bound: int) -> Optional[SweepPoint]:
        """Look up the point with exactly these bounds, if it was evaluated."""
        for point in self.points:
            if (
                point.parameters.miss_bound == miss_bound
                and point.parameters.size_bound == size_bound
            ):
                return point
        return None


class ParameterSweep:
    """Evaluates DRI parameter grids for benchmarks over a shared simulator.

    Parameters
    ----------
    simulator / energy_model / base_parameters:
        The shared simulation machinery (defaults match the paper's).
    jobs:
        Default worker-process count for :meth:`grid` and
        :meth:`best_configuration`; 1 (the default) runs serially in
        process, values below 1 mean "all cores".
    chunk:
        Tasks per pool chunk (the ``--chunk`` escape hatch), at least 1;
        ``None`` (the default) lets the executor pick adaptively.
    max_retries / chunk_timeout:
        The executor's fault-tolerance knobs (DESIGN.md §11): retries
        per chunk before bisection (at least 0), and the optional
        per-chunk wall-clock deadline in seconds (positive).  Both are
        checked here, whatever ``jobs`` is, so a bad value fails before
        anything is simulated.

    The sweep's :class:`CampaignHealth` ledger is :attr:`health`;
    :meth:`sibling` sweeps add to their parent's.

    A parallel sweep keeps one warm :class:`SweepExecutor` across calls;
    :meth:`close` (or using the sweep as a context manager) shuts its
    workers down.  The serial ``jobs=1`` path never creates one.
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        energy_model: Optional[EnergyModel] = None,
        base_parameters: DRIParameters = DRIParameters(),
        jobs: int = 1,
        chunk: Optional[int] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        chunk_timeout: Optional[float] = None,
    ) -> None:
        check_fault_settings(chunk, max_retries, chunk_timeout)
        self.simulator = simulator if simulator is not None else Simulator()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.base_parameters = base_parameters
        self.jobs = jobs
        self.chunk = chunk
        self.max_retries = max_retries
        self.chunk_timeout = chunk_timeout
        self._health = CampaignHealth()
        self._executor: Optional[SweepExecutor] = None
        self._conventional_cache: Dict[str, SimulationResult] = {}
        self._dri_cache: Dict[
            Tuple[str, CacheGeometry, str, DRIParameters], SimulationResult
        ] = {}
        self._store_dir: Optional[tempfile.TemporaryDirectory] = None
        self._stores: Dict[str, TraceStore] = {}
        self._trace_fingerprints: Dict[str, Tuple] = {}

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    def _executor_for(self, jobs: int) -> SweepExecutor:
        """The sweep's persistent executor, (re)built only when too small.

        An existing pool with at least ``jobs`` workers is reused as-is
        (a later small call rides the warm pool rather than respawning a
        smaller one); only a request for *more* workers replaces it.
        """
        executor = self._executor
        if executor is not None and executor.jobs < jobs:
            executor.close()
            executor = None
        if executor is None:
            executor = SweepExecutor(
                self.simulator.system,
                self.simulator.engine,
                jobs,
                chunk=self.chunk,
                max_retries=self.max_retries,
                chunk_timeout=self.chunk_timeout,
                health=self._health,
            )
            self._executor = executor
        return executor

    def sibling(self, system: SystemConfig, energy_model: EnergyModel) -> "ParameterSweep":
        """A new sweep like this one, on ``system`` with ``energy_model``.

        It replays traces of the same length and seed on the same engine,
        starts from the same base parameters, runs with the same executor
        settings and adds to this sweep's :attr:`health`.  Its memo,
        traces, stores and pool are its own: close it when done.
        """
        simulator = self.simulator
        sibling = ParameterSweep(
            Simulator(system, simulator.trace_instructions, simulator.seed, simulator.engine),
            energy_model,
            self.base_parameters,
            jobs=self.jobs,
            chunk=self.chunk,
            max_retries=self.max_retries,
            chunk_timeout=self.chunk_timeout,
        )
        sibling._health = self._health
        return sibling

    @property
    def health(self) -> CampaignHealth:
        """The campaign's fault-tolerance ledger (DESIGN.md §11).

        One record accumulates across every executor this sweep creates
        *and* the serial in-process path, so ``sweep.health.summary()``
        is meaningful whatever ``jobs`` was.  Failed tasks appear in
        ``health.task_errors``; they are never memoized, so a later call
        retries them.
        """
        return self._health

    def close(self) -> None:
        """Shut down the warm pool (if any), delete spilled stores; the sweep stays usable."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self._stores.clear()
        if self._store_dir is not None:
            self._store_dir.cleanup()
            self._store_dir = None

    def __enter__(self) -> "ParameterSweep":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def _register_trace(self, trace: TraceLike) -> None:
        """Guard the per-benchmark memos against name collisions.

        Every memo, store, and task in the sweep is keyed by
        ``trace.name`` — two *distinct* workloads sharing a name would
        silently share one memo entry and one spilled store, and the
        second would reuse the first's results.  A cheap content
        fingerprint (length, geometry, head/tail address sample where
        the addresses are materialised) detects the mismatch and raises
        instead.
        """
        fingerprint = _trace_fingerprint(trace)
        known = self._trace_fingerprints.get(trace.name)
        if known is None:
            self._trace_fingerprints[trace.name] = fingerprint
            return
        if _fingerprints_conflict(known, fingerprint):
            raise ValueError(
                f"benchmark name collision: a different workload named "
                f"{trace.name!r} was already used by this sweep; distinct "
                f"traces must carry distinct names (the sweep's memo, "
                f"store, and task identities are all keyed by name)"
            )
        if fingerprint[3] is not None and known[3] is None:
            # Keep the more specific fingerprint (the one with an
            # address sample) for later comparisons.
            self._trace_fingerprints[trace.name] = fingerprint

    def _store_for(self, trace: TraceLike) -> TraceStore:
        """The mmap-backed store a parallel pool ships for this trace.

        A workload that already *is* a store is shipped by its own path;
        anything else (in-memory trace, streamed source) is spilled once
        into the sweep's temporary store directory — streamed chunk by
        chunk, so even a lazily generated trace spills at flat memory —
        and reused for every later pool.
        """
        self._register_trace(trace)
        if isinstance(trace, TraceStore):
            return trace
        store = self._stores.get(trace.name)
        if store is None:
            if self._store_dir is None:
                self._store_dir = tempfile.TemporaryDirectory(prefix="repro-sweep-")
            path = os.path.join(
                self._store_dir.name, f"{len(self._stores):03d}-{trace.name}"
            )
            store = TraceStore.save(trace, path)
            self._stores[trace.name] = store
        return store

    def _dri_key(
        self, trace: TraceLike, parameters: DRIParameters
    ) -> Tuple[str, CacheGeometry, str, DRIParameters]:
        """Memo key: one entry per (benchmark, geometry, engine, parameters).

        The engines are bit-identical, but the key records which one
        produced an entry so a campaign that switches engines (a scalar
        cross-check next to batched runs) never conflates provenance.
        """
        return (
            trace.name,
            self.simulator.system.l1_icache,
            self.simulator.engine,
            parameters,
        )

    def _dri_result(
        self, trace: TraceLike, base_cpi: float, parameters: DRIParameters
    ) -> SimulationResult:
        """Run (or reuse) the DRI simulation for one configuration."""
        self._register_trace(trace)
        key = self._dri_key(trace, parameters)
        cached = self._dri_cache.get(key)
        if cached is None:
            cached = self.simulator.run_dri_trace(trace, base_cpi, parameters)
            self._dri_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def conventional_baseline(self, workload: WorkloadLike) -> SimulationResult:
        """Run (or reuse) the conventional i-cache baseline for a workload."""
        trace, _ = self.simulator.resolve_workload(workload)
        self._register_trace(trace)
        cached = self._conventional_cache.get(trace.name)
        if cached is None:
            cached = self.simulator.run_conventional(workload)
            self._conventional_cache[trace.name] = cached
        return cached

    def evaluate(self, workload: WorkloadLike, parameters: DRIParameters) -> SweepPoint:
        """Simulate one DRI configuration and compare it with the baseline.

        Simulation results are memoized per (benchmark, geometry,
        parameters), so re-evaluating a configuration — as the sensitivity
        experiments do with each benchmark's base point — costs only the
        energy comparison.
        """
        conventional = self.conventional_baseline(workload)
        trace, base_cpi = self.simulator.resolve_workload(workload)
        dri_result = self._dri_result(trace, base_cpi, parameters)
        comparison = compare_runs(
            benchmark=dri_result.benchmark,
            dri_stats=dri_result.run_statistics(conventional),
            conventional_stats=_conventional_run_statistics(conventional),
            average_size_fraction=dri_result.average_size_fraction,
            dri_miss_rate=dri_result.miss_rate_per_instruction,
            conventional_miss_rate=conventional.miss_rate_per_instruction,
            model=self.energy_model,
        )
        return SweepPoint(parameters=parameters, simulation=dri_result, comparison=comparison)

    def evaluate_static(self, workload: WorkloadLike, size_bytes: int) -> ComparisonResult:
        """Evaluate a *statically* resized i-cache of ``size_bytes``.

        The static cache is the design-time alternative to dynamic
        resizing: it is permanently gated down to ``size_bytes``, so its
        active fraction is fixed and it stores no resizing tag bits.  The
        comparison baseline is the same full-size conventional i-cache the
        DRI evaluations use, which makes the static and dynamic numbers
        directly comparable (the static-versus-dynamic ablation).
        """
        full_size = self.simulator.system.l1_icache.size_bytes
        if not 0 < size_bytes <= full_size:
            raise ValueError(f"static size must be in (0, {full_size}]")
        conventional = self.conventional_baseline(workload)
        static = self.simulator.run_fixed_size(workload, size_bytes)
        extra_l2 = max(0, static.l2_accesses - conventional.l2_accesses)
        from repro.energy.model import RunStatistics

        stats = RunStatistics(
            cycles=static.cycles,
            l1_accesses=static.instructions,
            active_fraction=size_bytes / full_size,
            resizing_tag_bits=0,
            extra_l2_accesses=extra_l2,
            execution_time_cycles=static.cycles,
        )
        return compare_runs(
            benchmark=static.benchmark,
            dri_stats=stats,
            conventional_stats=_conventional_run_statistics(conventional),
            average_size_fraction=size_bytes / full_size,
            dri_miss_rate=static.miss_rate_per_instruction,
            conventional_miss_rate=conventional.miss_rate_per_instruction,
            model=self.energy_model,
        )

    def best_static_size(
        self,
        workload: WorkloadLike,
        sizes: Sequence[int] = DEFAULT_SIZE_BOUNDS,
        constrained: bool = True,
    ) -> Tuple[int, ComparisonResult]:
        """The static size with the best energy-delay (optionally <=4% slowdown).

        The full size is always included as a candidate so a constrained
        search can never come up empty.
        """
        full_size = self.simulator.system.l1_icache.size_bytes
        candidates = sorted({size for size in sizes if size <= full_size} | {full_size})
        results = [(size, self.evaluate_static(workload, size)) for size in candidates]
        if constrained:
            meeting = [entry for entry in results if entry[1].meets_performance_constraint]
            if meeting:
                results = meeting
        return min(results, key=lambda entry: entry[1].relative_energy_delay)

    # ------------------------------------------------------------------
    # Grid sweep / search
    # ------------------------------------------------------------------
    def _grid_parameters(
        self, miss_bounds: Sequence[int], size_bounds: Sequence[int]
    ) -> List[DRIParameters]:
        """The grid's parameter list in evaluation order."""
        full_size = self.simulator.system.l1_icache.size_bytes
        parameters = []
        for size_bound in size_bounds:
            if size_bound > full_size:
                continue
            for miss_bound in miss_bounds:
                parameters.append(
                    replace(self.base_parameters, miss_bound=miss_bound, size_bound=size_bound)
                )
        return parameters

    def _pending_tasks(
        self, pairs: Sequence[Tuple[WorkloadLike, Optional[DRIParameters]]]
    ) -> Tuple[List[_SweepTask], Dict[str, Tuple[TraceLike, float]]]:
        """Deduplicated not-yet-memoized tasks plus the resolved traces."""
        resolved: Dict[str, Tuple[TraceLike, float]] = {}
        tasks: List[_SweepTask] = []
        seen: set = set()
        for workload, parameters in pairs:
            trace, base_cpi = self.simulator.resolve_workload(workload)
            self._register_trace(trace)
            resolved[trace.name] = (trace, base_cpi)
            if parameters is None:
                if trace.name in self._conventional_cache:
                    continue
                task: _SweepTask = (trace.name, None)
            else:
                if self._dri_key(trace, parameters) in self._dri_cache:
                    continue
                task = (trace.name, parameters)
            if task not in seen:
                seen.add(task)
                tasks.append(task)
        return tasks, resolved

    def _memoize(
        self,
        task: _SweepTask,
        result: SimulationResult,
        resolved: Dict[str, Tuple[TraceLike, float]],
    ) -> None:
        name, parameters = task
        if parameters is None:
            self._conventional_cache[name] = result
        else:
            self._dri_cache[self._dri_key(resolved[name][0], parameters)] = result

    def prefetch_iter(
        self,
        pairs: Sequence[Tuple[WorkloadLike, Optional[DRIParameters]]],
        jobs: Optional[int] = None,
    ) -> Iterator[Tuple[_SweepTask, SimulationResult]]:
        """Simulate not-yet-memoized pairs, yielding each as it completes.

        The incremental face of :meth:`prefetch`: an ``as_completed``-style
        generator over ``((benchmark, parameters), result)`` pairs —
        completion order, not input order — with every result memoized
        before it is yielded, so a streaming consumer (the sweep-service
        direction) can report points while the pool keeps working.  With
        ``jobs`` at 1 (or clamped to 1 by the task count) the simulations
        run serially in process, each benchmark's tasks in one lockstep
        pass over its trace (:meth:`Simulator.run_many`), and yield
        grouped by benchmark, in order of first appearance; the health
        ledger records one chunk wall time per pass.

        A task that fails for good under the fault-tolerant executor
        (DESIGN.md §11) is *not* yielded and *not* memoized: it lands as
        a structured :class:`TaskError` in :attr:`health` and the
        campaign keeps going, so one poisoned point never kills the
        healthy ones.  Every successful result is memoized before it is
        yielded — including results collected while unwinding an
        abandoned iteration, which is why breaking out of this generator
        mid-stream never discards work a worker already finished.
        """
        tasks, resolved = self._pending_tasks(pairs)
        if not tasks:
            return
        jobs = _resolve_jobs(self.jobs if jobs is None else jobs, task_count=len(tasks))
        if jobs <= 1:
            for group in group_by_benchmark(tasks):
                group_tasks = [tasks[index] for index in group]
                trace, base_cpi = resolved[group_tasks[0][0]]
                started = time.monotonic()
                results = self.simulator.run_many(
                    trace, base_cpi, [parameters for _, parameters in group_tasks]
                )
                self._health.tasks_run += len(group_tasks)
                self._health.chunk_wall_times.append(time.monotonic() - started)
                for task, result in zip(group_tasks, results):
                    self._memoize(task, result, resolved)
                yield from zip(group_tasks, results)
            return
        stores: StoreMap = {
            name: (str(self._store_for(resolved[name][0]).path), resolved[name][1])
            for name in {name for name, _ in tasks}
        }
        executor = self._executor_for(jobs)

        def _memoize_result(index: int, result: SimulationResult) -> None:
            self._memoize(tasks[index], result, resolved)

        for index, result in executor.run(tasks, stores, on_result=_memoize_result):
            if isinstance(result, TaskError):
                continue
            yield tasks[index], result

    def prefetch(
        self,
        pairs: Sequence[Tuple[WorkloadLike, Optional[DRIParameters]]],
        jobs: Optional[int] = None,
    ) -> int:
        """Simulate not-yet-memoized (workload, parameters) pairs in one pool.

        ``None`` parameters mean the workload's conventional baseline.
        The pairs are flattened into one task list — *across* benchmarks —
        so a figure driver's whole workload keeps every worker busy until
        the queue drains, instead of pooling within one benchmark's grid
        at a time.  With more than one worker the tasks flow through the
        sweep's persistent :class:`SweepExecutor` (warm across calls);
        each involved trace is spilled once into an mmap-backed store and
        the workers receive only its path.  Results land in the same
        memos the serial path uses, so the subsequent
        :meth:`evaluate`/:meth:`grid` calls are pure lookups; returns the
        number of simulations actually run.
        """
        return sum(1 for _ in self.prefetch_iter(pairs, jobs=jobs))

    def grid(
        self,
        workload: WorkloadLike,
        miss_bounds: Sequence[int] = DEFAULT_MISS_BOUNDS,
        size_bounds: Sequence[int] = DEFAULT_SIZE_BOUNDS,
        jobs: Optional[int] = None,
    ) -> SweepResult:
        """Evaluate every (miss-bound, size-bound) pair in the grid.

        ``jobs`` (default: the sweep's ``jobs`` attribute) sets the number
        of worker processes; with more than one, the grid points that are
        not already memoized are simulated in parallel, and serially they
        replay in one lockstep pass.  The returned points are identical to
        a serial sweep's, in the same order.
        """
        parameters_list = self._grid_parameters(miss_bounds, size_bounds)
        pairs: List[Tuple[WorkloadLike, Optional[DRIParameters]]] = [(workload, None)]
        pairs.extend((workload, parameters) for parameters in parameters_list)
        self.prefetch(pairs, jobs=jobs)
        conventional = self.conventional_baseline(workload)
        result = SweepResult(benchmark=conventional.benchmark, conventional=conventional)
        for parameters in parameters_list:
            result.points.append(self.evaluate(workload, parameters))
        return result

    def grid_many(
        self,
        workloads: Sequence[WorkloadLike],
        miss_bounds: Sequence[int] = DEFAULT_MISS_BOUNDS,
        size_bounds: Sequence[int] = DEFAULT_SIZE_BOUNDS,
        jobs: Optional[int] = None,
    ) -> Dict[str, SweepResult]:
        """Evaluate the same grid for many benchmarks over one process pool.

        The (benchmark, grid point) pairs — baselines included — are
        flattened into a single task list, so the pool stays saturated
        across benchmark boundaries.  Returns one :class:`SweepResult`
        per workload, keyed by benchmark name, each identical to what a
        serial :meth:`grid` call would produce.
        """
        parameters_list = self._grid_parameters(miss_bounds, size_bounds)
        pairs: List[Tuple[WorkloadLike, Optional[DRIParameters]]] = []
        for workload in workloads:
            pairs.append((workload, None))
            pairs.extend((workload, parameters) for parameters in parameters_list)
        self.prefetch(pairs, jobs=jobs)
        results: Dict[str, SweepResult] = {}
        for workload in workloads:
            trace, _ = self.simulator.resolve_workload(workload)
            results[trace.name] = self.grid(
                workload, miss_bounds=miss_bounds, size_bounds=size_bounds, jobs=1
            )
        return results

    def evaluate_many(
        self,
        pairs: Sequence[Tuple[WorkloadLike, DRIParameters]],
        jobs: Optional[int] = None,
    ) -> List[SweepPoint]:
        """Evaluate many (workload, parameters) pairs over one process pool.

        The flattened pairs (plus any missing conventional baselines) are
        simulated in parallel, then compared serially from the memo;
        returns the points in input order, identical to serial
        :meth:`evaluate` calls.
        """
        prefetch_pairs: List[Tuple[WorkloadLike, Optional[DRIParameters]]] = []
        for workload, parameters in pairs:
            prefetch_pairs.append((workload, None))
            prefetch_pairs.append((workload, parameters))
        self.prefetch(prefetch_pairs, jobs=jobs)
        return [self.evaluate(workload, parameters) for workload, parameters in pairs]

    def best_configuration(
        self,
        workload: WorkloadLike,
        constrained: bool = True,
        miss_bounds: Sequence[int] = DEFAULT_MISS_BOUNDS,
        size_bounds: Sequence[int] = DEFAULT_SIZE_BOUNDS,
        jobs: Optional[int] = None,
    ) -> Tuple[DRIParameters, SweepPoint]:
        """Search the grid and return the best parameters and their point."""
        sweep = self.grid(
            workload, miss_bounds=miss_bounds, size_bounds=size_bounds, jobs=jobs
        )
        best = sweep.best(constrained=constrained)
        if best is None:
            raise RuntimeError(f"no configurations evaluated for {sweep.benchmark}")
        return best.parameters, best


def _conventional_run_statistics(result: SimulationResult):
    """RunStatistics for a conventional run (only its delay is consumed)."""
    from repro.energy.model import RunStatistics

    return RunStatistics(
        cycles=result.cycles,
        l1_accesses=result.instructions,
        active_fraction=1.0,
        resizing_tag_bits=0,
        extra_l2_accesses=0,
        execution_time_cycles=result.cycles,
    )
