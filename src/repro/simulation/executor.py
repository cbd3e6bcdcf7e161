"""Persistent, fault-tolerant worker pool for parameter sweeps.

:class:`SweepExecutor` owns one warm :class:`ProcessPoolExecutor` for the
lifetime of a sweep campaign.  The old per-call pool paid its whole setup
bill on every ``grid``/``prefetch`` call — forking workers, re-running the
initializer to reopen every :class:`~repro.workloads.source.TraceStore`,
and one IPC round trip per grid point.  The executor amortizes all three:

* **Pool lifecycle** — workers are forked once, on the first parallel
  call, and reused by every later call until :meth:`close` (the owning
  :class:`~repro.simulation.sweep.ParameterSweep` closes it when it is
  closed or collected).  ``pools_spawned`` and ``worker_pids`` exist so
  tests can assert the pool really persists.
* **Per-worker state cache** — each worker keeps ``{benchmark: (trace,
  base CPI)}`` across tasks.  Task chunks carry a small reference per
  benchmark: a named workload's spec with the sweep's trace length and
  seed, which the worker generates itself, or the path of a
  :class:`~repro.workloads.source.TraceStore` holding a pre-built trace,
  which it memory-maps.  Either way the trace is made once per (worker,
  benchmark), not once per task.
* **Group dispatch** — each benchmark's tasks form one chunk (split
  only when a group holds more than a worker's share of the tasks),
  submitted largest first; idle workers pull the next chunk, so
  assignment is dynamic (work-stealing-style: a worker that lands cheap
  points takes more chunks) while each IPC message amortizes over a
  whole chunk.  Inside a chunk, each benchmark's tasks replay in one
  lockstep pass (:meth:`Simulator.run_many`).
* **Incremental results** — :meth:`run` is an ``as_completed``-style
  generator yielding ``(task index, result)`` as chunks finish; the
  sweep memoizes each result as it arrives.

Fault tolerance (DESIGN.md §11) turns worker crashes from campaign
killers into retried, reported, isolated events:

* a failed chunk is retried with exponential backoff
  (:data:`DEFAULT_BACKOFF`) up to ``max_retries`` times;
* a broken pool (a worker died: OOM kill, segfault, ``os._exit``) is
  never reused — the executor discards it, respawns a fresh one, and
  re-runs every chunk that was in flight;
* a chunk that keeps failing is **bisected** down to the single poisoned
  task, which is surfaced as a structured :class:`TaskError` record
  instead of an exception that kills the campaign;
* an optional ``chunk_timeout`` kills a hung pool and retries the
  timed-out chunk;
* if the pool keeps dying without making progress (more than
  :data:`DEFAULT_MAX_RESPAWNS` consecutive deaths), the executor
  degrades to in-process serial execution so the campaign still
  completes.

Every event is counted in a :class:`CampaignHealth` record (retries,
respawns, timeouts, bisections, task errors, per-chunk wall times) that
the owning sweep exposes to drivers and the CLI.

The executor is deliberately ignorant of memoization and comparisons —
it runs ``(benchmark, parameters)`` tasks and nothing else.  Ordering,
memo fills, and bit-identity with the serial path are the sweep's job
(and are what the equivalence tests pin).
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.config.parameters import DRIParameters
from repro.config.system import SystemConfig
from repro.simulation.engine import TraceLike
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import Simulator
from repro.workloads.phases import WorkloadSpec
from repro.workloads.source import TraceStore

SweepTask = Tuple[str, Optional[DRIParameters]]
"""One work unit: (benchmark name, parameters); ``None`` parameters mean
the conventional baseline run."""

WorkloadRef = Union[str, Tuple[WorkloadSpec, int, int]]
"""How a benchmark's trace reaches a worker: a named workload's ``(spec,
trace length, seed)``, generated where it replays, or the path of a
:class:`TraceStore` holding a pre-built trace."""

StoreMap = Dict[str, Tuple[WorkloadRef, float]]
"""``{benchmark: (workload reference, base CPI)}`` — the only trace
payload that ever crosses the process boundary."""

DEFAULT_MAX_RETRIES = 2
"""Retries per chunk descriptor before it is bisected (or, for a single
task, reported as a :class:`TaskError`)."""

DEFAULT_MAX_RESPAWNS = 3
"""Consecutive pool deaths without a completed chunk before the executor
degrades to in-process serial execution."""

DEFAULT_BACKOFF = 0.1
"""Base of the exponential retry backoff, in seconds: a chunk's n-th
retry waits ``DEFAULT_BACKOFF * 2**(n-1)`` before resubmission.  Read at
each retry, so the fault tests and the fault-injection smoke set it to 0."""


def check_fault_settings(max_retries: int, chunk_timeout: Optional[float]) -> None:
    """Reject a negative ``max_retries`` or a non-positive ``chunk_timeout``."""
    if max_retries < 0:
        raise ValueError(f"max_retries must be at least 0, got {max_retries}")
    if chunk_timeout is not None and chunk_timeout <= 0:
        raise ValueError(f"chunk_timeout must be positive, got {chunk_timeout}")

# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
_worker_simulator: Optional[Simulator] = None
_worker_sources: Dict[str, Tuple[TraceLike, float, WorkloadRef]] = {}
"""Per-worker cache: ``{benchmark: (trace, base CPI, workload reference)}``.
Lives for the whole pool lifetime, across every chunk the worker runs."""

_fault_hook: Optional[Callable[[str, Optional[DRIParameters]], None]] = None
"""Fault-injection seam for the crash/retry tests and the CI smoke job.

When set, it is called with each task's ``(benchmark, parameters)``
before the task runs *inside the worker* (the pool forks workers from
the parent, so a hook installed in the parent is inherited).  A hook
that wants to act only in workers must check ``os.getpid()`` itself.
Production code never sets this.
"""


def _executor_worker_init(system: SystemConfig, engine: str) -> None:
    """Pool initializer: build the worker's simulator, start an empty cache.

    Runs exactly once per worker process.  No trace is made here — the
    benchmark set can grow across calls on a persistent pool, so workers
    make traces lazily from the references each chunk carries.
    """
    global _worker_simulator, _worker_sources
    _worker_simulator = Simulator(system=system, engine=engine)
    _worker_sources = {}


def group_by_benchmark(tasks: Sequence[SweepTask]) -> List[List[int]]:
    """Task indices grouped by benchmark, in order of first appearance;
    each group replays in one lockstep pass (:meth:`Simulator.run_many`)."""
    groups: Dict[str, List[int]] = {}
    for index, (name, _) in enumerate(tasks):
        groups.setdefault(name, []).append(index)
    return list(groups.values())


def _source(
    cache: Dict[str, Tuple[TraceLike, float, WorkloadRef]],
    simulator: Simulator,
    name: str,
    stores: StoreMap,
) -> Tuple[TraceLike, float]:
    """``name``'s (trace, base CPI), made on first use and cached.

    A named workload resolves through :meth:`Simulator.resolve_workload`
    on a simulator of ``simulator``'s system at the shipped trace length
    and seed, exactly as the parent would; a store path is memory-mapped.
    A cached entry is reused while its reference is unchanged.
    """
    ref, base_cpi = stores[name]
    cached = cache.get(name)
    if cached is None or cached[2] != ref:
        if isinstance(ref, str):
            trace: TraceLike = TraceStore.open(ref)
        else:
            spec, trace_instructions, seed = ref
            trace, _ = Simulator(
                simulator.system, trace_instructions, seed, simulator.engine
            ).resolve_workload(spec)
        cached = cache[name] = (trace, base_cpi, ref)
    return cached[0], cached[1]


def _run_chunk(
    stores: StoreMap, tasks: Sequence[SweepTask]
) -> Tuple[int, List[SimulationResult]]:
    """Run one chunk of tasks in a worker; returns (worker pid, results).

    ``stores`` holds the workload reference of every benchmark the chunk
    touches (see :func:`_source`).  Each benchmark's tasks replay
    together, after the fault hook has seen each of them; results come
    back in task order.
    """
    assert _worker_simulator is not None
    results: Dict[int, SimulationResult] = {}
    for group in group_by_benchmark(tasks):
        if _fault_hook is not None:
            for index in group:
                _fault_hook(*tasks[index])
        trace, base_cpi = _source(
            _worker_sources, _worker_simulator, tasks[group[0]][0], stores
        )
        group_results = _worker_simulator.run_many(
            trace, base_cpi, [tasks[index][1] for index in group]
        )
        results.update(zip(group, group_results))
    return os.getpid(), [results[index] for index in range(len(tasks))]


# ----------------------------------------------------------------------
# Health / failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskError:
    """One task that failed after its whole retry budget.

    A structured record in the result stream (and in
    :attr:`CampaignHealth.task_errors`) rather than an exception: the
    campaign completes, the healthy tasks keep their results, and the
    caller can see exactly which (benchmark, parameters) point is
    poisoned, how it failed, and how many attempts it got.
    """

    benchmark: str
    parameters: Optional[DRIParameters]
    index: int
    attempts: int
    kind: str
    """``"crash"`` (worker death), ``"timeout"`` (chunk deadline), or
    ``"error"`` (an exception raised out of the task)."""
    error_type: str
    message: str

    @property
    def task(self) -> SweepTask:
        return (self.benchmark, self.parameters)


@dataclass
class CampaignHealth:
    """Fault-tolerance bookkeeping for one sweep campaign.

    Accumulates across every ``run()`` call of the executors a
    :class:`~repro.simulation.sweep.ParameterSweep` creates (the sweep
    hands the same record to each), so a multi-call campaign — a figure
    driver's grids plus its sensitivity passes — reports one ledger.
    """

    tasks_run: int = 0
    tasks_failed: int = 0
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    bisections: int = 0
    degraded: bool = False
    """True once the executor gave up on pools and went in-process serial."""
    task_errors: List[TaskError] = field(default_factory=list)
    chunk_wall_times: List[float] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when the campaign never saw a fault of any kind."""
        return not (
            self.tasks_failed
            or self.retries
            or self.respawns
            or self.timeouts
            or self.degraded
        )

    def summary(self) -> str:
        """One human-readable line for CLI output and logs."""
        parts = [f"{self.tasks_run} tasks ok"]
        if self.tasks_failed:
            parts.append(f"{self.tasks_failed} failed")
        if self.retries or self.respawns or self.timeouts or self.bisections:
            parts.append(
                f"{self.retries} retries, {self.respawns} respawns, "
                f"{self.timeouts} timeouts, {self.bisections} bisections"
            )
        if self.chunk_wall_times:
            parts.append(
                f"{len(self.chunk_wall_times)} chunks, "
                f"max {max(self.chunk_wall_times):.2f}s"
            )
        if self.degraded:
            parts.append("degraded to serial")
        return "campaign health: " + "; ".join(parts)


@dataclass
class _ChunkJob:
    """A retryable unit of submission: (task index, task) pairs.

    Bisection splits a job into two fresh-budget halves, so the items
    carry their absolute indices rather than a contiguous range.
    """

    items: List[Tuple[int, SweepTask]]
    attempts: int = 0
    not_before: float = 0.0
    """Monotonic time before which the job must not be resubmitted
    (exponential backoff)."""


_RunItem = Tuple[int, Union[SimulationResult, TaskError]]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class SweepExecutor:
    """A warm, fault-tolerant worker pool that outlives individual sweep calls.

    Parameters
    ----------
    system / engine:
        Shipped to every worker's initializer (each worker builds one
        :class:`Simulator` and keeps it).
    jobs:
        Worker-process count.  Callers clamp this to the first call's
        task count (see :func:`repro.simulation.sweep._resolve_jobs`);
        it also sets how :meth:`chunks` cuts the work.
    max_retries:
        Retries per chunk before bisection (singleton chunks become
        :class:`TaskError` records instead); at least 0.
    chunk_timeout:
        Optional wall-clock deadline per in-flight chunk, in seconds; an
        overdue chunk's pool is killed and the chunk retried.  When set,
        at most ``jobs`` chunks are kept in flight so every deadline
        measures a *running* chunk.
    health:
        A :class:`CampaignHealth` to accumulate into (the owning sweep
        passes one record to every executor of the campaign); ``None``
        makes a private one.
    """

    def __init__(
        self,
        system: SystemConfig,
        engine: str,
        jobs: int,
        max_retries: int = DEFAULT_MAX_RETRIES,
        chunk_timeout: Optional[float] = None,
        health: Optional[CampaignHealth] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("SweepExecutor needs at least one worker")
        check_fault_settings(max_retries, chunk_timeout)
        self.system = system
        self.engine = engine
        self.jobs = jobs
        self.max_retries = max_retries
        self.chunk_timeout = chunk_timeout
        self.health = health if health is not None else CampaignHealth()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._respawn_pending = False
        self._consecutive_pool_failures = 0
        self._degraded = False
        self._serial_simulator: Optional[Simulator] = None
        self._serial_sources: Dict[str, Tuple[TraceLike, float, WorkloadRef]] = {}
        self.pools_spawned = 0
        self.worker_pids: Set[int] = set()

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool — never a broken one.

        A pool whose worker died marks itself broken; handing it back
        would fail every future submission forever, so a broken cached
        pool is discarded and a fresh one spawned (counted as a respawn).
        """
        pool = self._pool
        if pool is not None and self._pool_is_broken(pool):
            self._discard_pool(kill=False)
            self._respawn_pending = True
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_executor_worker_init,
                initargs=(self.system, self.engine),
            )
            self._pool = pool
            self.pools_spawned += 1
            if self._respawn_pending:
                self.health.respawns += 1
                self._respawn_pending = False
        return pool

    @staticmethod
    def _pool_is_broken(pool: ProcessPoolExecutor) -> bool:
        return bool(getattr(pool, "_broken", False))

    def _discard_pool(self, kill: bool) -> None:
        """Drop the current pool; ``kill`` terminates its workers first
        (the hung-chunk path — a sleeping worker never returns on its own)."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        if kill:
            for process in list((pool._processes or {}).values()):
                process.terminate()
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive: broken pools
            pass

    @property
    def pool_pids(self) -> Set[int]:
        """Pids of the live pool's worker processes (empty if no pool)."""
        if self._pool is None:
            return set()
        return set(self._pool._processes or ())

    def close(self) -> None:
        """Shut the pool down; the next :meth:`run` would spawn a fresh one.

        Also clears the degraded flag — a closed-and-reopened executor
        gets a fresh chance at pooled execution.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._degraded = False
        self._consecutive_pool_failures = 0

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------
    def chunks(self, tasks: Sequence[SweepTask]) -> List[List[int]]:
        """The task indices of each chunk, in submission order.

        Each benchmark group (:func:`group_by_benchmark`) is one chunk, so
        its runs share one lockstep pass over its trace.  A group holding
        more than a worker's share, ``ceil(len(tasks) / jobs)`` tasks, is
        split into near-equal pieces of at most that many, which keeps
        every worker busy on a one-benchmark grid.  Chunks go largest
        first, so the longest passes start while the short ones fill in
        behind them.
        """
        share = math.ceil(len(tasks) / self.jobs)
        pieces: List[List[int]] = []
        for group in group_by_benchmark(tasks):
            count = math.ceil(len(group) / share)
            pieces.extend(
                group[part * len(group) // count : (part + 1) * len(group) // count]
                for part in range(count)
            )
        return sorted(pieces, key=len, reverse=True)

    def run(self, tasks: Sequence[SweepTask], stores: StoreMap) -> Iterator[_RunItem]:
        """Yield ``(task index, result-or-TaskError)`` pairs as work completes.

        Completion order is whatever the workers produce; callers index
        into their own task list, as the sweep's memo fill does.  A task
        that exhausts its retry budget yields a :class:`TaskError` in its
        slot instead of raising; the same record lands in :attr:`health`.
        Closing the generator early abandons the rest of the campaign
        (:meth:`_drain_abandoned`).
        """
        if not tasks:
            return
        queue: Deque[_ChunkJob] = deque(
            _ChunkJob(items=[(index, tasks[index]) for index in chunk])
            for chunk in self.chunks(tasks)
        )
        inflight: Dict[Future, Tuple[_ChunkJob, float]] = {}
        # Terminal chunk failures are parked here instead of being
        # reported immediately: if the executor later degrades to serial,
        # they get one in-process chance before becoming TaskErrors.
        dead: List[Tuple[_ChunkJob, str, Optional[BaseException]]] = []
        probing = False
        try:
            while queue or inflight:
                if self._degraded:
                    queue.extend(job for job, _, _ in dead)
                    dead.clear()
                    yield from self._run_serial(queue, stores)
                    break
                now = time.monotonic()
                limit = self._max_inflight(probing)
                # Submit eligible (not backing-off) jobs up to the limit.
                submitted_any = True
                while submitted_any and queue and len(inflight) < limit:
                    submitted_any = False
                    for _ in range(len(queue)):
                        job = queue.popleft()
                        if job.not_before > now:
                            queue.append(job)
                            continue
                        future = self._submit(job, stores)
                        if future is None:
                            # Submission itself hit a broken pool.  The
                            # chunk never ran, so it is requeued free of
                            # charge; any in-flight futures of the same
                            # pool are doomed and the wait loop below
                            # books the pool death when they land.
                            queue.appendleft(job)
                            probing = True
                            if not inflight:
                                self._discard_pool(kill=False)
                                self._register_pool_failure()
                            break
                        inflight[future] = (job, now)
                        submitted_any = True
                        break
                    if self._degraded or probing and not inflight:
                        break
                if self._degraded:
                    continue
                if not inflight:
                    if queue:
                        # Everything is backing off: sleep out the
                        # earliest deadline and try again.
                        delay = min(job.not_before for job in queue) - now
                        if delay > 0:
                            time.sleep(delay)
                    continue
                timeout = self._next_wakeup(inflight, queue, now)
                done, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                pool_broke = False
                for future in done:
                    entry = inflight.pop(future, None)
                    if entry is None:
                        continue
                    job, submitted_at = entry
                    try:
                        pid, results = future.result()
                    except BrokenExecutor as exc:
                        self._job_failed(job, "crash", exc, queue, dead)
                        pool_broke = True
                        continue
                    except Exception as exc:
                        # The task raised (or its result failed to
                        # pickle); the pool itself is still healthy.
                        self._job_failed(job, "error", exc, queue, dead)
                        continue
                    self.worker_pids.add(pid)
                    self.health.tasks_run += len(job.items)
                    self.health.chunk_wall_times.append(
                        time.monotonic() - submitted_at
                    )
                    self._consecutive_pool_failures = 0
                    probing = False
                    for (index, _), result in zip(job.items, results):
                        yield index, result
                if pool_broke:
                    probing = self._handle_pool_failure(inflight, queue, dead)
                    continue
                if self._check_deadlines(inflight, queue, dead):
                    probing = True
        finally:
            self._drain_abandoned(inflight)
        # Report what stayed dead (the degraded path consumed its own).
        for job, kind, exc in dead:
            yield self._task_error(job, kind, exc)

    # -- scheduling internals ------------------------------------------
    def _max_inflight(self, probing: bool) -> int:
        """In-flight chunk cap.

        Probing (just after a pool death) runs one chunk at a time so a
        poisoned chunk's next crash is attributable to it alone instead
        of burning innocent chunks' retry budgets.  With a
        ``chunk_timeout`` the cap is the worker count, so a deadline
        always measures a chunk that is actually running; otherwise one
        extra wave keeps workers from idling between chunks.
        """
        if probing:
            return 1
        if self.chunk_timeout is not None:
            return self.jobs
        return self.jobs * 2

    def _submit(self, job: _ChunkJob, stores: StoreMap) -> Optional[Future]:
        """Submit one chunk; ``None`` if the pool broke at submission."""
        needed = {name: stores[name] for _, (name, _) in job.items}
        tasks = [task for _, task in job.items]
        try:
            pool = self._ensure_pool()
            return pool.submit(_run_chunk, needed, tasks)
        except BrokenExecutor:
            return None

    def _next_wakeup(
        self,
        inflight: Dict[Future, Tuple[_ChunkJob, float]],
        queue: Deque[_ChunkJob],
        now: float,
    ) -> Optional[float]:
        """Wait timeout until the next deadline or backoff expiry."""
        events: List[float] = []
        if self.chunk_timeout is not None:
            events.extend(
                submitted_at + self.chunk_timeout for _, submitted_at in inflight.values()
            )
        events.extend(job.not_before for job in queue if job.not_before > now)
        if not events:
            return None
        return max(0.0, min(events) - now)

    def _check_deadlines(
        self,
        inflight: Dict[Future, Tuple[_ChunkJob, float]],
        queue: Deque[_ChunkJob],
        dead: List[Tuple[_ChunkJob, str, Optional[BaseException]]],
    ) -> bool:
        """Kill the pool if any in-flight chunk is past its deadline.

        A hung worker cannot be interrupted individually — terminating it
        breaks the whole pool anyway — so the pool is killed, the overdue
        chunk charged a retry, and every *other* in-flight chunk requeued
        free of charge (the culprit is known, unlike a crash).  Returns
        True when the pool was killed.
        """
        if self.chunk_timeout is None or not inflight:
            return False
        now = time.monotonic()
        overdue = [
            future
            for future, (_, submitted_at) in inflight.items()
            if not future.done() and now - submitted_at > self.chunk_timeout
        ]
        if not overdue:
            return False
        self.health.timeouts += len(overdue)
        self._discard_pool(kill=True)
        self._register_pool_failure()
        for future in overdue:
            job, _ = inflight.pop(future)
            self._job_failed(job, "timeout", None, queue, dead)
        for future, (job, _) in list(inflight.items()):
            job.not_before = 0.0
            queue.append(job)
        inflight.clear()
        return True

    def _handle_pool_failure(
        self,
        inflight: Dict[Future, Tuple[_ChunkJob, float]],
        queue: Deque[_ChunkJob],
        dead: List[Tuple[_ChunkJob, str, Optional[BaseException]]],
    ) -> bool:
        """A worker died: recycle the pool, requeue every in-flight chunk.

        All of the broken pool's futures are doomed, culprit and innocent
        alike (the pool cannot say which task killed the worker), so each
        is charged a failed attempt; repeated offenders converge to the
        poisoned task via bisection.  Returns True: the caller enters
        probing mode (one chunk at a time) until something completes.
        """
        for future, (job, _) in list(inflight.items()):
            self._job_failed(job, "crash", None, queue, dead)
        inflight.clear()
        self._discard_pool(kill=False)
        self._register_pool_failure()
        return True

    def _register_pool_failure(self) -> None:
        self._respawn_pending = True
        self._consecutive_pool_failures += 1
        if self._consecutive_pool_failures > DEFAULT_MAX_RESPAWNS:
            self._degraded = True
            self.health.degraded = True

    def _job_failed(
        self,
        job: _ChunkJob,
        kind: str,
        exc: Optional[BaseException],
        queue: Deque[_ChunkJob],
        dead: List[Tuple[_ChunkJob, str, Optional[BaseException]]],
    ) -> None:
        """Retry, bisect, or declare a chunk dead after a failure."""
        if job.attempts < self.max_retries:
            job.attempts += 1
            self.health.retries += 1
            if DEFAULT_BACKOFF > 0:
                job.not_before = time.monotonic() + DEFAULT_BACKOFF * (
                    2 ** (job.attempts - 1)
                )
            queue.append(job)
            return
        if len(job.items) > 1:
            # Out of retries but more than one suspect: bisect.  Each
            # half gets a fresh budget; recursion bottoms out at the
            # single poisoned task.
            self.health.bisections += 1
            mid = len(job.items) // 2
            queue.append(_ChunkJob(items=list(job.items[:mid])))
            queue.append(_ChunkJob(items=list(job.items[mid:])))
            return
        dead.append((job, kind, exc))

    def _task_error(
        self, job: _ChunkJob, kind: str, exc: Optional[BaseException]
    ) -> _RunItem:
        """Finalise a dead singleton chunk into a (index, TaskError) item."""
        index, (name, parameters) = job.items[0]
        if exc is not None:
            error_type, message = type(exc).__name__, str(exc)
        elif kind == "timeout":
            error_type = "ChunkTimeout"
            message = f"chunk exceeded the {self.chunk_timeout}s deadline"
        else:
            error_type = "WorkerCrash"
            message = "worker process died while running this task"
        error = TaskError(
            benchmark=name,
            parameters=parameters,
            index=index,
            attempts=job.attempts + 1,
            kind=kind,
            error_type=error_type,
            message=message,
        )
        self.health.task_errors.append(error)
        self.health.tasks_failed += 1
        return index, error

    # -- degraded serial path ------------------------------------------
    def _run_serial(self, queue: Deque[_ChunkJob], stores: StoreMap) -> Iterator[_RunItem]:
        """In-process fallback: run the remaining tasks in the parent.

        The pool kept dying without progress, so the campaign finishes on
        the one process known to work.  Traces are made as a worker makes
        them (:func:`_source`: a named workload is generated, a store
        mapped).  Tasks run one by one; an exception becomes that task's
        :class:`TaskError` instead of aborting the rest.  (A task that
        kills the *parent* — a genuine ``os._exit`` poison — is exactly
        what bisection catches before degradation is reached; degradation
        targets pool-level sickness: fork failures, initializer OOM, a
        broken interpreter in the children.)
        """
        if self._serial_simulator is None:
            self._serial_simulator = Simulator(system=self.system, engine=self.engine)
        while queue:
            job = queue.popleft()
            for index, (name, parameters) in job.items:
                started = time.monotonic()
                try:
                    trace, base_cpi = _source(
                        self._serial_sources, self._serial_simulator, name, stores
                    )
                    (result,) = self._serial_simulator.run_many(
                        trace, base_cpi, [parameters]
                    )
                except Exception as exc:
                    yield self._task_error(
                        _ChunkJob(items=[(index, (name, parameters))], attempts=job.attempts),
                        "error",
                        exc,
                    )
                    continue
                self.health.tasks_run += 1
                self.health.chunk_wall_times.append(time.monotonic() - started)
                yield index, result

    # -- cleanup -------------------------------------------------------
    def _drain_abandoned(self, inflight: Dict[Future, Tuple[_ChunkJob, float]]) -> None:
        """Never leak submitted work, and never wait for it.

        Runs on *every* exit from :meth:`run` — normal completion (no-op:
        nothing is in flight), an exception, or the consumer closing the
        generator mid-stream.  Unstarted chunks are cancelled and finished
        but unread ones dropped; if any chunk is still running, the pool
        is killed, because a hung or slow chunk would otherwise hold the
        caller for as long as it runs.  The next :meth:`run` spawns a
        fresh pool.
        """
        running = [
            future for future in inflight if not future.cancel() and not future.done()
        ]
        if running:
            self._discard_pool(kill=True)
        inflight.clear()
