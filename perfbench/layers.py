"""Per-layer attribution for the traced benchmark run.

The program has no profiler of its own, so the traced run wraps the
public entry points of each ``repro`` layer from the benchmark's side and
keeps, per layer, the *self* time (a span's duration minus the part its
child spans cover), call counts, and item counts.  Spans nest on one
stack; nothing is recorded per access, only per call.

Attribution rules:

* ``Cache.access_batch`` is the L1 classifier, except when it runs inside
  ``MemoryHierarchy.access_batch_from_l1_misses``: the hierarchy's own L2
  classification is charged to ``memory.l2``, not to ``memory.l1``.
* A call that re-enters the layer it is already in (``Simulator.run_dri``
  calling ``run_dri_trace``, ``compare_runs`` calling
  ``EnergyModel.breakdown``) opens no second span.
* The parent sees a sweep's worker pool through the
  ``simulation.executor`` spans: the store spill and the time spent
  waiting on ``SweepExecutor.run``.  Workers forked from the parent
  record their own spans into a fresh tracer and write the totals to a
  spool directory after every chunk; ``Tracer.merge_workers`` folds them
  into ``worker_self_s`` and the counts.

``Tracer.other_s(wall)`` is what no parent span claims (driver loops,
sweep bookkeeping, result construction), so the parent's layer self
times plus ``other.self_s`` sum to the traced wall by construction;
``Tracer.check()`` verifies the part that is not by construction, that
the self times add up to the root spans and fit inside the wall.
Worker self times run in parallel with the parent's wait and are
reported on top of it, outside that sum.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

WORKLOADS = "workloads"
L1 = "memory.l1"
L2 = "memory.l2"
BOUNDARY = "dri.boundary"
FUSED = "dri.fused"
REPLAY = "simulation.replay"
SPILL = "simulation.executor.spill"
WAIT = "simulation.executor.wait"
ENERGY = "energy.compare"

SELF_TIME_METRICS = {
    WORKLOADS: "workloads.generate_s",
    L1: "memory.l1.self_s",
    L2: "memory.l2.self_s",
    BOUNDARY: "dri.boundary.self_s",
    FUSED: "dri.fused.self_s",
    REPLAY: "simulation.replay.self_s",
    SPILL: "simulation.executor.spill_s",
    WAIT: "simulation.executor.wait_s",
    ENERGY: "energy.compare.self_s",
}
"""The metric each layer's self time is reported as."""

COUNTS = (
    "workloads.accesses",
    "memory.l1.calls",
    "memory.l1.accesses",
    "memory.l1.misses",
    "memory.l2.calls",
    "memory.l2.accesses",
    "memory.l2.misses",
    "dri.boundary.calls",
    "dri.fused.calls",
    "dri.resizes",
    "simulation.replay.runs",
    "simulation.sweep.requested",
    "simulation.sweep.tasks",
    "energy.compare.calls",
)
"""The counts the wrappers keep; each repeats exactly for a given seed."""


class Tracer:
    """Span stack plus per-layer self-time and count accumulators."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.worker_self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self.chunk_times: List[float] = []

    def adopt_process(self) -> None:
        """Start empty in a forked worker (its copy holds the parent's state)."""
        if self.pid != os.getpid():
            self.__init__()

    def write_totals(self, spool: Path) -> None:
        """Write this process's totals to ``spool`` (one file per pid)."""
        payload = {"self_s": self.self_s, "counts": self.counts}
        path = spool / f"worker-{self.pid}.json"
        path.with_suffix(".tmp").write_text(json.dumps(payload))
        path.with_suffix(".tmp").replace(path)

    def merge_workers(self, spool: Path) -> None:
        """Fold and delete every worker's totals written to ``spool``."""
        for path in sorted(spool.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            for layer, seconds in payload["self_s"].items():
                self.worker_self_s[layer] += seconds
            for key, count in payload["counts"].items():
                self.counts[key] += count
            path.unlink()

    @property
    def recording(self) -> bool:
        """False in a forked worker until ``adopt_process`` takes it over."""
        return os.getpid() == self.pid

    @property
    def current(self) -> Optional[str]:
        """The innermost open layer, or None outside every span."""
        return self._stack[-1][0] if self._stack else None

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def other_s(self, wall_s: float) -> float:
        """Wall time no layer span covers."""
        return wall_s - sum(self.self_s.values())

    def check(self, wall_s: float) -> List[str]:
        """What is wrong with the span accounting of a campaign of ``wall_s``."""
        problems = []
        if self._stack:
            problems.append(f"unclosed spans: {[entry[0] for entry in self._stack]}")
        total = sum(self.self_s.values())
        if abs(total - self.root_s) > 1e-6 * max(1.0, self.root_s):
            problems.append(f"layer self times sum to {total}, root spans to {self.root_s}")
        if self.root_s > wall_s * (1 + 1e-9):
            problems.append(f"root spans of {self.root_s} s exceed the {wall_s} s wall")
        return problems


def _span(tracer: Tracer, layer: str, func: Callable, after=None) -> Callable:
    """Wrap ``func`` in a ``layer`` span; ``after(args, result)`` counts."""

    def wrapper(*args, **kwargs):
        if not tracer.recording or tracer.current == layer:
            return func(*args, **kwargs)
        tracer.enter(layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


def _spanned_iterator(tracer: Tracer, layer: str, iterator, on_item=None):
    """Re-yield ``iterator`` with every ``next()`` inside a ``layer`` span."""
    while True:
        if not tracer.recording:
            item = next(iterator, StopIteration)
        else:
            tracer.enter(layer)
            try:
                item = next(iterator, StopIteration)
            finally:
                tracer.exit()
        if item is StopIteration:
            return
        if on_item is not None and tracer.recording:
            on_item(item)
        yield item


class Patches:
    """Installs the layer wrappers on the ``repro`` classes and modules.

    ``install`` records every attribute it replaces; ``uninstall`` puts
    the originals back, so untraced and traced campaigns can alternate in
    one process.
    """

    def __init__(self, tracer: Tracer, spool: Optional[Path] = None) -> None:
        self.tracer = tracer
        self.spool = spool
        self._saved: List[tuple] = []

    def _replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        from repro.dri.dri_cache import DRIICache
        from repro.energy.model import EnergyModel
        from repro.memory.cache import Cache
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.simulation import executor as executor_module
        from repro.simulation import simulator as simulator_module
        from repro.simulation import sweep as sweep_module
        from repro.simulation.executor import SweepExecutor
        from repro.simulation.simulator import Simulator
        from repro.simulation.sweep import ParameterSweep
        from repro.workloads.generator import GeneratedTraceSource
        from repro.workloads.source import ArrayTraceSource, DinTraceSource, TraceStore

        tracer = self.tracer
        add = tracer.add

        # workloads: trace generation and every chunk a source yields.
        self._replace(
            simulator_module,
            "generate_trace",
            _span(
                tracer,
                WORKLOADS,
                simulator_module.generate_trace,
                lambda args, trace: add("workloads.accesses", trace.num_accesses),
            ),
        )

        def count_chunk(chunk) -> None:
            add("workloads.accesses", int(chunk.shape[0]))

        for source_class in (GeneratedTraceSource, ArrayTraceSource, TraceStore, DinTraceSource):
            chunks = source_class.__dict__["chunks"]

            def traced_chunks(self, *args, _chunks=chunks, **kwargs):
                return _spanned_iterator(
                    tracer, WORKLOADS, _chunks(self, *args, **kwargs), count_chunk
                )

            self._replace(source_class, "chunks", traced_chunks)

        # memory: L1 classification, and the L2 drain with its inner
        # access_batch charged to the L2.
        access_batch = Cache.__dict__["access_batch"]

        def traced_access_batch(cache, addresses, *args, **kwargs):
            if not tracer.recording or tracer.current == L2:
                return access_batch(cache, addresses, *args, **kwargs)
            tracer.enter(L1)
            try:
                hits = access_batch(cache, addresses, *args, **kwargs)
            finally:
                tracer.exit()
            count = int(addresses.shape[0])
            add("memory.l1.calls")
            add("memory.l1.accesses", count)
            add("memory.l1.misses", count - int(np.count_nonzero(hits)))
            return hits

        self._replace(Cache, "access_batch", traced_access_batch)

        def count_l2(args, result) -> None:
            add("memory.l2.calls")
            add("memory.l2.accesses", int(args[1].shape[0]))
            add("memory.l2.misses", result[1])

        self._replace(
            MemoryHierarchy,
            "access_batch_from_l1_misses",
            _span(tracer, L2, MemoryHierarchy.access_batch_from_l1_misses, count_l2),
        )

        # dri: interval boundaries (Python path) and fused chunks.
        def count_boundary(args, outcome) -> None:
            add("dri.boundary.calls")
            if outcome is not None and outcome.changed:
                add("dri.resizes")

        for name in ("end_interval", "finalize"):
            self._replace(
                DRIICache, name, _span(tracer, BOUNDARY, getattr(DRIICache, name), count_boundary)
            )

        fused_chunk = DRIICache.fused_chunk

        def traced_fused_chunk(cache, *args, **kwargs):
            before = cache.dri_stats.resizings
            result = _span(tracer, FUSED, fused_chunk)(cache, *args, **kwargs)
            if tracer.recording:
                add("dri.fused.calls")
                add("dri.resizes", cache.dri_stats.resizings - before)
            return result

        self._replace(DRIICache, "fused_chunk", traced_fused_chunk)

        # simulation: replays, the sweep memo, the executor.
        for name in ("run_conventional", "run_fixed_size", "run_dri", "run_dri_trace"):
            self._replace(
                Simulator,
                name,
                _span(
                    tracer,
                    REPLAY,
                    getattr(Simulator, name),
                    lambda args, result: add("simulation.replay.runs"),
                ),
            )

        pending_tasks = ParameterSweep._pending_tasks

        def traced_pending_tasks(sweep, pairs):
            tasks, resolved = pending_tasks(sweep, pairs)
            if tracer.recording:
                add("simulation.sweep.requested", len(pairs))
                add("simulation.sweep.tasks", len(tasks))
            return tasks, resolved

        self._replace(ParameterSweep, "_pending_tasks", traced_pending_tasks)

        for name in ("conventional_baseline", "_dri_result"):
            lookup = getattr(ParameterSweep, name)

            def traced_lookup(sweep, *args, _lookup=lookup, **kwargs):
                runs = tracer.counts["simulation.replay.runs"]
                result = _lookup(sweep, *args, **kwargs)
                if tracer.recording:
                    add("simulation.sweep.requested")
                    add("simulation.sweep.tasks", tracer.counts["simulation.replay.runs"] - runs)
                return result

            self._replace(ParameterSweep, name, traced_lookup)

        save = TraceStore.__dict__["save"].__func__
        self._replace(TraceStore, "save", classmethod(_span(tracer, SPILL, save)))

        run = SweepExecutor.run

        def traced_run(executor, *args, **kwargs):
            ledger = executor.health.chunk_wall_times
            first = len(ledger)
            try:
                yield from _spanned_iterator(tracer, WAIT, run(executor, *args, **kwargs))
            finally:
                if tracer.recording:
                    tracer.chunk_times.extend(ledger[first:])

        self._replace(SweepExecutor, "run", traced_run)

        if self.spool is not None:
            run_chunk = executor_module._run_chunk
            parent, spool = tracer.pid, self.spool

            def traced_run_chunk(stores, tasks):
                if os.getpid() == parent:
                    return run_chunk(stores, tasks)
                tracer.adopt_process()
                try:
                    return run_chunk(stores, tasks)
                finally:
                    tracer.write_totals(spool)

            # Pool submissions pickle the task function by module and name,
            # which must resolve to this wrapper in the (forked) workers.
            traced_run_chunk.__module__ = run_chunk.__module__
            traced_run_chunk.__qualname__ = run_chunk.__qualname__
            self._replace(executor_module, "_run_chunk", traced_run_chunk)

        # energy: the per-point comparison (and the model it calls).
        self._replace(
            sweep_module,
            "compare_runs",
            _span(
                tracer,
                ENERGY,
                sweep_module.compare_runs,
                lambda args, result: add("energy.compare.calls"),
            ),
        )
        self._replace(EnergyModel, "breakdown", _span(tracer, ENERGY, EnergyModel.breakdown))

    def __enter__(self) -> "Patches":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
        if self.spool is not None:
            self.tracer.merge_workers(self.spool)
