"""Tests for the persistent sweep executor.

Pin the contract of the warm-pool subsystem: the jobs clamp, one chunk
per benchmark group, pool reuse across consecutive sweep calls (asserted
via worker-pid capture — the regression is a fresh pool per call),
pooled ``prefetch`` results memoized once, workers that generate named
workloads themselves, an interrupted ``prefetch`` that never waits for
a running chunk, and bit-identity of every parallel variant with the
serial path, pickled ``PolicySpec``s included.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import replace

import pytest

try:
    from hypothesis import given, strategies as st
except ImportError:  # CI's fault-injection job runs this file without Hypothesis
    given = None

from repro.config.parameters import DRIParameters
from repro.config.system import DEFAULT_SYSTEM
import repro.simulation.executor as executor_module
from repro.simulation.executor import (
    CampaignHealth,
    SweepExecutor,
    TaskError,
)
from repro.simulation.experiments import QUICK_SCALE, figure3_experiment
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep, _resolve_jobs
from repro.workloads.generator import generate_trace
from repro.workloads.source import ArrayTraceSource
from repro.workloads.spec95 import get_benchmark

INSTRUCTIONS = 60_000
SENSE_INTERVAL = 5_000


@pytest.fixture(autouse=True)
def _retry_without_backoff(monkeypatch):
    """Failed chunks are resubmitted at once: the fault tests count
    retries, and the real backoff would only slow them down."""
    monkeypatch.setattr(executor_module, "DEFAULT_BACKOFF", 0.0)


def _sweep(jobs: int = 1) -> ParameterSweep:
    return ParameterSweep(
        Simulator(trace_instructions=INSTRUCTIONS, seed=7),
        base_parameters=DRIParameters(sense_interval=SENSE_INTERVAL),
        jobs=jobs,
    )


def _memoized(sweep, pairs):
    """``{(benchmark, parameters): result}`` for every pair ``sweep`` has
    in its memo; a pair that was never simulated is left out."""
    found = {}
    for name, parameters in pairs:
        if parameters is None:
            result = sweep._conventional_cache.get(name)
        else:
            result = sweep._dri_cache.get(sweep._dri_key(name, parameters))
        if result is not None:
            found[(name, parameters)] = result
    return found


def _point_key(point):
    return (
        point.parameters,
        point.simulation.cycles,
        point.simulation.l1_misses,
        point.simulation.l2_accesses,
        point.energy_delay,
    )


def _grid_keys(result):
    return [_point_key(point) for point in result.points]


class TestResolveJobs:
    def test_below_one_means_all_cores(self):
        assert _resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_positive_request_passes_through(self):
        assert _resolve_jobs(8) == 8

    def test_clamped_to_task_count(self):
        assert _resolve_jobs(8, task_count=4) == 4

    def test_task_count_above_jobs_does_not_raise_them(self):
        assert _resolve_jobs(2, task_count=100) == 2

    def test_empty_task_list_clamps_to_one(self):
        assert _resolve_jobs(8, task_count=0) == 1

    def test_all_cores_still_clamped(self):
        assert _resolve_jobs(0, task_count=1) == 1


def _interleaved_tasks(names, per_benchmark):
    """``per_benchmark`` tasks of each benchmark, dealt round-robin."""
    base = DRIParameters(size_bound=1024, sense_interval=SENSE_INTERVAL)
    return [
        (name, replace(base, miss_bound=10 * (k + 1)))
        for k in range(per_benchmark)
        for name in names
    ]


class TestChunkSize:
    def test_each_benchmark_group_is_one_chunk(self):
        tasks = _interleaved_tasks(("compress", "li", "gcc"), 5)
        chunks = SweepExecutor(DEFAULT_SYSTEM, "batched", jobs=2).chunks(tasks)
        # A worker's share is 8 tasks, so no 5-task group is split.
        assert [{tasks[index][0] for index in chunk} for chunk in chunks] == [
            {"compress"},
            {"li"},
            {"gcc"},
        ]
        assert [len(chunk) for chunk in chunks] == [5, 5, 5]

    def test_a_group_above_a_workers_share_is_split(self):
        tasks = _interleaved_tasks(("compress",), 9)
        chunks = SweepExecutor(DEFAULT_SYSTEM, "batched", jobs=2).chunks(tasks)
        assert len(chunks) == 2
        assert max(len(chunk) for chunk in chunks) <= 5
        assert sorted(index for chunk in chunks for index in chunk) == list(range(9))

    def test_the_largest_group_is_submitted_first(self, monkeypatch):
        submitted = []
        submit = SweepExecutor._submit

        def spy(executor, job, stores):
            submitted.append([task for _, task in job.items])
            return submit(executor, job, stores)

        monkeypatch.setattr(SweepExecutor, "_submit", spy)
        base = DRIParameters(size_bound=1024, sense_interval=SENSE_INTERVAL)
        pairs = [("li", None), ("li", base), ("compress", None)]
        pairs += [("compress", replace(base, miss_bound=bound)) for bound in (10, 80)]
        with _sweep(jobs=2) as sweep:
            assert sweep.prefetch(pairs) == 5
        assert [[name for name, _ in chunk] for chunk in submitted] == [
            ["compress"] * 3,
            ["li"] * 2,
        ]

    @pytest.mark.skipif(given is None, reason="needs Hypothesis")
    def test_chunks_follow_the_group_rule(self):
        base = DRIParameters(size_bound=1024, sense_interval=SENSE_INTERVAL)

        @given(
            names=st.lists(
                st.sampled_from(("compress", "li", "gcc", "go", "swim", "fpppp")),
                min_size=1,
                max_size=40,
            ),
            jobs=st.integers(min_value=1, max_value=8),
        )
        def check(names, jobs):
            tasks = [
                (name, replace(base, miss_bound=index + 1))
                for index, name in enumerate(names)
            ]
            executor = SweepExecutor(DEFAULT_SYSTEM, "batched", jobs=jobs)
            chunks = executor.chunks(tasks)
            share = math.ceil(len(tasks) / jobs)
            # The chunks partition the task indices.
            assert all(chunks)
            assert sorted(index for chunk in chunks for index in chunk) == list(
                range(len(tasks))
            )
            # Each holds one benchmark's tasks, in task order, at most a
            # worker's share of them.
            for chunk in chunks:
                assert len({tasks[index][0] for index in chunk}) == 1
                assert chunk == sorted(chunk)
                assert len(chunk) <= share
            # A group is split only above that share, then near-evenly.
            for name in set(names):
                sizes = [len(chunk) for chunk in chunks if tasks[chunk[0]][0] == name]
                if names.count(name) <= share:
                    assert sizes == [names.count(name)]
                else:
                    assert max(sizes) - min(sizes) <= 1
            # Largest first.
            sizes = [len(chunk) for chunk in chunks]
            assert sizes == sorted(sizes, reverse=True)
            # Cutting the work forks nothing.
            assert executor.pools_spawned == 0 and executor.pool_pids == set()

        check()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SweepExecutor(DEFAULT_SYSTEM, "batched", jobs=0)


class TestExecutorReuse:
    MISS_BOUNDS = (10, 80)
    SIZE_BOUNDS = (1024, 8192)

    def test_consecutive_grid_many_calls_share_one_pool(self):
        with _sweep(jobs=2) as sweep:
            first = sweep.grid_many(
                ["compress", "li"], miss_bounds=self.MISS_BOUNDS, size_bounds=self.SIZE_BOUNDS
            )
            executor = sweep._executor
            assert executor is not None
            assert executor.pools_spawned == 1
            pool_pids = executor.pool_pids
            assert executor.worker_pids <= pool_pids
            assert os.getpid() not in executor.worker_pids

            second = sweep.grid_many(
                ["compress", "li"], miss_bounds=(40, 120), size_bounds=(2048,)
            )
            # Same executor, same pool, same worker processes: no respawn.
            assert sweep._executor is executor
            assert executor.pools_spawned == 1
            assert executor.pool_pids == pool_pids
            assert executor.worker_pids <= pool_pids

        # Bit-identical to fresh-pool-free serial runs of both calls.
        serial = _sweep()
        for name in ("compress", "li"):
            assert _grid_keys(first[name]) == _grid_keys(
                serial.grid(name, miss_bounds=self.MISS_BOUNDS, size_bounds=self.SIZE_BOUNDS)
            )
            assert _grid_keys(second[name]) == _grid_keys(
                serial.grid(name, miss_bounds=(40, 120), size_bounds=(2048,))
            )

    def test_jobs_request_is_clamped_at_pool_creation(self):
        with _sweep(jobs=8) as sweep:
            sweep.grid("compress", miss_bounds=(10, 80), size_bounds=(1024,))
            # 2 grid points + 1 baseline = 3 tasks: an 8-worker request
            # must not fork 8 processes.
            assert sweep._executor is not None
            assert sweep._executor.jobs == 3

    def test_smaller_later_call_reuses_the_bigger_pool(self):
        with _sweep(jobs=2) as sweep:
            sweep.grid("compress", miss_bounds=self.MISS_BOUNDS, size_bounds=self.SIZE_BOUNDS)
            executor = sweep._executor
            sweep.grid("li", miss_bounds=(10, 80), size_bounds=(1024,))
            assert sweep._executor is executor
            assert executor.pools_spawned == 1

    def test_jobs1_never_touches_pool_machinery(self):
        sweep = _sweep()
        sweep.grid("compress", miss_bounds=self.MISS_BOUNDS, size_bounds=self.SIZE_BOUNDS)
        assert sweep._executor is None

    def test_close_then_parallel_call_builds_a_fresh_executor(self):
        sweep = _sweep(jobs=2)
        sweep.grid("compress", miss_bounds=self.MISS_BOUNDS, size_bounds=self.SIZE_BOUNDS)
        first_executor = sweep._executor
        sweep.close()
        assert sweep._executor is None
        sweep.grid("li", miss_bounds=self.MISS_BOUNDS, size_bounds=self.SIZE_BOUNDS)
        assert sweep._executor is not None
        assert sweep._executor is not first_executor
        sweep.close()


class TestChunking:
    def test_all_chunk_sizes_are_bit_identical_to_serial(self):
        # Seven tasks of one benchmark: the group rule cuts them into
        # chunks of 4+3 at two workers, 3+2+2 at three and 2+2+2+1 at
        # four.
        miss_bounds = (10, 40, 80)
        size_bounds = (1024, 8192)
        expected = _grid_keys(
            _sweep().grid("compress", miss_bounds=miss_bounds, size_bounds=size_bounds)
        )
        for jobs, chunks in ((2, 2), (3, 3), (4, 4)):
            with _sweep(jobs=jobs) as sweep:
                result = sweep.grid(
                    "compress", miss_bounds=miss_bounds, size_bounds=size_bounds
                )
            assert _grid_keys(result) == expected, f"jobs={jobs}"
            assert len(sweep.health.chunk_wall_times) == chunks, f"jobs={jobs}"


class TestWorkerGeneration:
    """Named workloads reach the pool as specs; workers generate them."""

    def test_pooled_equals_serial_at_a_non_default_length_and_seed(self):
        # Neither 600,000 instructions nor seed 2001: a worker that
        # generated at the defaults would replay another trace.
        def sweep(jobs):
            return ParameterSweep(
                Simulator(trace_instructions=48_000, seed=5),
                base_parameters=DRIParameters(sense_interval=SENSE_INTERVAL),
                jobs=jobs,
            )

        grid = dict(miss_bounds=(10, 80), size_bounds=(1024, 8192))
        with sweep(2) as pooled:
            results = pooled.grid_many(["compress", "li"], **grid)
            assert pooled._stores == {}
        serial = sweep(1)
        for name in ("compress", "li"):
            assert _grid_keys(results[name]) == _grid_keys(serial.grid(name, **grid))
            assert results[name].conventional.instructions == 48_000

    def test_pooled_figure3_generates_nothing_in_the_parent(self, generated):
        benchmarks = ["compress", "li"]
        with QUICK_SCALE.sweep(jobs=2) as sweep:
            pooled = figure3_experiment(benchmarks, QUICK_SCALE, sweep=sweep)
            assert sweep._stores == {}
        assert generated == []
        serial = figure3_experiment(benchmarks, QUICK_SCALE)
        assert generated == benchmarks
        assert pooled.constrained == serial.constrained
        assert pooled.unconstrained == serial.unconstrained


class TestPrefetch:
    PAIRS_BOUNDS = ((10, 80), (1024, 8192))

    def _pairs(self):
        miss_bounds, size_bounds = self.PAIRS_BOUNDS
        pairs = [("compress", None)]
        for size_bound in size_bounds:
            for miss_bound in miss_bounds:
                pairs.append(
                    (
                        "compress",
                        DRIParameters(
                            miss_bound=miss_bound,
                            size_bound=size_bound,
                            sense_interval=SENSE_INTERVAL,
                        ),
                    )
                )
        return pairs

    def test_pooled_run_memoizes_every_task_once(self):
        pairs = self._pairs()
        with _sweep(jobs=2) as sweep:
            assert sweep.prefetch(pairs) == len(pairs)
            assert sweep.health.tasks_run == len(pairs)
            assert set(_memoized(sweep, pairs)) == set(pairs)
            # Every result is already in the memo, so a second prefetch
            # runs nothing.
            assert sweep.prefetch(pairs) == 0
            assert sweep.health.tasks_run == len(pairs)

    def test_pooled_results_match_serial_evaluate(self):
        pairs = self._pairs()
        with _sweep(jobs=2) as sweep:
            sweep.prefetch(pairs)
        pooled = _memoized(sweep, pairs)
        serial = _sweep()
        for _, parameters in pairs:
            if parameters is None:
                expected = serial.conventional_baseline("compress")
            else:
                expected = serial.evaluate("compress", parameters).simulation
            result = pooled[("compress", parameters)]
            assert result.cycles == expected.cycles
            assert result.l1_misses == expected.l1_misses
            assert result.l2_accesses == expected.l2_accesses


class TestPolicyPickling:
    def test_policy_specs_survive_the_pool(self):
        # The regression CI guards: an unpicklable PolicySpec (or one
        # that loses options in transit) would either crash the pool or
        # break bit-identity with the serial path.
        base = DRIParameters(
            miss_bound=40, size_bound=1024, sense_interval=SENSE_INTERVAL
        )
        pairs = [
            ("compress", base.with_policy("hysteresis")),
            ("compress", base.with_policy("pid")),
            ("li", base.with_policy("hysteresis:consecutive=2")),
        ]
        with _sweep(jobs=2) as sweep:
            parallel = sweep.evaluate_many(pairs)
        serial_sweep = _sweep()
        serial = [serial_sweep.evaluate(name, params) for name, params in pairs]
        for a, b in zip(serial, parallel):
            assert _point_key(a) == _point_key(b)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------
#
# The hooks below are installed on the parent's module global before the
# pool forks, so every worker inherits them.  Each hook is inert in the
# parent (checked via pid) so the serial comparison paths stay clean, and
# "crash once" semantics are kept across respawned workers by counting
# attempts in a file on disk — the only state that survives os._exit.

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault hooks reach workers via fork inheritance",
)

MARKER_MISS_BOUND = 80


def _fault_pairs():
    pairs = [("compress", None)]
    for miss_bound in (10, 20, 40, MARKER_MISS_BOUND, 160, 320):
        pairs.append(
            (
                "compress",
                DRIParameters(
                    miss_bound=miss_bound,
                    size_bound=1024,
                    sense_interval=SENSE_INTERVAL,
                ),
            )
        )
    return pairs


def _fault_sweep(**kwargs) -> ParameterSweep:
    kwargs.setdefault("jobs", 2)
    return ParameterSweep(
        Simulator(trace_instructions=INSTRUCTIONS, seed=7),
        base_parameters=DRIParameters(sense_interval=SENSE_INTERVAL),
        **kwargs,
    )


def _is_marker(parameters) -> bool:
    return parameters is not None and parameters.miss_bound == MARKER_MISS_BOUND


def _crash_once_hook(counter_path: str, parent_pid: int):
    def hook(name, parameters):
        if os.getpid() == parent_pid or not _is_marker(parameters):
            return
        with open(counter_path, "ab") as fh:
            fh.write(b"x")
        if os.path.getsize(counter_path) == 1:
            os._exit(1)

    return hook


def _serial_reference(pairs):
    sweep = _fault_sweep(jobs=1)
    expected = {}
    for name, parameters in pairs:
        if parameters is None:
            result = sweep.conventional_baseline(name)
        else:
            result = sweep.evaluate(name, parameters).simulation
        expected[(name, parameters)] = result
    return expected


@fork_only
class TestWorkerCrashRecovery:
    def test_crash_once_retries_to_bit_identical_completion(
        self, tmp_path, monkeypatch
    ):
        pairs = _fault_pairs()
        counter = str(tmp_path / "attempts")
        monkeypatch.setattr(
            executor_module,
            "_fault_hook",
            _crash_once_hook(counter, os.getpid()),
        )
        sweep = _fault_sweep()
        with sweep:
            completed = sweep.prefetch(pairs)
        recovered = _memoized(sweep, pairs)
        health = sweep.health
        assert completed == len(recovered) == len(pairs)
        assert health.tasks_failed == 0
        assert health.retries >= 1
        assert health.respawns >= 1
        assert health.healthy is False  # retries happened

        monkeypatch.setattr(executor_module, "_fault_hook", None)
        expected = _serial_reference(pairs)
        for key, result in recovered.items():
            want = expected[key]
            assert result.cycles == want.cycles
            assert result.l1_misses == want.l1_misses
            assert result.l2_accesses == want.l2_accesses

    def test_broken_pool_is_replaced_not_reused(self, tmp_path, monkeypatch):
        pairs = _fault_pairs()
        counter = str(tmp_path / "attempts")
        monkeypatch.setattr(
            executor_module,
            "_fault_hook",
            _crash_once_hook(counter, os.getpid()),
        )
        sweep = _fault_sweep()
        with sweep:
            sweep.prefetch(pairs)
            executor = sweep._executor
            assert executor is not None
            # The crash broke the first pool; completion proves a fresh
            # one was spawned rather than the broken one resubmitted to.
            assert executor.pools_spawned >= 2
        assert sweep.health.respawns >= 1


@fork_only
class TestPoisonedTaskBisection:
    def test_poison_is_isolated_and_reported(self, monkeypatch):
        pairs = _fault_pairs()
        parent = os.getpid()

        def poison_hook(name, parameters):
            if os.getpid() != parent and _is_marker(parameters):
                os._exit(1)

        monkeypatch.setattr(executor_module, "_fault_hook", poison_hook)
        sweep = _fault_sweep(max_retries=2)
        with sweep:
            completed = sweep.prefetch(pairs)
        memoized = _memoized(sweep, pairs)
        health = sweep.health

        assert completed == len(memoized) == len(pairs) - 1
        assert all(not _is_marker(parameters) for _, parameters in memoized)
        assert health.tasks_failed == 1
        assert health.bisections >= 1
        assert health.degraded is False

        (error,) = health.task_errors
        assert error.benchmark == "compress"
        assert _is_marker(error.parameters)
        assert error.kind == "crash"
        assert error.attempts == 3  # initial try + max_retries
        assert "compress" in str(error.message) or error.error_type

    def test_healthy_results_bit_identical_after_bisection(self, monkeypatch):
        pairs = _fault_pairs()
        parent = os.getpid()

        def poison_hook(name, parameters):
            if os.getpid() != parent and _is_marker(parameters):
                os._exit(1)

        monkeypatch.setattr(executor_module, "_fault_hook", poison_hook)
        sweep = _fault_sweep()
        with sweep:
            sweep.prefetch(pairs)
        recovered = _memoized(sweep, pairs)

        monkeypatch.setattr(executor_module, "_fault_hook", None)
        healthy_pairs = [p for p in pairs if not _is_marker(p[1])]
        expected = _serial_reference(healthy_pairs)
        assert set(recovered) == set(expected)
        for key, result in recovered.items():
            want = expected[key]
            assert result.cycles == want.cycles
            assert result.l1_misses == want.l1_misses
            assert result.l2_accesses == want.l2_accesses


@fork_only
class TestChunkTimeout:
    def test_hung_worker_is_killed_and_task_retried(self, tmp_path, monkeypatch):
        pairs = _fault_pairs()
        counter = str(tmp_path / "attempts")
        parent = os.getpid()

        def hang_once_hook(name, parameters):
            if os.getpid() == parent or not _is_marker(parameters):
                return
            with open(counter, "ab") as fh:
                fh.write(b"x")
            if os.path.getsize(counter) == 1:
                time.sleep(120.0)

        monkeypatch.setattr(executor_module, "_fault_hook", hang_once_hook)
        sweep = _fault_sweep(chunk_timeout=3.0)
        start = time.monotonic()
        with sweep:
            completed = sweep.prefetch(pairs)
        elapsed = time.monotonic() - start
        health = sweep.health

        assert completed == len(pairs)
        assert health.timeouts >= 1
        assert health.tasks_failed == 0
        assert health.retries >= 1
        assert elapsed < 60.0  # the 120s sleep was cut short


@fork_only
class TestSerialDegradation:
    def test_sick_pool_degrades_and_still_completes(self, monkeypatch):
        pairs = _fault_pairs()
        parent = os.getpid()

        def sick_hook(name, parameters):
            if os.getpid() != parent:
                os._exit(1)

        monkeypatch.setattr(executor_module, "_fault_hook", sick_hook)
        monkeypatch.setattr(executor_module, "DEFAULT_MAX_RESPAWNS", 1)
        sweep = _fault_sweep(max_retries=1)
        with sweep:
            completed = sweep.prefetch(pairs)
        recovered = _memoized(sweep, pairs)
        health = sweep.health

        # Degradation runs everything in the parent, where the hook is
        # inert — the campaign completes with zero failed tasks.
        assert health.degraded is True
        assert completed == len(recovered) == len(pairs)
        assert health.tasks_failed == 0
        assert "degraded to serial" in health.summary()

        monkeypatch.setattr(executor_module, "_fault_hook", None)
        expected = _serial_reference(pairs)
        for key, result in recovered.items():
            assert result.cycles == expected[key].cycles


@fork_only
class TestInterruptedPrefetch:
    def test_an_interrupt_kills_the_running_chunks_at_once(self, monkeypatch):
        # li's chunk sleeps 20 s in its worker; compress's finishes first,
        # and memoizing it raises.  The interrupt must reach the caller
        # without waiting for li, and leave no worker behind.
        pairs = [("compress", None), ("li", None)]
        parent = os.getpid()

        def slow_li(name, parameters):
            if os.getpid() != parent and name == "li":
                time.sleep(20.0)

        def interrupt(sweep, task, result):
            raise KeyboardInterrupt

        sweep = _fault_sweep(jobs=2)
        with sweep:
            with monkeypatch.context() as patch:
                patch.setattr(executor_module, "_fault_hook", slow_li)
                patch.setattr(ParameterSweep, "_memoize", interrupt)
                start = time.monotonic()
                with pytest.raises(KeyboardInterrupt):
                    sweep.prefetch(pairs)
                elapsed = time.monotonic() - start
            executor = sweep._executor
            assert elapsed < 10.0
            assert executor.pool_pids == set()

            # The sweep stays usable: the next prefetch spawns a new pool
            # and runs both tasks, as serial would.
            assert sweep.prefetch(pairs) == 2
            assert executor.pools_spawned == 2
        recovered = _memoized(sweep, pairs)
        expected = _serial_reference(pairs)
        assert set(recovered) == set(pairs)
        for key, result in recovered.items():
            assert _run_key(result) == _run_key(expected[key])


class TestCampaignHealth:
    def test_fresh_ledger_is_healthy(self):
        health = CampaignHealth()
        assert health.healthy is True
        assert health.summary() == "campaign health: 0 tasks ok"

    def test_summary_counts_failures(self):
        health = CampaignHealth()
        health.tasks_run = 5
        health.tasks_failed = 1
        health.retries = 2
        assert health.healthy is False
        summary = health.summary()
        assert "5 tasks ok" in summary
        assert "1 failed" in summary

    def test_clean_parallel_campaign_reports_healthy(self):
        pairs = _fault_pairs()[:3]
        sweep = _fault_sweep(jobs=2)
        with sweep:
            sweep.prefetch(pairs)
        health = sweep.health
        assert health.tasks_run == len(pairs)
        assert health.healthy is True
        assert health.task_errors == []

    def test_serial_path_records_health_too(self):
        pairs = _fault_pairs()[:3]
        sweep = _fault_sweep(jobs=1)
        with sweep:
            sweep.prefetch(pairs)
        assert sweep.health.tasks_run == len(pairs)
        # One entry per lockstep pass: the three compress tasks share one.
        assert {name for name, _ in pairs} == {"compress"}
        assert len(sweep.health.chunk_wall_times) == 1


def _counted_source(name: str = "compress"):
    """``name``'s trace as a source whose passes are counted: each pass
    over the trace is one ``chunks`` call, recorded with its chunk length."""
    trace = generate_trace(get_benchmark(name), total_instructions=INSTRUCTIONS, seed=7)
    source = ArrayTraceSource(trace)
    passes = []
    chunks = source.chunks

    def counted_chunks(chunk_accesses):
        passes.append(chunk_accesses)
        return chunks(chunk_accesses)

    source.chunks = counted_chunks
    return source, passes


def _run_key(result):
    stats = result.dri_stats
    return (
        result.benchmark,
        result.cycles,
        result.l1_misses,
        result.l2_accesses,
        result.l2_misses,
        None if stats is None else stats.intervals,
    )


class TestLockstepGrouping:
    def test_serial_grid_is_one_pass_over_the_trace(self):
        source, passes = _counted_source()
        result = _sweep(jobs=1).grid(source)
        assert len(result.points) == 16
        # 16 grid points plus the baseline, one pass at the grid's interval.
        assert passes == [SENSE_INTERVAL // 8]

    def test_two_sense_intervals_make_two_passes(self):
        source, passes = _counted_source()
        base = DRIParameters(sense_interval=SENSE_INTERVAL)
        pairs = [
            (source, None),
            (source, base),
            (source, base.with_interval(2 * SENSE_INTERVAL)),
            (source, replace(base, miss_bound=80)),
        ]
        assert _sweep(jobs=1).prefetch(pairs) == 4
        assert passes == [SENSE_INTERVAL // 8, 2 * SENSE_INTERVAL // 8]

    def test_pool_run_of_mixed_benchmarks_equals_serial(self):
        pairs = []
        for miss_bound in (10, 80):
            for name in ("compress", "li", "gcc"):
                pairs.append((name, None))
                pairs.append((name, DRIParameters(
                    miss_bound=miss_bound, size_bound=1024, sense_interval=SENSE_INTERVAL
                )))
        serial = _sweep(jobs=1)
        assert serial.prefetch(pairs) == 9
        with _sweep(jobs=2) as sweep:
            assert sweep.prefetch(pairs) == 9
        expected, pooled = _memoized(serial, pairs), _memoized(sweep, pairs)
        assert len(expected) == len(pooled) == 9
        for task, result in expected.items():
            assert _run_key(pooled[task]) == _run_key(result)

    def test_custom_workload_baseline_keeps_its_base_cpi_in_the_pool(self):
        # Every path replays a benchmark's runs with its resolved base CPI;
        # pool workers used to re-derive it from the registry (0.75 here).
        spec = replace(get_benchmark("compress"), name="custom-compress", base_cpi=1.1)
        cycles = []
        for jobs in (1, 2):
            with _sweep(jobs=jobs) as sweep:
                grid = sweep.grid(spec, miss_bounds=(10,), size_bounds=(1024,))
                cycles.append(grid.conventional.cycles)
        expected = Simulator(trace_instructions=INSTRUCTIONS, seed=7).run_conventional(spec)
        assert cycles == [expected.cycles, expected.cycles]
