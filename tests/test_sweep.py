"""Tests for the parameter sweep and best-case search."""

from __future__ import annotations

import pytest

from repro.config.parameters import DRIParameters
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep


@pytest.fixture
def sweep() -> ParameterSweep:
    simulator = Simulator(trace_instructions=80_000, seed=3)
    return ParameterSweep(
        simulator, base_parameters=DRIParameters(sense_interval=5_000)
    )


MISS_BOUNDS = (10, 80)
SIZE_BOUNDS = (1024, 8192, 65536)


class TestBaselineCaching:
    def test_baseline_is_cached(self, sweep):
        first = sweep.conventional_baseline("compress")
        second = sweep.conventional_baseline("compress")
        assert first is second

    def test_baselines_are_per_benchmark(self, sweep):
        assert sweep.conventional_baseline("compress") is not sweep.conventional_baseline("mgrid")


class TestEvaluate:
    def test_evaluate_produces_comparison(self, sweep):
        params = DRIParameters(miss_bound=40, size_bound=1024, sense_interval=5_000)
        point = sweep.evaluate("compress", params)
        assert point.parameters == params
        assert point.simulation.cache_kind == "dri"
        assert 0.0 < point.energy_delay <= 1.5
        assert point.comparison.benchmark == "compress"

    def test_size_bound_full_size_gives_energy_delay_near_one(self, sweep):
        params = DRIParameters(miss_bound=40, size_bound=65536, sense_interval=5_000)
        point = sweep.evaluate("fpppp", params)
        assert point.energy_delay == pytest.approx(1.0, abs=0.05)


class TestGrid:
    def test_grid_evaluates_all_combinations(self, sweep):
        result = sweep.grid("compress", miss_bounds=MISS_BOUNDS, size_bounds=SIZE_BOUNDS)
        assert len(result.points) == len(MISS_BOUNDS) * len(SIZE_BOUNDS)
        assert result.benchmark == "compress"

    def test_grid_skips_size_bounds_above_full_size(self, sweep):
        result = sweep.grid("compress", miss_bounds=(10,), size_bounds=(1024, 128 * 1024))
        assert len(result.points) == 1

    def test_by_parameters_lookup(self, sweep):
        result = sweep.grid("compress", miss_bounds=MISS_BOUNDS, size_bounds=SIZE_BOUNDS)
        point = result.by_parameters(miss_bound=10, size_bound=1024)
        assert point is not None
        assert result.by_parameters(miss_bound=999, size_bound=1024) is None


class TestBestSelection:
    def test_constrained_best_meets_constraint_when_possible(self, sweep):
        result = sweep.grid("compress", miss_bounds=MISS_BOUNDS, size_bounds=SIZE_BOUNDS)
        best = result.best(constrained=True)
        assert best is not None
        # The full-size configuration always meets the constraint, so the
        # constrained best must meet it too.
        assert best.meets_constraint

    def test_unconstrained_best_never_worse_than_constrained(self, sweep):
        result = sweep.grid("hydro2d", miss_bounds=MISS_BOUNDS, size_bounds=SIZE_BOUNDS)
        constrained = result.best(constrained=True)
        unconstrained = result.best(constrained=False)
        assert unconstrained.energy_delay <= constrained.energy_delay + 1e-12

    def test_best_configuration_returns_parameters(self, sweep):
        params, point = sweep.best_configuration(
            "compress", constrained=True, miss_bounds=MISS_BOUNDS, size_bounds=SIZE_BOUNDS
        )
        assert params == point.parameters
        assert params.size_bound in SIZE_BOUNDS

    def test_small_footprint_benchmark_picks_small_size_bound(self, sweep):
        params, point = sweep.best_configuration(
            "compress", constrained=True, miss_bounds=MISS_BOUNDS, size_bounds=SIZE_BOUNDS
        )
        assert params.size_bound <= 8192
        assert point.comparison.average_size_fraction < 0.5

    def test_empty_sweep_best_is_none(self, sweep):
        from repro.simulation.sweep import SweepResult

        empty = SweepResult(benchmark="x", conventional=sweep.conventional_baseline("compress"))
        assert empty.best() is None


class TestBenchmarkNameCollision:
    """Two distinct workloads sharing a ``trace.name`` must not silently
    share one memo entry and one spilled store."""

    def _trace(self, seed: int, name: str = "twin"):
        import dataclasses

        from repro.workloads.generator import generate_trace
        from repro.workloads.spec95 import get_benchmark

        trace = generate_trace(
            get_benchmark("compress"), total_instructions=40_000, seed=seed
        )
        return dataclasses.replace(trace, name=name)

    def test_conflicting_traces_raise(self, sweep):
        sweep.conventional_baseline(self._trace(seed=1))
        with pytest.raises(ValueError, match="collision"):
            sweep.conventional_baseline(self._trace(seed=2))

    def test_same_content_twice_is_fine(self, sweep):
        first = sweep.conventional_baseline(self._trace(seed=1))
        again = sweep.conventional_baseline(self._trace(seed=1))
        assert again.cycles == first.cycles

    def test_collision_detected_in_parallel_task_building(self):
        simulator = Simulator(trace_instructions=80_000, seed=3)
        sweep = ParameterSweep(
            simulator,
            base_parameters=DRIParameters(sense_interval=5_000),
            jobs=2,
        )
        parameters = DRIParameters(
            miss_bound=40, size_bound=1024, sense_interval=5_000
        )
        pairs = [
            (self._trace(seed=1), parameters),
            (self._trace(seed=2), parameters),
        ]
        with sweep:
            with pytest.raises(ValueError, match="collision"):
                sweep.prefetch(pairs)

    def test_prebuilt_trace_reusing_a_benchmark_name_raises(self, sweep):
        import dataclasses

        sweep.conventional_baseline("compress")
        # li's trace at the sweep's own length and seed, named compress.
        li, _ = Simulator(trace_instructions=80_000, seed=3).resolve_workload("li")
        with pytest.raises(ValueError, match="collision"):
            sweep.conventional_baseline(dataclasses.replace(li, name="compress"))

    def test_the_named_trace_itself_shares_the_names_memo(self, sweep):
        parameters = DRIParameters(miss_bound=40, size_bound=1024, sense_interval=5_000)
        baseline = sweep.conventional_baseline("compress")
        point = sweep.evaluate("compress", parameters)
        trace, _ = sweep.simulator.resolve_workload("compress")
        assert sweep.conventional_baseline(trace) is baseline
        assert sweep.evaluate(trace, parameters).simulation is point.simulation


class TestMemoKey:
    def test_memo_key_separates_engines(self):
        """A sweep's memo records which engine produced each entry."""
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        batched = ParameterSweep(Simulator(trace_instructions=40_000, seed=7, engine="batched"))
        scalar = ParameterSweep(Simulator(trace_instructions=40_000, seed=7, engine="scalar"))
        batched.evaluate("compress", parameters)
        scalar.evaluate("compress", parameters)
        (key_b,) = batched._dri_cache.keys()
        (key_s,) = scalar._dri_cache.keys()
        assert key_b != key_s
        assert "batched" in key_b and "scalar" in key_s


class TestSettings:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"max_retries": -1}, "max_retries must be at least 0, got -1"),
            ({"chunk_timeout": 0.0}, "chunk_timeout must be positive, got 0.0"),
            ({"chunk_timeout": -2.5}, "chunk_timeout must be positive, got -2.5"),
        ],
    )
    def test_bad_fault_tolerance_settings_fail_at_build(self, setting, message, jobs):
        # Checked when the sweep is built, whether or not it would ever
        # run a pool.
        with pytest.raises(ValueError, match=message):
            ParameterSweep(Simulator(trace_instructions=40_000), jobs=jobs, **setting)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"max_retries": -1}, "max_retries must be at least 0, got -1"),
            ({"chunk_timeout": 0.0}, "chunk_timeout must be positive, got 0.0"),
        ],
    )
    def test_an_executor_built_directly_rejects_them_too(self, setting, message):
        from repro.config.system import DEFAULT_SYSTEM
        from repro.simulation.executor import SweepExecutor

        with pytest.raises(ValueError, match=message):
            SweepExecutor(DEFAULT_SYSTEM, "batched", jobs=2, **setting)

    def test_sibling_keeps_everything_but_system_and_energy_model(self):
        from repro.config.system import DEFAULT_SYSTEM
        from repro.energy.model import EnergyModel

        parent = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=11, engine="scalar"),
            base_parameters=DRIParameters(sense_interval=5_000),
            jobs=2,
            max_retries=4,
            chunk_timeout=9.0,
        )
        system = DEFAULT_SYSTEM.with_icache(64 * 1024, associativity=4)
        model = EnergyModel(constants=parent.energy_model.constants.scaled_to_size(128 * 1024))
        with parent.sibling(system, model) as sibling:
            simulator = sibling.simulator
            assert (simulator.system, simulator.trace_instructions, simulator.seed,
                    simulator.engine) == (system, 40_000, 11, "scalar")
            assert sibling.energy_model is model
            assert sibling.base_parameters == parent.base_parameters
            assert (sibling.jobs, sibling.max_retries, sibling.chunk_timeout) == (2, 4, 9.0)
            assert sibling.health is parent.health
            assert sibling._dri_cache == {} and sibling._executor is None
