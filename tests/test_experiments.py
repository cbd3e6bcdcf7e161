"""Tests for the per-figure experiment drivers (small-scale runs)."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.config.system import DEFAULT_SYSTEM
from repro.energy.model import EnergyModel
from repro.simulation.executor import SweepExecutor
from repro.simulation.experiments import (
    QUICK_SCALE,
    BenchmarkRow,
    ExperimentScale,
    figure3_experiment,
    figure4_experiment,
    figure5_experiment,
    figure6_experiment,
    policy_shootout,
    section521_ratios,
    section56_divisibility_experiment,
    section56_interval_experiment,
    static_versus_dynamic_experiment,
    table2_experiment,
    throttle_ablation_experiment,
)
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep

TINY_SCALE = ExperimentScale(
    trace_instructions=80_000,
    sense_interval=5_000,
    miss_bounds=(10, 80),
    size_bounds=(1024, 8192, 65536),
)

SMALL_SET = ("compress", "fpppp", "hydro2d")


class TestCircuitExperiments:
    def test_table2_experiment_columns(self):
        summary = table2_experiment()
        assert set(summary) == {"base_high_vt", "base_low_vt", "nmos_gated_vdd"}
        gated = summary["nmos_gated_vdd"]
        assert gated["energy_savings_percent"] > 90.0
        assert gated["relative_read_time"] < 1.2

    def test_section521_ratios_match_paper(self):
        ratios = section521_ratios()
        assert ratios["l1_dynamic_to_leakage"] == pytest.approx(0.024, abs=0.003)
        assert ratios["l2_dynamic_to_leakage"] == pytest.approx(0.08, abs=0.01)


class TestFigure3:
    def test_figure3_rows_cover_requested_benchmarks(self):
        result = figure3_experiment(benchmarks=SMALL_SET, scale=TINY_SCALE)
        assert {row.benchmark for row in result.constrained} == set(SMALL_SET)
        assert {row.benchmark for row in result.unconstrained} == set(SMALL_SET)

    def test_constrained_rows_meet_constraint(self):
        result = figure3_experiment(benchmarks=SMALL_SET, scale=TINY_SCALE)
        for row in result.constrained:
            assert row.slowdown_percent <= 4.0 + 1e-6

    def test_class1_benchmark_gets_large_reduction(self):
        result = figure3_experiment(benchmarks=("compress",), scale=TINY_SCALE)
        row = result.row("compress")
        assert row.relative_energy_delay < 0.5
        assert row.average_size_fraction < 0.5

    def test_fpppp_cannot_reduce_much(self):
        result = figure3_experiment(benchmarks=("fpppp",), scale=TINY_SCALE)
        row = result.row("fpppp")
        assert row.relative_energy_delay > 0.7

    def test_mean_reductions_between_zero_and_one(self):
        result = figure3_experiment(benchmarks=SMALL_SET, scale=TINY_SCALE)
        assert 0.0 <= result.mean_energy_delay_reduction() <= 1.0
        assert 0.0 <= result.mean_size_reduction() <= 1.0

    def test_components_sum_to_energy_delay(self):
        result = figure3_experiment(benchmarks=("hydro2d",), scale=TINY_SCALE)
        row = result.row("hydro2d")
        assert row.leakage_component + row.dynamic_component == pytest.approx(
            row.relative_energy_delay, rel=1e-6
        )


class TestSensitivityExperiments:
    def test_figure4_has_three_variations(self):
        result = figure4_experiment(benchmarks=("compress",), scale=TINY_SCALE)
        assert set(result.variations) == {"0.5x", "base", "2x"}
        assert "compress" in result.rows

    def test_figure4_robust_for_class1(self):
        # Section 5.4.1: for most benchmarks the energy-delay barely moves
        # over a 4x miss-bound range; class 1 benchmarks are the clearest case.
        result = figure4_experiment(benchmarks=("compress",), scale=TINY_SCALE)
        values = [result.row("compress", label).relative_energy_delay for label in result.variations]
        assert max(values) - min(values) < 0.25

    def test_figure5_has_three_variations(self):
        result = figure5_experiment(benchmarks=("compress",), scale=TINY_SCALE)
        assert set(result.variations) == {"0.5x", "base", "2x"}

    def test_figure5_larger_size_bound_does_not_shrink_cache_more(self):
        result = figure5_experiment(benchmarks=("compress",), scale=TINY_SCALE)
        doubled = result.row("compress", "2x").average_size_fraction
        base = result.row("compress", "base").average_size_fraction
        assert doubled >= base - 0.05

    def test_interval_robustness(self):
        result = section56_interval_experiment(
            benchmarks=("compress",), scale=TINY_SCALE, interval_factors=(0.5, 1.0, 2.0)
        )
        values = [
            result.row("compress", label).relative_energy_delay for label in result.variations
        ]
        # Section 5.6: varying the interval length changes energy-delay little.
        assert max(values) - min(values) < 0.3

    def test_divisibility_variants_run(self):
        result = section56_divisibility_experiment(
            benchmarks=("compress",), scale=TINY_SCALE, divisibilities=(2, 4)
        )
        assert set(result.variations) == {"div2", "div4"}


class TestFigure6:
    def test_figure6_configurations(self):
        result = figure6_experiment(benchmarks=("compress", "swim"), scale=TINY_SCALE)
        assert set(result.variations) == {"64K-4way", "64K-DM", "128K-DM"}
        for benchmark in ("compress", "swim"):
            for variation in result.variations:
                row = result.row(benchmark, variation)
                assert 0.0 < row.relative_energy_delay < 1.6

    def test_figure6_larger_cache_gives_lower_relative_energy_delay_for_class1(self):
        # Section 5.5: increasing the base size gives higher savings because
        # a larger fraction of the cache sits in standby.
        result = figure6_experiment(benchmarks=("compress",), scale=TINY_SCALE)
        small = result.row("compress", "64K-DM").relative_energy_delay
        large = result.row("compress", "128K-DM").relative_energy_delay
        assert large <= small + 0.05


def _spy_on_new_sweeps():
    """Patch ``ParameterSweep.__init__`` to record every sweep built."""
    return mock.patch.object(
        ParameterSweep, "__init__", autospec=True, side_effect=ParameterSweep.__init__
    )


DRIVERS = {
    "figure3": lambda sweep: figure3_experiment(("compress",), TINY_SCALE, sweep=sweep),
    "figure4": lambda sweep: figure4_experiment(("compress",), TINY_SCALE, sweep=sweep),
    "figure5": lambda sweep: figure5_experiment(("compress",), TINY_SCALE, sweep=sweep),
    "figure6": lambda sweep: figure6_experiment(("compress",), TINY_SCALE, sweep=sweep),
    "interval": lambda sweep: section56_interval_experiment(
        ("compress",), TINY_SCALE, interval_factors=(1.0, 2.0), sweep=sweep
    ),
    "divisibility": lambda sweep: section56_divisibility_experiment(
        ("compress",), TINY_SCALE, divisibilities=(2, 4), sweep=sweep
    ),
    "shootout": lambda sweep: policy_shootout(
        ("miss-bound", "pid"), ("compress",), TINY_SCALE, sweep=sweep
    ),
    "static-vs-dynamic": lambda sweep: static_versus_dynamic_experiment(
        ("compress",), TINY_SCALE, sweep=sweep
    ),
    "throttle": lambda sweep: throttle_ablation_experiment(
        ("compress",), TINY_SCALE, sweep=sweep
    ),
}


class TestDriversTakeTheirSweep:
    @pytest.fixture(scope="class")
    def shared(self):
        return TINY_SCALE.sweep()

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_a_driver_given_a_sweep_builds_no_other(self, name, shared):
        """Only Figure 6 builds sweeps of its own: its 64K 4-way and 128K
        direct-mapped siblings."""
        with _spy_on_new_sweeps() as built:
            DRIVERS[name](shared)
        assert built.call_count == (2 if name == "figure6" else 0)

    def test_figure6_takes_its_64k_dm_column_from_the_sweep_memo(self):
        benchmarks = ("compress", "swim")
        sweep = TINY_SCALE.sweep()
        result = figure6_experiment(benchmarks, TINY_SCALE, sweep=sweep)
        # Four fresh sweeps would run the base grid on one, then every
        # benchmark's baseline and DRI run on each of three more.
        base = TINY_SCALE.sweep()
        grids = base.grid_many(
            benchmarks, miss_bounds=TINY_SCALE.miss_bounds, size_bounds=TINY_SCALE.size_bounds
        )
        four_fresh = base.health.tasks_run + 3 * 2 * len(benchmarks)
        assert sweep.health.tasks_run == four_fresh - 4
        # The memoized column equals one run on a fresh sweep whose energy
        # constants are rescaled to 64K, as each column's are.
        fresh = TINY_SCALE.sweep()
        fresh.energy_model = EnergyModel(
            constants=fresh.energy_model.constants.scaled_to_size(64 * 1024)
        )
        for name in benchmarks:
            parameters = grids[name].best(constrained=True).parameters
            expected = BenchmarkRow.from_point(fresh.evaluate(name, parameters))
            assert result.row(name, "64K-DM") == expected

    def test_figure6_siblings_reuse_the_parents_traces(self, generated):
        # A trace depends only on benchmark, length and seed, so the 64K
        # 4-way and 128K siblings replay the traces the base sweep made.
        figure6_experiment(("compress", "li"), QUICK_SCALE)
        assert generated == ["compress", "li"]

    def test_figure6_closes_its_sibling_sweeps(self):
        with TINY_SCALE.sweep(jobs=2) as sweep:
            with _spy_on_new_sweeps() as built, mock.patch.object(
                SweepExecutor, "__init__", autospec=True, side_effect=SweepExecutor.__init__
            ) as pools:
                figure6_experiment(("compress",), TINY_SCALE, sweep=sweep)
        siblings = [call.args[0] for call in built.call_args_list]
        assert len(siblings) == 2 and pools.call_count == 3  # each sibling ran a pool
        for sibling in siblings:
            assert sibling._executor is None and sibling._store_dir is None

    def test_figure6_rejects_a_sweep_of_another_l1(self):
        four_way = ParameterSweep(
            Simulator(
                system=DEFAULT_SYSTEM.with_icache(64 * 1024, associativity=4),
                trace_instructions=TINY_SCALE.trace_instructions,
                seed=TINY_SCALE.seed,
            )
        )
        with pytest.raises(ValueError, match="64K direct-mapped"):
            figure6_experiment(("compress",), TINY_SCALE, sweep=four_way)
