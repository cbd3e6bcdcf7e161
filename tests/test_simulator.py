"""Tests for the trace-driven simulator."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import DRIParameters
from repro.config.system import SystemConfig
from repro.simulation.simulator import Simulator
from repro.workloads.generator import generate_trace
from repro.workloads.spec95 import get_benchmark


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(trace_instructions=80_000, seed=3)


@pytest.fixture
def parameters() -> DRIParameters:
    return DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)


class TestConventionalRuns:
    def test_result_counts_are_consistent(self, simulator):
        result = simulator.run_conventional("compress")
        assert result.cache_kind == "conventional"
        assert result.instructions == 80_000
        assert result.l1_accesses == 80_000 // 8
        assert result.l1_misses <= result.l1_accesses
        assert result.l2_accesses == result.l1_misses
        assert result.cycles > 0

    def test_conventional_miss_rate_is_low(self, simulator):
        # The paper reports conventional 64K miss rates below 1% of accesses
        # (approximated as instructions); our workloads match that regime.
        for name in ("compress", "li", "ijpeg"):
            result = simulator.run_conventional(name)
            assert result.miss_rate_per_instruction < 0.01

    def test_average_size_fraction_is_one(self, simulator):
        assert simulator.run_conventional("compress").average_size_fraction == 1.0

    def test_trace_reuse_gives_identical_results(self, simulator):
        first = simulator.run_conventional("mgrid")
        second = simulator.run_conventional("mgrid")
        assert first.l1_misses == second.l1_misses
        assert first.cycles == second.cycles


class TestDRIRuns:
    def test_dri_result_has_resizing_statistics(self, simulator, parameters):
        result = simulator.run_dri("compress", parameters)
        assert result.cache_kind == "dri"
        assert result.dri_stats is not None
        assert result.resizing_tag_bits == 6
        assert len(result.dri_stats.intervals) >= 80_000 // 5_000

    def test_small_footprint_benchmark_downsizes(self, simulator, parameters):
        result = simulator.run_dri("compress", parameters)
        assert result.average_size_fraction < 0.5

    def test_full_footprint_benchmark_stays_large(self, simulator):
        parameters = DRIParameters(miss_bound=5, size_bound=32 * 1024, sense_interval=5_000)
        result = simulator.run_dri("fpppp", parameters)
        assert result.average_size_fraction > 0.6

    def test_dri_misses_at_least_conventional(self, simulator, parameters):
        conventional = simulator.run_conventional("hydro2d")
        dri = simulator.run_dri("hydro2d", parameters)
        assert dri.l1_misses >= conventional.l1_misses
        assert dri.cycles >= conventional.cycles

    def test_size_bound_equal_to_full_size_never_resizes(self, simulator):
        parameters = DRIParameters(miss_bound=30, size_bound=64 * 1024, sense_interval=5_000)
        result = simulator.run_dri("compress", parameters)
        assert result.average_size_fraction == pytest.approx(1.0)
        assert result.resizing_tag_bits == 0

    def test_run_statistics_bridge(self, simulator, parameters):
        conventional = simulator.run_conventional("compress")
        dri = simulator.run_dri("compress", parameters)
        stats = dri.run_statistics(conventional)
        assert stats.cycles == dri.cycles
        assert stats.l1_accesses == dri.instructions
        assert stats.resizing_tag_bits == 6
        assert stats.extra_l2_accesses == max(0, dri.l2_accesses - conventional.l2_accesses)

    def test_run_statistics_rejects_wrong_baseline(self, simulator, parameters):
        dri = simulator.run_dri("compress", parameters)
        other = simulator.run_conventional("mgrid")
        with pytest.raises(ValueError):
            dri.run_statistics(other)
        with pytest.raises(ValueError):
            dri.run_statistics(dri)


class TestFixedSizeRuns:
    def test_full_size_matches_conventional(self, simulator):
        conventional = simulator.run_conventional("compress")
        fixed = simulator.run_fixed_size("compress", 64 * 1024)
        assert fixed.l1_misses == conventional.l1_misses
        assert fixed.cycles == conventional.cycles

    def test_smaller_cache_misses_more(self, simulator):
        large = simulator.run_fixed_size("fpppp", 64 * 1024)
        small = simulator.run_fixed_size("fpppp", 4 * 1024)
        assert small.l1_misses > large.l1_misses
        assert small.cycles > large.cycles

    def test_small_cache_is_enough_for_small_footprint(self, simulator):
        small = simulator.run_fixed_size("compress", 4 * 1024)
        assert small.miss_rate_per_instruction < 0.01

    def test_associativity_override(self, simulator):
        four_way = simulator.run_fixed_size("swim", 8 * 1024, associativity=4)
        direct = simulator.run_fixed_size("swim", 8 * 1024, associativity=1)
        # swim has two aliased hot loops: associativity absorbs the conflicts.
        assert four_way.l1_misses <= direct.l1_misses


class TestWorkloadResolution:
    def test_accepts_spec_objects(self, simulator):
        spec = get_benchmark("applu")
        result = simulator.run_conventional(spec)
        assert result.benchmark == "applu"

    def test_accepts_pregenerated_traces(self, simulator, parameters):
        trace = generate_trace(get_benchmark("applu"), total_instructions=40_000, seed=9)
        result = simulator.run_dri(trace, parameters)
        assert result.benchmark == "applu"
        assert result.instructions == 40_000

    def test_a_spec_reusing_a_cached_name_gets_its_own_trace(self, simulator):
        gcc, _ = simulator.resolve_workload("gcc")
        impostor = replace(get_benchmark("li"), name="gcc")
        trace, _ = simulator.resolve_workload(impostor)
        own = generate_trace(
            impostor, total_instructions=simulator.trace_instructions, seed=simulator.seed
        )
        assert trace is not gcc
        assert np.array_equal(trace.line_addresses, own.line_addresses)
        assert not np.array_equal(trace.line_addresses, gcc.line_addresses)
        # Both stay cached, each under its own spec.
        assert simulator.resolve_workload("gcc")[0] is gcc
        assert simulator.resolve_workload(impostor)[0] is trace

    def test_unknown_benchmark_raises(self, simulator):
        with pytest.raises(KeyError):
            simulator.run_conventional("vortex")

    def test_rejects_bad_trace_length(self):
        with pytest.raises(ValueError):
            Simulator(trace_instructions=0)

    def test_custom_system_configuration(self, parameters):
        small_system = SystemConfig().with_icache(16 * 1024, associativity=1)
        simulator = Simulator(system=small_system, trace_instructions=40_000)
        result = simulator.run_dri("compress", parameters)
        assert result.dri_stats is not None
        assert result.dri_stats.full_size_bytes == 16 * 1024


class TestResultValidation:
    """``SimulationResult.__post_init__`` must reject negative counts —
    including the L2 pair, which previously escaped the check."""

    @staticmethod
    def _result(**overrides):
        from repro.simulation.results import SimulationResult

        fields = dict(
            benchmark="compress",
            cache_kind="conventional",
            instructions=1000,
            cycles=1500,
            l1_accesses=250,
            l1_misses=10,
            l2_accesses=10,
            l2_misses=2,
        )
        fields.update(overrides)
        return SimulationResult(**fields)

    def test_valid_counts_construct(self):
        result = self._result()
        assert result.l1_miss_rate == pytest.approx(10 / 250)

    @pytest.mark.parametrize(
        "field",
        [
            "instructions",
            "cycles",
            "l1_accesses",
            "l1_misses",
            "l2_accesses",
            "l2_misses",
        ],
    )
    def test_each_negative_count_is_rejected(self, field):
        with pytest.raises(ValueError, match="negative"):
            self._result(**{field: -1})

    def test_bad_cache_kind_is_rejected(self):
        with pytest.raises(ValueError, match="cache_kind"):
            self._result(cache_kind="victim")

    def test_more_l1_misses_than_accesses_is_rejected(self):
        with pytest.raises(ValueError, match="conservation: l1_misses exceeds l1_accesses"):
            self._result(l1_accesses=9, l1_misses=10)

    def test_more_l2_misses_than_accesses_is_rejected(self):
        with pytest.raises(ValueError, match="conservation: l2_misses exceeds l2_accesses"):
            self._result(l2_misses=11)

    def test_l2_accesses_must_equal_l1_misses(self):
        with pytest.raises(ValueError, match="conservation: l2_accesses differs from l1_misses"):
            self._result(l2_accesses=12)

    @pytest.mark.parametrize(
        "field, broken, law",
        [
            pytest.param("accesses", 251, "interval accesses do not sum", id="accesses"),
            pytest.param("misses", 9, "interval misses do not sum", id="misses"),
            pytest.param(
                "size_bytes_during", 48 * 1024, "interval 1 size_bytes_during 49152 is not",
                id="during-48K",
            ),
            pytest.param(
                "size_bytes_at_end", 128 * 1024, "interval 1 size_bytes_at_end 131072 is not",
                id="at-end-128K",
            ),
            pytest.param(
                "size_bytes_during", 0, "interval 1 size_bytes_during 0 is not", id="during-0"
            ),
        ],
    )
    def test_dri_interval_records_must_sum_to_run_totals(self, field, broken, law):
        """Interval records must sum to the run totals, and every size they
        record must sit on the 64K cache's ladder (a power of two, at most
        64K); the second interval carries the broken value."""
        from repro.dri.stats import DRIStatistics

        def dri_stats(accesses=250, misses=10, size_bytes_during=64 * 1024,
                      size_bytes_at_end=64 * 1024):
            stats = DRIStatistics(full_size_bytes=64 * 1024)
            stats.record_interval(
                instructions=4 * (accesses // 2),
                accesses=accesses // 2,
                misses=misses,
                size_bytes_during=64 * 1024,
                size_bytes_at_end=64 * 1024,
                resized="none",
            )
            stats.record_interval(
                instructions=4 * (accesses - accesses // 2),
                accesses=accesses - accesses // 2,
                misses=0,
                size_bytes_during=size_bytes_during,
                size_bytes_at_end=size_bytes_at_end,
                resized="none",
            )
            return stats

        self._result(cache_kind="dri", dri_stats=dri_stats())  # consistent
        with pytest.raises(ValueError, match=f"conservation: {law}"):
            self._result(cache_kind="dri", dri_stats=dri_stats(**{field: broken}))
