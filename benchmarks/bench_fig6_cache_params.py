"""Experiment E6 — Figure 6: varying conventional cache parameters.

Evaluates the DRI i-cache as a 64K 4-way, a 64K direct-mapped, and a 128K
direct-mapped cache, each normalised to a conventional cache of the same
size/associativity, using the 64K direct-mapped base parameters (the 128K
cache keeps the same absolute size-bound, i.e. one more resizing bit).

Shape checks against Section 5.5:

* capacity-bound class 1 benchmarks behave the same direct-mapped and
  4-way (identical energy-delay to within a small tolerance);
* the 128K cache achieves an equal or lower *relative* energy-delay than
  the 64K cache for benchmarks that do not need the larger cache, because
  a larger fraction of it can be put in standby.
"""

from __future__ import annotations

from _shared import BENCH_SCALE, base_constrained_parameters, shared_sweep, write_result

from repro.analysis.report import format_sensitivity
from repro.simulation.experiments import figure6_experiment
from repro.workloads.phases import BenchmarkClass
from repro.workloads.spec95 import benchmarks_in_class


def run_figure6():
    base = {name: params for name, (params, _) in base_constrained_parameters(BENCH_SCALE).items()}
    # The shared sweep holds the base points, so the 64K-DM column is memo hits.
    return figure6_experiment(
        scale=BENCH_SCALE, sweep=shared_sweep(BENCH_SCALE), base_parameters=base
    )


def test_figure6_cache_parameters(benchmark):
    result = benchmark.pedantic(run_figure6, rounds=1, iterations=1)
    text = format_sensitivity(
        result, title="Figure 6: 64K 4-way vs 64K direct-mapped vs 128K direct-mapped"
    )
    write_result("fig6_cache_params", text)
    print("\n" + text)

    assert set(result.variations) == {"64K-4way", "64K-DM", "128K-DM"}

    class1 = [spec.name for spec in benchmarks_in_class(BenchmarkClass.SMALL_FOOTPRINT)]

    for name in class1:
        four_way = result.row(name, "64K-4way").relative_energy_delay
        direct = result.row(name, "64K-DM").relative_energy_delay
        larger = result.row(name, "128K-DM").relative_energy_delay
        # Capacity-bound benchmarks: direct-mapped and 4-way track each other.
        assert abs(four_way - direct) < 0.15, name
        # A larger base cache gives an equal or better relative energy-delay.
        assert larger <= direct + 0.1, name

    # Across the whole suite the 128K cache's mean relative energy-delay is
    # no worse than the 64K cache's (larger caches downsize by a larger
    # relative amount).
    mean_64k = sum(
        result.row(name, "64K-DM").relative_energy_delay for name in result.rows
    ) / len(result.rows)
    mean_128k = sum(
        result.row(name, "128K-DM").relative_energy_delay for name in result.rows
    ) / len(result.rows)
    assert mean_128k <= mean_64k + 0.05
