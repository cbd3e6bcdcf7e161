"""Engine throughput bench: scalar vs. batched replay, serial vs. parallel sweeps.

Times the two replay engines on the paper's conventional 64K direct-mapped
baseline, on the Figure 6 64K 4-way geometry (the wavefront set-associative
path of the tag-plane substrate), and on DRI runs of both; times the
Figure 3 style parameter grid at several worker counts; replays a
10M-access *streamed* trace (``stream_trace`` — never materialised)
through the batched engine with ``tracemalloc`` watching the peak; and
times streamed trace generation alone, then writes the numbers to
``benchmarks/results/BENCH_engine.json`` so the performance trajectory is
tracked across PRs.  The JSON schema:

.. code-block:: json

    {
      "replay": {
        "conventional":      {"scalar_accesses_per_s": ...,
                              "batched_accesses_per_s": ..., "speedup": ...},
        "conventional_4way": {...},
        "dri":               {...},
        "dri_4way":          {...}
      },
      "streamed": {"accesses": 10000000, "batched_accesses_per_s": ...,
                   "peak_python_mib": ..., "materialised_trace_mib": ...},
      "generation": {"benchmarks": ["li", "go", "gcc"], "lines": 10000000,
                     "chunk_lines": 16384, "lines_per_s": ...,
                     "wall_clock_s": ..., "peak_python_mib": ...},
      "lockstep": {"runs": 17, "per_run_s": ..., "one_pass_s": ...,
                   "speedup": ..., "identical": true,
                   "l2_drains": {"one_pass": ..., "per_run": ...,
                                 "simulated_share": ...,
                                 "by_benchmark": {"applu": {...}, ...}}},
      "sweep": {"grid_points": 64, "cpu_count": ...,
                "wall_clock_s": {"jobs=1": ..., "jobs=2": ..., "jobs=4": ...},
                "identical_across_jobs": true, "speedup_jobs4": ...,
                "degenerate_single_core": true},  // only when cpu_count == 1
      "policies": {
        "replay_overhead": {"miss-bound": {"batched_accesses_per_s": ...,
                                           "relative_to_miss_bound": 1.0}, ...},
        "shootout": {"benchmarks": [...],
                     "summary": {"miss-bound": {"mean_energy_delay": ...}, ...}}
      }
    }

The ``policies`` section tracks the resize-policy layer: per-policy
batched DRI replay throughput (the strategy indirection must stay in the
interval-boundary noise, not the access path) and the policy shootout's
per-policy suite means.

Every timed row (``replay``, ``generation``, ``lockstep`` and the
policies' ``replay_overhead``) is the best per-call time over three
windows of at least ``TIMING_WINDOW_S``, a call repeating inside a window
until it is filled, so a row of a few milliseconds is averaged over
hundreds of calls rather than taken from three.

The ``generation`` section streams ``lines`` line fetches of each of li,
go and gcc (the paper-scale benchmarks) with no replay, in pieces of the
length the batched engine reads (``BANK_PROBES_PER_CALL``):
``wall_clock_s`` is one pass over all three streams, ``lines_per_s``
counts every benchmark's lines, and ``peak_python_mib`` is one more pass
under ``tracemalloc``.  It has no floor.

The ``lockstep`` section replays one benchmark's 16-point Figure 3 grid
plus its conventional baseline on the batched engine twice: once per run
(seventeen passes over the trace, each classified alone, which is also
how the single-run ``replay`` rows run) and in one lockstep pass
(``Simulator.run_many``).  The two must agree bit for bit, and the ratio
is reported with no floor.  ``l2_drains`` then counts, with a wrapper on
``MemoryHierarchy.access_batch_from_l1_misses``, the L2 drains of every
benchmark's Figure 3 group: in one pass, where runs whose resize
histories agree share one leader's drain, against the runs replayed one
at a time, each draining its own L2 (K per drain period).
``simulated_share`` is the first over the second.

The scalar direct-mapped rows measure the specialised pure-int probe
(one flat ``item()`` read per access, no numpy row gather); the
``scalar_accesses_per_s`` trajectory across committed JSONs records the
gain (~0.9M → ~1.4M accesses/s on the 64K DM baseline, which is also why
the DM *speedup* ratios fell from ~20x to ~12x — the denominator got
faster while the batched numerator held).

Run standalone (``python benchmarks/bench_engine_throughput.py [--quick]``)
or through the pytest-benchmark harness (``pytest benchmarks/ --benchmark-only``);
both verify that the batched engine stays bit-identical to the scalar one
and at least 5x faster on the direct-mapped *and* the 4-way conventional
baselines, and that the streamed replay's peak traced memory stays far
below the materialised trace size.
"""

from __future__ import annotations

import argparse
import json
import os
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Sequence
from unittest import mock

from _shared import RESULTS_DIR

from repro.config.parameters import DRIParameters
from repro.config.system import DEFAULT_SYSTEM
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import BANK_PROBES_PER_CALL, replay_batched
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import stream_trace
from repro.workloads.spec95 import benchmark_names, get_benchmark

BENCHMARK = "li"
TRACE_INSTRUCTIONS = 600_000
SENSE_INTERVAL = 12_500
SPEEDUP_FLOOR = 5.0
"""Acceptance floor for the conventional-baseline replay speedups
(direct-mapped and 4-way alike)."""

REPLAY_KINDS = ("conventional", "conventional_4way", "dri", "dri_4way")
"""Replay rows: Table 1's 64K DM baseline and Figure 6's 64K 4-way, each
conventional and DRI-driven."""


TIMING_WINDOW_S = 0.5
"""Shortest timed window of every timed row; short calls repeat inside
it."""


def _windowed(run, windows: int = 3) -> tuple:
    """Best per-call seconds of ``run()`` over ``windows`` timed windows of
    at least :data:`TIMING_WINDOW_S` each, and its last result."""
    best = float("inf")
    result = None
    for _ in range(windows):
        calls = 0
        start = time.perf_counter()
        while True:
            result = run()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= TIMING_WINDOW_S:
                break
        best = min(best, elapsed / calls)
    return best, result


def measure_replay(instructions: int) -> Dict[str, Dict[str, float]]:
    """Accesses/second for both engines on every replay kind."""
    parameters = DRIParameters(
        miss_bound=40, size_bound=1024, sense_interval=SENSE_INTERVAL
    )
    four_way = DEFAULT_SYSTEM.with_icache(64 * 1024, associativity=4)
    out: Dict[str, Dict[str, float]] = {}
    results = {}
    for kind in REPLAY_KINDS:
        system = four_way if kind.endswith("_4way") else DEFAULT_SYSTEM
        row: Dict[str, float] = {}
        for engine in ("scalar", "batched"):
            simulator = Simulator(
                system=system, trace_instructions=instructions, engine=engine
            )
            simulator.resolve_workload(BENCHMARK)  # trace generation out of the timing
            if kind.startswith("conventional"):
                run = lambda: simulator.run_conventional(BENCHMARK)
            else:
                run = lambda: simulator.run_dri(BENCHMARK, parameters)
            seconds, result = _windowed(run)
            results[(kind, engine)] = result
            row[f"{engine}_accesses_per_s"] = result.l1_accesses / seconds
            row[f"{engine}_wall_clock_s"] = seconds
        row["speedup"] = (
            row["batched_accesses_per_s"] / row["scalar_accesses_per_s"]
        )
        out[kind] = row
    # The engines must agree bit-for-bit or the speedup is meaningless.
    for kind in REPLAY_KINDS:
        scalar_result = results[(kind, "scalar")]
        batched_result = results[(kind, "batched")]
        assert scalar_result.l1_misses == batched_result.l1_misses, kind
        assert scalar_result.l2_accesses == batched_result.l2_accesses, kind
        assert scalar_result.cycles == batched_result.cycles, kind
    return out


STREAMED_ACCESSES = 10_000_000
"""Accesses in the streamed-replay row (10M ≈ paper-scale per benchmark)."""

STREAMED_PEAK_FLOOR_MIB = 24.0
"""The streamed replay must stay under this peak traced memory — a small
multiple of the chunk/segment working set, an order of magnitude below
the materialised 10M-access trace (76 MiB).  The effective bound is
``min(this, materialised_trace_mib / 2)`` so the check still
discriminates at the reduced ``--quick`` trace length: a regression that
silently materialises the stream trips it at any scale."""


def _streamed_peak_bound_mib(accesses: int) -> float:
    return min(STREAMED_PEAK_FLOOR_MIB, accesses * 8 / 2**20 / 2)


def measure_streamed(accesses: int) -> Dict[str, float]:
    """Batched replay of a lazily streamed trace, with peak-memory watch.

    The trace source re-generates its chunks on the fly, so the replay's
    working set is one generation segment plus one classification chunk —
    flat in the trace length.
    """
    source = stream_trace(
        get_benchmark(BENCHMARK),
        total_instructions=accesses * 8,
    )
    icache = Cache(DEFAULT_SYSTEM.l1_icache, name="L1I")
    hierarchy = MemoryHierarchy(DEFAULT_SYSTEM)
    tracemalloc.start()
    start = time.perf_counter()
    replay_batched(source, icache, hierarchy, 0.75, DEFAULT_SYSTEM)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert icache.stats.accesses == accesses
    return {
        "accesses": accesses,
        "batched_accesses_per_s": accesses / seconds,
        "wall_clock_s": seconds,
        "peak_python_mib": peak / 2**20,
        "peak_bound_mib": _streamed_peak_bound_mib(accesses),
        "materialised_trace_mib": accesses * 8 / 2**20,
    }


GENERATION_BENCHMARKS = ("li", "go", "gcc")
GENERATION_LINES = 10_000_000
"""Lines per benchmark in the generation section (``--quick``: a quarter)."""


def measure_generation(lines: int) -> Dict[str, object]:
    """Streamed generation alone: ``lines`` lines of each benchmark, no replay."""

    def generate() -> int:
        count = 0
        for name in GENERATION_BENCHMARKS:
            source = stream_trace(get_benchmark(name), total_instructions=lines * 8)
            for chunk in source.chunks(BANK_PROBES_PER_CALL):
                count += chunk.shape[0]
        return count

    best, total = _windowed(generate)
    assert total == lines * len(GENERATION_BENCHMARKS)
    tracemalloc.start()
    generate()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "benchmarks": list(GENERATION_BENCHMARKS),
        "lines": lines,
        "chunk_lines": BANK_PROBES_PER_CALL,
        "lines_per_s": total / best,
        "wall_clock_s": best,
        "peak_python_mib": peak / 2**20,
    }


def count_drains(simulator: Simulator, parameter_sets) -> Dict[str, Dict[str, int]]:
    """L2 drains of every benchmark's Figure 3 group, counted by a wrapper
    on the drain call: in one lockstep pass, where runs that share a
    resize history share their leader's drain, and in the runs replayed
    one at a time, where each run drains its own L2 once per drain
    period (K per period)."""
    drain = MemoryHierarchy.access_batch_from_l1_misses
    counts = {}
    with mock.patch.object(
        MemoryHierarchy, "access_batch_from_l1_misses", autospec=True, side_effect=drain
    ) as drains:
        for benchmark in benchmark_names():
            trace, base_cpi = simulator.resolve_workload(benchmark)
            drains.reset_mock()
            simulator.run_many(trace, base_cpi, parameter_sets)
            one_pass = drains.call_count
            drains.reset_mock()
            for parameters in parameter_sets:
                simulator.run_many(trace, base_cpi, [parameters])
            counts[benchmark] = {"one_pass": one_pass, "per_run": drains.call_count}
    return counts


def measure_lockstep(instructions: int) -> Dict[str, object]:
    """One benchmark's Figure 3 grid plus its baseline: per run and in one
    pass; then every benchmark's L2 drains, shared and not."""
    from repro.simulation.experiments import DEFAULT_SCALE

    simulator = Simulator(trace_instructions=instructions, engine="batched")
    trace, base_cpi = simulator.resolve_workload(BENCHMARK)
    base = DEFAULT_SCALE.base_parameters()
    parameter_sets = [None] + [
        replace(base, miss_bound=miss_bound, size_bound=size_bound)
        for size_bound in DEFAULT_SCALE.size_bounds
        for miss_bound in DEFAULT_SCALE.miss_bounds
    ]
    per_run_s, per_run = _windowed(
        lambda: [simulator.run_many(trace, base_cpi, [p])[0] for p in parameter_sets]
    )
    one_pass_s, one_pass = _windowed(
        lambda: simulator.run_many(trace, base_cpi, parameter_sets)
    )

    def key(result):
        stats = result.dri_stats
        return (result.cycles, result.l1_misses, result.l2_accesses, result.l2_misses,
                None if stats is None else stats.intervals)

    assert [key(r) for r in per_run] == [key(r) for r in one_pass]
    drains = count_drains(simulator, parameter_sets)
    simulated = sum(count["one_pass"] for count in drains.values())
    unshared = sum(count["per_run"] for count in drains.values())
    return {
        "runs": len(parameter_sets),
        "sense_interval": base.sense_interval,
        "per_run_s": per_run_s,
        "one_pass_s": one_pass_s,
        "speedup": per_run_s / one_pass_s,
        "identical": True,
        "l2_drains": {
            "one_pass": simulated,
            "per_run": unshared,
            "simulated_share": simulated / unshared,
            "by_benchmark": drains,
        },
    }


SHOOTOUT_BENCHMARKS = ("compress", "li", "hydro2d", "mgrid")
"""Shootout benchmarks in the bench payload (one per behaviour class plus
two class-1 codes); ``--quick`` cuts to the first two."""


def measure_policy_replay(instructions: int) -> Dict[str, Dict[str, float]]:
    """Batched DRI replay throughput per resize policy.

    The policy only runs at interval boundaries, so any visible per-policy
    spread is interval-boundary overhead — the access path is identical.
    Throughputs are reported relative to the paper's miss-bound policy.
    """
    from repro.simulation.experiments import DEFAULT_SHOOTOUT_POLICIES

    out: Dict[str, Dict[str, float]] = {}
    for name in DEFAULT_SHOOTOUT_POLICIES:
        parameters = DRIParameters(
            miss_bound=40,
            size_bound=1024,
            sense_interval=SENSE_INTERVAL,
        ).with_policy(name)
        simulator = Simulator(trace_instructions=instructions, engine="batched")
        simulator.resolve_workload(BENCHMARK)  # trace generation out of the timing
        seconds, result = _windowed(lambda: simulator.run_dri(BENCHMARK, parameters))
        out[name] = {
            "batched_accesses_per_s": result.l1_accesses / seconds,
            "wall_clock_s": seconds,
        }
    base = out["miss-bound"]["batched_accesses_per_s"]
    for row in out.values():
        row["relative_to_miss_bound"] = row["batched_accesses_per_s"] / base
    return out


def measure_shootout(instructions: int, benchmarks: Sequence[str]) -> Dict[str, object]:
    """The policy shootout's per-policy suite means on a reduced suite."""
    from repro.simulation.experiments import ExperimentScale, QUICK_SCALE, policy_shootout

    scale = ExperimentScale(
        trace_instructions=instructions,
        sense_interval=SENSE_INTERVAL,
        miss_bounds=QUICK_SCALE.miss_bounds,
        size_bounds=QUICK_SCALE.size_bounds,
    )
    result = policy_shootout(benchmarks=list(benchmarks), scale=scale)
    return {"benchmarks": list(benchmarks), "summary": result.summary()}


SWEEP_MISS_BOUNDS = (5, 10, 20, 40, 80, 120, 160, 200)
SWEEP_SIZE_BOUNDS = (512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)
"""The sweep-scaling grid: 8 x 8 = 64 points, big enough that the
persistent pool's parallelism is observable over its spin-up (the old
16-point grid finished before the workers mattered)."""

SWEEP_QUICK_MISS_BOUNDS = (10, 40, 80, 200)
SWEEP_QUICK_SIZE_BOUNDS = (1024, 4096, 16384, 65536)
"""``--quick`` keeps the historical 16-point grid (CI smoke budget)."""


def measure_sweep(
    instructions: int, jobs_values: Sequence[int], quick: bool = False
) -> Dict[str, object]:
    """Wall-clock of one full parameter grid at each worker count.

    The scalar engine is used so the per-point work is large enough for
    process-level parallelism to show through; the batched engine makes
    single points so cheap that dispatch overhead dominates.  Every jobs
    value gets a fresh :class:`ParameterSweep` (cold memo, its own warm
    pool) over the same ≥64-point grid, the resulting points are checked
    bit-identical across jobs counts, and ``speedup_jobs4`` records
    jobs=4 over jobs=1 — the number the persistent executor exists to
    move.  ``cpu_count`` is recorded alongside because the ratio is only
    meaningful relative to the cores the host actually has (on a
    single-core runner the honest curve is flat).
    """
    miss_bounds = SWEEP_QUICK_MISS_BOUNDS if quick else SWEEP_MISS_BOUNDS
    size_bounds = SWEEP_QUICK_SIZE_BOUNDS if quick else SWEEP_SIZE_BOUNDS
    repeats = 1 if quick else 2
    wall_clock: Dict[str, float] = {}
    grids: Dict[int, object] = {}
    for jobs in jobs_values:
        best = float("inf")
        # Each repeat gets a *fresh* sweep: a warm memo would turn the
        # second pass into pure lookups and time nothing.  Pool spawn is
        # deliberately inside the timing — it is part of what the warm
        # executor amortizes over the grid.
        for _ in range(repeats):
            simulator = Simulator(trace_instructions=instructions, engine="scalar")
            sweep = ParameterSweep(
                simulator,
                base_parameters=DRIParameters(sense_interval=SENSE_INTERVAL),
                jobs=jobs,
            )
            sweep.conventional_baseline(BENCHMARK)  # shared baseline out of the timing
            start = time.perf_counter()
            result = sweep.grid(BENCHMARK, miss_bounds=miss_bounds, size_bounds=size_bounds)
            best = min(best, time.perf_counter() - start)
            sweep.close()
        wall_clock[f"jobs={jobs}"] = best
        grids[jobs] = result
    # Parallelism must not change a single bit of any point.
    reference = grids[jobs_values[0]].points
    for jobs, result in grids.items():
        assert len(result.points) == len(reference), jobs
        for a, b in zip(reference, result.points):
            assert a.parameters == b.parameters, jobs
            assert a.simulation.cycles == b.simulation.cycles, jobs
            assert a.simulation.l1_misses == b.simulation.l1_misses, jobs
            assert a.simulation.l2_accesses == b.simulation.l2_accesses, jobs
            assert a.energy_delay == b.energy_delay, jobs
    cpu_count = os.cpu_count()
    payload: Dict[str, object] = {
        "grid_points": len(reference),
        "cpu_count": cpu_count,
        "wall_clock_s": wall_clock,
        "identical_across_jobs": True,
    }
    if 1 in grids and 4 in grids:
        payload["speedup_jobs4"] = wall_clock["jobs=1"] / wall_clock["jobs=4"]
        if cpu_count == 1:
            # On a single-core host four workers time-slice one core, so
            # the honest curve is flat (or slightly below 1.0 from pool
            # overhead); flag the ratio so trend tooling does not read it
            # as an executor regression.
            payload["degenerate_single_core"] = True
    return payload


def run_bench(quick: bool = False) -> Dict[str, object]:
    instructions = 150_000 if quick else TRACE_INSTRUCTIONS
    streamed_accesses = STREAMED_ACCESSES // 4 if quick else STREAMED_ACCESSES
    generation_lines = GENERATION_LINES // 4 if quick else GENERATION_LINES
    shootout_benchmarks = SHOOTOUT_BENCHMARKS[:2] if quick else SHOOTOUT_BENCHMARKS
    payload = {
        "benchmark": BENCHMARK,
        "trace_instructions": instructions,
        "scalar_dm_probe": "specialised pure-int probe (no numpy row gather)",
        "replay": measure_replay(instructions),
        "streamed": measure_streamed(streamed_accesses),
        "generation": measure_generation(generation_lines),
        "lockstep": measure_lockstep(instructions),
        "sweep": measure_sweep(instructions, jobs_values=(1, 2, 4), quick=quick),
        "policies": {
            "replay_overhead": measure_policy_replay(instructions),
            "shootout": measure_shootout(instructions, shootout_benchmarks),
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_engine_throughput(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print("\n" + json.dumps(payload, indent=2))
    assert payload["replay"]["conventional"]["speedup"] >= SPEEDUP_FLOOR
    assert payload["replay"]["conventional_4way"]["speedup"] >= SPEEDUP_FLOOR
    assert payload["streamed"]["peak_python_mib"] < payload["streamed"]["peak_bound_mib"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller traces")
    args = parser.parse_args(argv)
    payload = run_bench(quick=args.quick)
    print(json.dumps(payload, indent=2))
    speedup_dm = payload["replay"]["conventional"]["speedup"]
    speedup_4way = payload["replay"]["conventional_4way"]["speedup"]
    streamed = payload["streamed"]
    print(f"\nconventional replay speedup: {speedup_dm:.1f}x DM, "
          f"{speedup_4way:.1f}x 4-way (floor {SPEEDUP_FLOOR}x)")
    print(f"streamed replay: {streamed['accesses']:,} accesses at "
          f"{streamed['batched_accesses_per_s'] / 1e6:.1f}M/s, peak "
          f"{streamed['peak_python_mib']:.1f} MiB (bound "
          f"{streamed['peak_bound_mib']:.1f}, materialised: "
          f"{streamed['materialised_trace_mib']:.0f} MiB)")
    generation = payload["generation"]
    print(f"generation: {generation['lines']:,} lines each of "
          f"{', '.join(generation['benchmarks'])} at "
          f"{generation['lines_per_s'] / 1e6:.1f}M lines/s (best "
          f"{generation['wall_clock_s']:.2f} s), peak "
          f"{generation['peak_python_mib']:.1f} MiB (no floor)")
    lockstep = payload["lockstep"]
    print(f"lockstep: {lockstep['runs']} runs of {BENCHMARK} in one pass "
          f"{lockstep['one_pass_s'] * 1e3:.0f} ms vs per run "
          f"{lockstep['per_run_s'] * 1e3:.0f} ms ({lockstep['speedup']:.2f}x, no floor)")
    drains = lockstep["l2_drains"]
    print(f"L2 drains of the Figure 3 groups: {drains['one_pass']} simulated in one pass "
          f"vs {drains['per_run']} per run ({drains['simulated_share']:.0%})")
    sweep = payload["sweep"]
    print(
        f"sweep: {sweep['grid_points']}-point grid on {sweep['cpu_count']} core(s), "
        f"jobs=4 speedup {sweep.get('speedup_jobs4', float('nan')):.2f}x "
        f"(bit-identical across jobs: {sweep['identical_across_jobs']})"
    )
    print(f"results written to {RESULTS_DIR / 'BENCH_engine.json'}")
    if streamed["peak_python_mib"] >= streamed["peak_bound_mib"]:
        return 1
    return 0 if min(speedup_dm, speedup_4way) >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    sys.exit(main())
