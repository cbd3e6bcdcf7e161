"""Drivers for every experiment in the paper's evaluation (Section 5).

Each function reproduces the data behind one table, figure, or sensitivity
discussion:

=====================  =====================================================
Function               Paper artefact
=====================  =====================================================
``table2_experiment``  Table 2 — gated-Vdd circuit trade-offs
``section521_ratios``  Section 5.2.1 — dynamic-vs-leakage energy ratios
``figure3_experiment`` Figure 3 — base energy-delay and average cache size
``figure4_experiment`` Figure 4 — miss-bound sensitivity (0.5x / 1x / 2x)
``figure5_experiment`` Figure 5 — size-bound sensitivity (2x / 1x / 0.5x)
``figure6_experiment`` Figure 6 — 64K 4-way vs 64K DM vs 128K DM
``section56_interval`` Section 5.6 — sense-interval length robustness
``section56_divisibility`` Section 5.6 — divisibility 2 / 4 / 8
=====================  =====================================================

Beyond the paper, ``policy_shootout`` runs the resize-policy zoo
(:mod:`repro.dri.policies`) head-to-head over the Figure 3 benchmark
suite: every policy drives the same shared mechanism (ladder, bounds,
throttle) from each benchmark's Figure 3 base configuration, and the
result reports miss-rate, average active size, and energy-delay per
(benchmark, policy) pair — extending the paper's evaluation of one point
in adaptive-policy space to the surrounding space.

All drivers return plain data structures (dataclasses of dictionaries and
lists) so the benchmark harness can print the same rows/series the paper
reports and the tests can assert on the trends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.circuit.gated_vdd import table2_summary
from repro.config.parameters import DRIParameters, PolicySpec
from repro.config.system import DEFAULT_SYSTEM
from repro.energy.model import EnergyModel
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import (
    DEFAULT_MISS_BOUNDS,
    DEFAULT_SIZE_BOUNDS,
    ParameterSweep,
    SweepPoint,
)
from repro.workloads.spec95 import benchmark_names


@dataclass(frozen=True)
class ExperimentScale:
    """Simulation scale shared by the architectural experiments.

    The paper uses one-million-instruction sense intervals over complete
    SPEC95 runs; this reproduction scales both down proportionally (see
    DESIGN.md) so the full evaluation runs on a laptop.  ``QUICK`` is for
    tests and examples, ``DEFAULT`` for the benchmark harness.
    """

    trace_instructions: int = 600_000
    sense_interval: int = 12_500
    seed: int = 2001
    miss_bounds: Sequence[int] = DEFAULT_MISS_BOUNDS
    size_bounds: Sequence[int] = DEFAULT_SIZE_BOUNDS

    def base_parameters(self) -> DRIParameters:
        """DRI parameters with this scale's sense interval."""
        return DRIParameters(sense_interval=self.sense_interval)

    def sweep(self, engine: str = "auto", **settings) -> ParameterSweep:
        """A sweep at this scale: a :class:`Simulator` of the default system
        with this trace length and seed on ``engine``, the default energy
        model, and :meth:`base_parameters`.  ``settings`` (``jobs``,
        ``max_retries``, ``chunk_timeout``) go to :class:`ParameterSweep`
        as given; close the sweep if they make it run a pool."""
        simulator = Simulator(
            trace_instructions=self.trace_instructions, seed=self.seed, engine=engine
        )
        return ParameterSweep(simulator, EnergyModel(), self.base_parameters(), **settings)


DEFAULT_SCALE = ExperimentScale()
QUICK_SCALE = ExperimentScale(
    trace_instructions=160_000,
    sense_interval=5_000,
    miss_bounds=(10, 60, 200),
    size_bounds=(1024, 8192, 65536),
)


@dataclass
class BenchmarkRow:
    """One benchmark's entry in a figure: the quantities the paper plots."""

    benchmark: str
    relative_energy_delay: float
    leakage_component: float
    dynamic_component: float
    average_size_fraction: float
    slowdown_percent: float
    miss_rate: float
    parameters: Optional[DRIParameters] = None
    resizings: int = 0

    @classmethod
    def from_point(cls, point: SweepPoint) -> "BenchmarkRow":
        summary = point.comparison.summary()
        dri_stats = point.simulation.dri_stats
        return cls(
            benchmark=summary["benchmark"],
            relative_energy_delay=summary["relative_energy_delay"],
            leakage_component=summary["leakage_component"],
            dynamic_component=summary["dynamic_component"],
            average_size_fraction=summary["average_size_fraction"],
            slowdown_percent=summary["slowdown_percent"],
            miss_rate=summary["dri_miss_rate"],
            parameters=point.parameters,
            resizings=dri_stats.resizings if dri_stats is not None else 0,
        )


# ----------------------------------------------------------------------
# Table 2 and Section 5.2.1
# ----------------------------------------------------------------------
def table2_experiment() -> Dict[str, Dict[str, float]]:
    """Reproduce Table 2 from the circuit models."""
    return table2_summary()


def section521_ratios(model: Optional[EnergyModel] = None) -> Dict[str, float]:
    """Reproduce the Section 5.2.1 energy-ratio sanity checks."""
    if model is None:
        model = EnergyModel()
    return {
        "l1_dynamic_to_leakage": model.l1_dynamic_to_leakage_ratio(
            resizing_bits=5, active_fraction=0.5
        ),
        "l2_dynamic_to_leakage": model.l2_dynamic_to_leakage_ratio(
            extra_miss_rate=0.01, active_fraction=0.5
        ),
    }


# ----------------------------------------------------------------------
# Figure 3: base energy-delay and average size
# ----------------------------------------------------------------------
@dataclass
class Figure3Result:
    """Both panels of Figure 3 for every benchmark."""

    constrained: List[BenchmarkRow] = field(default_factory=list)
    unconstrained: List[BenchmarkRow] = field(default_factory=list)

    def row(self, benchmark: str, constrained: bool = True) -> BenchmarkRow:
        rows = self.constrained if constrained else self.unconstrained
        for row in rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def mean_energy_delay_reduction(self, constrained: bool = True) -> float:
        """Average (1 - relative energy-delay) across benchmarks."""
        rows = self.constrained if constrained else self.unconstrained
        if not rows:
            return 0.0
        return sum(1.0 - row.relative_energy_delay for row in rows) / len(rows)

    def mean_size_reduction(self, constrained: bool = True) -> float:
        """Average (1 - average size fraction) across benchmarks."""
        rows = self.constrained if constrained else self.unconstrained
        if not rows:
            return 0.0
        return sum(1.0 - row.average_size_fraction for row in rows) / len(rows)


def figure3_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    sweep: Optional[ParameterSweep] = None,
) -> Figure3Result:
    """Best-case constrained and unconstrained energy-delay per benchmark.

    Like every driver here, it runs on ``sweep`` (default: a serial
    ``scale.sweep()``), which carries the system, engine and executor
    settings.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if sweep is None:
        sweep = scale.sweep()
    # One flat (benchmark, grid point) task list over one pool.
    grids = sweep.grid_many(
        benchmarks, miss_bounds=scale.miss_bounds, size_bounds=scale.size_bounds
    )
    result = Figure3Result()
    for name in benchmarks:
        grid = grids[name]
        constrained = grid.best(constrained=True)
        unconstrained = grid.best(constrained=False)
        if constrained is not None:
            result.constrained.append(BenchmarkRow.from_point(constrained))
        if unconstrained is not None:
            result.unconstrained.append(BenchmarkRow.from_point(unconstrained))
    return result


# ----------------------------------------------------------------------
# Figures 4 and 5: miss-bound and size-bound sensitivity
# ----------------------------------------------------------------------
@dataclass
class SensitivityResult:
    """Energy-delay rows per benchmark for each variation of one parameter."""

    variations: List[str] = field(default_factory=list)
    rows: Dict[str, Dict[str, BenchmarkRow]] = field(default_factory=dict)

    def add(self, benchmark: str, variation: str, row: BenchmarkRow) -> None:
        self.rows.setdefault(benchmark, {})[variation] = row
        if variation not in self.variations:
            self.variations.append(variation)

    def row(self, benchmark: str, variation: str) -> BenchmarkRow:
        return self.rows[benchmark][variation]


def _base_parameters_many(
    sweep: ParameterSweep,
    scale: ExperimentScale,
    benchmarks: Sequence[str],
    base_parameters: Optional[Dict[str, DRIParameters]],
) -> Dict[str, DRIParameters]:
    """Base parameters for many benchmarks, searching the missing ones in bulk.

    The grid search behind every missing benchmark is flattened into one
    (benchmark, grid point) task list via
    :meth:`~repro.simulation.sweep.ParameterSweep.grid_many`, so a parallel
    sweep stays saturated across benchmarks.
    """
    missing = [
        name
        for name in benchmarks
        if base_parameters is None or name not in base_parameters
    ]
    grids = (
        sweep.grid_many(missing, miss_bounds=scale.miss_bounds, size_bounds=scale.size_bounds)
        if missing
        else {}
    )
    resolved: Dict[str, DRIParameters] = {}
    for name in benchmarks:
        if base_parameters is not None and name in base_parameters:
            resolved[name] = base_parameters[name]
            continue
        best = grids[name].best(constrained=True)
        if best is None:
            raise RuntimeError(f"no configurations evaluated for {name}")
        resolved[name] = best.parameters
    return resolved


def _sensitivity(
    benchmarks: Sequence[str],
    scale: ExperimentScale,
    variations: Dict[str, float],
    vary: str,
    sweep: Optional[ParameterSweep],
    base_parameters: Optional[Dict[str, DRIParameters]],
) -> SensitivityResult:
    """Shared driver for Figures 4 and 5."""
    if sweep is None:
        sweep = scale.sweep()
    full_size = sweep.simulator.system.l1_icache.size_bytes
    base_map = _base_parameters_many(sweep, scale, benchmarks, base_parameters)
    labelled: List[tuple] = []
    for name in benchmarks:
        base_params = base_map[name]
        for label, factor in variations.items():
            if vary == "miss_bound":
                params = base_params.scaled_miss_bound(factor)
            else:
                params = base_params.scaled_size_bound(factor)
                if params.size_bound > full_size:
                    params = replace(params, size_bound=full_size)
            labelled.append((name, label, params))
    # All benchmarks' variation points flow through one pool.
    points = sweep.evaluate_many([(name, params) for name, _, params in labelled])
    result = SensitivityResult()
    for (name, label, _), point in zip(labelled, points):
        result.add(name, label, BenchmarkRow.from_point(point))
    return result


def figure4_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> SensitivityResult:
    """Vary the miss-bound to 0.5x, 1x, and 2x of the base configuration."""
    if benchmarks is None:
        benchmarks = benchmark_names()
    variations = {"0.5x": 0.5, "base": 1.0, "2x": 2.0}
    return _sensitivity(benchmarks, scale, variations, "miss_bound", sweep, base_parameters)


def figure5_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> SensitivityResult:
    """Vary the size-bound to 2x, 1x, and 0.5x of the base configuration."""
    if benchmarks is None:
        benchmarks = benchmark_names()
    variations = {"2x": 2.0, "base": 1.0, "0.5x": 0.5}
    return _sensitivity(benchmarks, scale, variations, "size_bound", sweep, base_parameters)


# ----------------------------------------------------------------------
# Figure 6: conventional cache parameters
# ----------------------------------------------------------------------
def figure6_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> SensitivityResult:
    """Compare 64K 4-way, 64K direct-mapped, and 128K direct-mapped DRI caches.

    As in the paper, each configuration is normalised to a *conventional*
    cache of the same size and associativity, the DRI parameters are the
    64K direct-mapped base ones, and the 128K cache uses one extra
    resizing bit so its size-bound matches the 64K cache's.

    ``sweep`` must simulate the 64K direct-mapped L1: the base parameters
    are searched on it and its column runs on it, so that column's runs
    are the memoized base points.  The other two columns run on
    :meth:`~repro.simulation.sweep.ParameterSweep.sibling` sweeps whose
    energy constants are ``sweep``'s rescaled to their size; each is
    closed when its column is done.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    configurations = {
        "64K-4way": DEFAULT_SYSTEM.with_icache(64 * 1024, associativity=4),
        "64K-DM": DEFAULT_SYSTEM.with_icache(64 * 1024, associativity=1),
        "128K-DM": DEFAULT_SYSTEM.with_icache(128 * 1024, associativity=1),
    }
    if sweep is None:
        sweep = scale.sweep()
    elif sweep.simulator.system != configurations["64K-DM"]:
        raise ValueError(
            "figure6_experiment runs its 64K-DM column on the given sweep, "
            "which must simulate the 64K direct-mapped L1"
        )
    resolved_parameters = _base_parameters_many(sweep, scale, benchmarks, base_parameters)
    pairs = [(name, resolved_parameters[name]) for name in benchmarks]

    result = SensitivityResult()
    for label, system in configurations.items():
        if system == sweep.simulator.system:
            points = sweep.evaluate_many(pairs)
        else:
            constants = sweep.energy_model.constants.scaled_to_size(system.l1_icache.size_bytes)
            # Each configuration's benchmarks flow through one pool.
            with sweep.sibling(system, EnergyModel(constants=constants)) as sibling:
                points = sibling.evaluate_many(pairs)
        for name, point in zip(benchmarks, points):
            result.add(name, label, BenchmarkRow.from_point(point))
    return result


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures, motivated by its design choices)
# ----------------------------------------------------------------------
@dataclass
class StaticVersusDynamicRow:
    """One benchmark's comparison of best-static sizing against the DRI i-cache."""

    benchmark: str
    static_size_bytes: int
    static_energy_delay: float
    static_slowdown_percent: float
    dynamic_energy_delay: float
    dynamic_slowdown_percent: float

    @property
    def dynamic_advantage(self) -> float:
        """How much lower the DRI energy-delay is than the best static one."""
        return self.static_energy_delay - self.dynamic_energy_delay


def static_versus_dynamic_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> List[StaticVersusDynamicRow]:
    """Compare the DRI i-cache against the best *statically* resized cache.

    A static cache picks one size per application at design/compile time
    (in the spirit of the statically reconfigurable caches in the related
    work, [1] and [21]); the DRI i-cache adapts within the execution.  For
    single-phase applications the two should be close; for phased
    applications (class 3) no single static size matches the dynamic
    scheme, which is the paper's motivation for resizing dynamically.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if sweep is None:
        sweep = scale.sweep()
    base_map = _base_parameters_many(sweep, scale, benchmarks, base_parameters)
    rows = []
    for name in benchmarks:
        dynamic_point = sweep.evaluate(name, base_map[name])
        static_size, static_result = sweep.best_static_size(
            name, sizes=scale.size_bounds, constrained=True
        )
        rows.append(
            StaticVersusDynamicRow(
                benchmark=name,
                static_size_bytes=static_size,
                static_energy_delay=static_result.relative_energy_delay,
                static_slowdown_percent=static_result.slowdown * 100.0,
                dynamic_energy_delay=dynamic_point.comparison.relative_energy_delay,
                dynamic_slowdown_percent=dynamic_point.comparison.slowdown * 100.0,
            )
        )
    return rows


def throttle_ablation_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> SensitivityResult:
    """Measure the effect of the oscillation throttle (Section 2.1).

    Runs each benchmark's base configuration with the throttle enabled
    (the paper's 3-bit counter, ten-interval hold) and disabled (hold of
    zero intervals).  Without the throttle, applications whose required
    size falls between two DRI sizes keep bouncing, paying the resizing
    misses every other interval.
    """
    from repro.config.parameters import ThrottleConfig

    if benchmarks is None:
        benchmarks = benchmark_names()
    if sweep is None:
        sweep = scale.sweep()
    base_map = _base_parameters_many(sweep, scale, benchmarks, base_parameters)
    result = SensitivityResult()
    for name in benchmarks:
        params = base_map[name]
        with_throttle = params
        without_throttle = replace(
            params, throttle=ThrottleConfig(counter_bits=3, hold_intervals=0)
        )
        result.add(name, "throttle", BenchmarkRow.from_point(sweep.evaluate(name, with_throttle)))
        result.add(
            name, "no-throttle", BenchmarkRow.from_point(sweep.evaluate(name, without_throttle))
        )
    return result


# ----------------------------------------------------------------------
# Section 5.6: sense-interval length and divisibility
# ----------------------------------------------------------------------
def section56_interval_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    interval_factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> SensitivityResult:
    """Vary the sense-interval length around the base configuration."""
    if benchmarks is None:
        benchmarks = benchmark_names()
    if sweep is None:
        sweep = scale.sweep()
    base_map = _base_parameters_many(sweep, scale, benchmarks, base_parameters)
    labelled = []
    for name in benchmarks:
        for factor in interval_factors:
            interval = max(1000, int(round(scale.sense_interval * factor)))
            labelled.append((name, f"{factor}x", base_map[name].with_interval(interval)))
    points = sweep.evaluate_many([(name, params) for name, _, params in labelled])
    result = SensitivityResult()
    for (name, label, _), point in zip(labelled, points):
        result.add(name, label, BenchmarkRow.from_point(point))
    return result


# ----------------------------------------------------------------------
# Policy shootout (beyond the paper: the resize-policy zoo head-to-head)
# ----------------------------------------------------------------------
DEFAULT_SHOOTOUT_POLICIES = (
    "miss-bound",
    "hysteresis",
    "pid",
    "phase-detect",
    "predictive",
)
"""The zoo policies the shootout compares by default (registry names)."""


@dataclass
class PolicyShootoutResult:
    """Per-(benchmark, policy) rows of the head-to-head harness.

    ``rows[benchmark][policy_label]`` is the benchmark's
    :class:`BenchmarkRow` under that policy; every policy runs the same
    benchmark at the same Figure 3 base parameters (recorded in
    ``base_parameters``), so differences are attributable to the decision
    rule alone.
    """

    policies: List[str] = field(default_factory=list)
    rows: Dict[str, Dict[str, BenchmarkRow]] = field(default_factory=dict)
    base_parameters: Dict[str, DRIParameters] = field(default_factory=dict)

    def add(self, benchmark: str, policy: str, row: BenchmarkRow) -> None:
        self.rows.setdefault(benchmark, {})[policy] = row
        if policy not in self.policies:
            self.policies.append(policy)

    def row(self, benchmark: str, policy: str) -> BenchmarkRow:
        return self.rows[benchmark][policy]

    def benchmarks(self) -> List[str]:
        return list(self.rows)

    def _mean(self, policy: str, value) -> float:
        rows = [group[policy] for group in self.rows.values() if policy in group]
        if not rows:
            return 0.0
        return sum(value(row) for row in rows) / len(rows)

    def mean_energy_delay(self, policy: str) -> float:
        """Mean relative energy-delay of one policy across the suite."""
        return self._mean(policy, lambda row: row.relative_energy_delay)

    def mean_size_fraction(self, policy: str) -> float:
        """Mean average-active-size fraction of one policy across the suite."""
        return self._mean(policy, lambda row: row.average_size_fraction)

    def mean_miss_rate(self, policy: str) -> float:
        """Mean miss rate of one policy across the suite."""
        return self._mean(policy, lambda row: row.miss_rate)

    def mean_slowdown_percent(self, policy: str) -> float:
        """Mean slowdown (percent) of one policy across the suite."""
        return self._mean(policy, lambda row: row.slowdown_percent)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-policy suite means (JSON-friendly, benched into BENCH_engine)."""
        return {
            policy: {
                "mean_energy_delay": self.mean_energy_delay(policy),
                "mean_size_fraction": self.mean_size_fraction(policy),
                "mean_miss_rate": self.mean_miss_rate(policy),
                "mean_slowdown_percent": self.mean_slowdown_percent(policy),
            }
            for policy in self.policies
        }


def policy_shootout(
    policies: Optional[Sequence[Union[str, PolicySpec]]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> PolicyShootoutResult:
    """Run the resize-policy zoo head-to-head over the Figure 3 suite.

    Each benchmark's Figure 3 constrained-best parameters (searched under
    the default miss-bound policy, or supplied via ``base_parameters``)
    are re-run once per policy with only ``parameters.policy`` replaced,
    and every (benchmark, policy) pair flows through one pooled
    :meth:`~repro.simulation.sweep.ParameterSweep.evaluate_many` call.
    Because the policy spec is part of :class:`DRIParameters`, the sweep
    memo keeps every policy's result distinct — the miss-bound rows are
    literally the Figure 3 base points, reused from the memo.
    """
    if policies is None:
        policies = DEFAULT_SHOOTOUT_POLICIES
    specs = [
        spec if isinstance(spec, PolicySpec) else PolicySpec.parse(spec)
        for spec in policies
    ]
    if benchmarks is None:
        benchmarks = benchmark_names()
    if sweep is None:
        sweep = scale.sweep()
    base_map = _base_parameters_many(sweep, scale, benchmarks, base_parameters)
    labelled: List[tuple] = []
    for name in benchmarks:
        for spec in specs:
            labelled.append((name, spec.label, replace(base_map[name], policy=spec)))
    points = sweep.evaluate_many([(name, params) for name, _, params in labelled])
    result = PolicyShootoutResult(base_parameters=dict(base_map))
    for (name, label, _), point in zip(labelled, points):
        result.add(name, label, BenchmarkRow.from_point(point))
    return result


def section56_divisibility_experiment(
    benchmarks: Optional[Sequence[str]] = None,
    scale: ExperimentScale = DEFAULT_SCALE,
    divisibilities: Sequence[int] = (2, 4, 8),
    sweep: Optional[ParameterSweep] = None,
    base_parameters: Optional[Dict[str, DRIParameters]] = None,
) -> SensitivityResult:
    """Vary the divisibility (resizing granularity) around the base configuration."""
    if benchmarks is None:
        benchmarks = benchmark_names()
    if sweep is None:
        sweep = scale.sweep()
    base_map = _base_parameters_many(sweep, scale, benchmarks, base_parameters)
    result = SensitivityResult()
    for name in benchmarks:
        for divisibility in divisibilities:
            params = base_map[name].with_divisibility(divisibility)
            point = sweep.evaluate(name, params)
            result.add(name, f"div{divisibility}", BenchmarkRow.from_point(point))
    return result
