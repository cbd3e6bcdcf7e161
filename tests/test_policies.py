"""Tests for the resize-policy layer: spec, registry, zoo, and golden equivalence.

The policy layer's contracts:

* :class:`~repro.config.parameters.PolicySpec` is pure, hashable config
  data — it parses from CLI text, sorts its kwargs canonically, and rides
  inside the frozen :class:`~repro.config.parameters.DRIParameters` (which
  is what keys the sweep memo);
* the registry knows every zoo policy and builds instances that inherit
  ``miss_bound`` from the run's parameters;
* each policy's decision rule does what its docstring says on synthetic
  interval statistics;
* the controller (mechanism) clamps every policy request to the ladder,
  the bounds, and the throttle;
* the phase-detect policy's detections line up with the synthetic
  generator's *ground-truth* phase boundaries;
* the refactored miss-bound path reproduces the pre-refactor controller
  bit-for-bit on the Figure 3 suite (the committed golden fixture);
* the resize mechanism — ladder stepping with target clamping, the
  size-bound clamp, the throttle — gives every zoo policy the same runs
  it gave when the mechanism was recorded (the policy-zoo fixture).
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from repro.config.parameters import DRIParameters, PolicySpec, ThrottleConfig
from repro.config.system import CacheGeometry
from repro.dri.controller import ResizeController
from repro.dri.dri_cache import DRIICache
from repro.dri.mask import SizeMask
from repro.dri.policies import (
    HysteresisPolicy,
    IntervalStats,
    MissBoundPolicy,
    PhaseDetectPolicy,
    PIDPolicy,
    PredictiveUpsizePolicy,
    ResizePolicy,
    ResizeRequest,
    build_policy,
    policy_catalog,
    policy_names,
    register_policy,
)
from repro.dri.throttle import ResizeDecision
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import generate_trace, phase_change_accesses
from repro.workloads.phases import BenchmarkClass, LoopSpec, PhaseSpec, WorkloadSpec
from repro.workloads.spec95 import benchmark_names, get_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "dri_miss_bound_golden.json"
ZOO_GOLDEN_PATH = Path(__file__).parent / "golden" / "dri_policy_zoo_golden.json"

ZOO = ("hysteresis", "miss-bound", "phase-detect", "pid", "predictive")


def _stats(misses, index=0, accesses=1000, **kwargs):
    defaults = dict(
        current_size=32 * 1024,
        full_size=64 * 1024,
        min_size=1024,
        at_minimum=False,
        at_maximum=False,
    )
    defaults.update(kwargs)
    return IntervalStats(index=index, misses=misses, accesses=accesses, **defaults)


class TestPolicySpec:
    def test_default_is_miss_bound(self):
        assert PolicySpec().name == "miss-bound"
        assert DRIParameters().policy == PolicySpec()

    def test_parse_bare_name(self):
        spec = PolicySpec.parse("hysteresis")
        assert spec.name == "hysteresis"
        assert spec.options == {}
        assert spec.label == "hysteresis"

    def test_parse_options(self):
        spec = PolicySpec.parse("pid:kp=1.5,ki=0.1")
        assert spec.name == "pid"
        assert spec.options == {"kp": 1.5, "ki": 0.1}

    def test_parse_label_round_trip(self):
        spec = PolicySpec.parse("hysteresis:consecutive=2,down_factor=0.25")
        assert PolicySpec.parse(spec.label) == spec

    def test_kwargs_are_canonically_sorted(self):
        a = PolicySpec.create("pid", kp=1.5, ki=0.1)
        b = PolicySpec.create("pid", ki=0.1, kp=1.5)
        assert a == b
        assert hash(a) == hash(b)

    def test_spec_is_frozen_and_hashable(self):
        spec = PolicySpec.create("miss-bound", miss_bound=40)
        with pytest.raises(FrozenInstanceError):
            spec.name = "other"
        assert spec in {spec}

    def test_parameters_with_policy(self):
        params = DRIParameters().with_policy("hysteresis", consecutive=2)
        assert params.policy.name == "hysteresis"
        assert params.policy.options == {"consecutive": 2}

    def test_distinct_policies_give_distinct_parameters(self):
        """The memo-key property at its root: DRIParameters differing only
        in policy compare (and hash) unequal."""
        base = DRIParameters(miss_bound=40, size_bound=1024, sense_interval=5_000)
        a = replace(base, policy=PolicySpec.create("miss-bound"))
        b = replace(base, policy=PolicySpec.create("pid"))
        assert a != b
        assert hash(a) != hash(b) or a != b

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            PolicySpec.parse("pid:kp")  # option without a value


class TestRegistry:
    def test_zoo_is_registered(self):
        assert set(ZOO) <= set(policy_names())

    def test_catalog_lists_defaults(self):
        catalog = policy_catalog()
        assert catalog["hysteresis"]["defaults"]["consecutive"] == 1
        assert catalog["pid"]["defaults"]["kp"] == 1.0
        for entry in catalog.values():
            assert entry["description"]

    def test_build_policy_inherits_miss_bound(self):
        params = DRIParameters(miss_bound=77)
        for name in ZOO:
            policy = build_policy(PolicySpec.create(name), params)
            assert policy.miss_bound == 77, name

    def test_build_policy_spec_override_wins(self):
        params = DRIParameters(miss_bound=77)
        policy = build_policy(PolicySpec.create("miss-bound", miss_bound=5), params)
        assert policy.miss_bound == 5

    def test_build_policy_unknown_name(self):
        with pytest.raises(KeyError):
            build_policy(PolicySpec.create("gradient-descent"))

    def test_build_policy_bad_option(self):
        with pytest.raises(ValueError):
            build_policy(PolicySpec.create("miss-bound", learning_rate=0.1))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):

            @register_policy
            class Impostor(ResizePolicy):
                name = "miss-bound"

                def observe(self, stats):
                    return ResizeRequest.none()


class TestPolicyDecisions:
    def test_miss_bound_rule(self):
        policy = MissBoundPolicy(miss_bound=50)
        assert policy.observe(_stats(10)).direction is ResizeDecision.DOWNSIZE
        assert policy.observe(_stats(90)).direction is ResizeDecision.UPSIZE
        assert policy.observe(_stats(50)).direction is ResizeDecision.NONE

    def test_hysteresis_dead_band_holds(self):
        policy = HysteresisPolicy(miss_bound=100, down_factor=0.5, up_factor=1.5)
        assert policy.observe(_stats(100)).direction is ResizeDecision.NONE
        assert policy.observe(_stats(70)).direction is ResizeDecision.NONE
        assert policy.observe(_stats(160)).direction is ResizeDecision.UPSIZE
        assert policy.observe(_stats(40)).direction is ResizeDecision.DOWNSIZE

    def test_hysteresis_consecutive_slack_required(self):
        policy = HysteresisPolicy(miss_bound=100, consecutive=3)
        assert policy.observe(_stats(10)).direction is ResizeDecision.NONE
        assert policy.observe(_stats(10)).direction is ResizeDecision.NONE
        assert policy.observe(_stats(10)).direction is ResizeDecision.DOWNSIZE
        # The streak restarts after firing and breaks on in-band intervals.
        assert policy.observe(_stats(10)).direction is ResizeDecision.NONE
        assert policy.observe(_stats(100)).direction is ResizeDecision.NONE
        assert policy.observe(_stats(10)).direction is ResizeDecision.NONE

    def test_pid_integral_accumulates_subthreshold_pressure(self):
        policy = PIDPolicy(miss_bound=100, kp=0.2, ki=0.5, kd=0.0, deadband=1.0)
        # Each interval's proportional term alone (0.2 * 40 = 8) stays far
        # inside the 100-wide dead band; the integral climbs until the
        # sustained pressure crosses it.
        directions = [policy.observe(_stats(140)).direction for _ in range(6)]
        assert directions[0] is ResizeDecision.NONE
        assert ResizeDecision.UPSIZE in directions

    def test_pid_derivative_reacts_to_spikes(self):
        policy = PIDPolicy(miss_bound=100, kp=0.0, ki=0.0, kd=2.0, deadband=0.5)
        assert policy.observe(_stats(90)).direction is ResizeDecision.NONE
        # d(error) = +60 -> control 120 > band 50, before the level crosses.
        assert policy.observe(_stats(150)).direction is ResizeDecision.UPSIZE

    def test_phase_detect_spike_requests_full_size(self):
        policy = PhaseDetectPolicy(miss_bound=50, spike_factor=3.0, settle_intervals=1)
        policy.observe(_stats(20, index=0))
        request = policy.observe(_stats(200, index=1))
        assert request.direction is ResizeDecision.UPSIZE
        assert request.target_size == 64 * 1024
        assert policy.detected_change_intervals == [1]
        # The settle interval holds even though misses now sit above bound.
        assert policy.observe(_stats(120, index=2)).direction is ResizeDecision.NONE

    def test_predictive_upsizes_on_slope_before_crossing(self):
        policy = PredictiveUpsizePolicy(miss_bound=100, slope_threshold=0.5)
        assert policy.observe(_stats(10)).direction is ResizeDecision.DOWNSIZE
        # 10 -> 70 rises by 60 > 0.5 * 100 while still below the bound.
        assert policy.observe(_stats(70)).direction is ResizeDecision.UPSIZE
        # Below bound but still climbing: never answered with a shrink.
        assert policy.observe(_stats(90)).direction is ResizeDecision.NONE

    def test_reset_clears_cross_interval_state(self):
        for name in ZOO:
            policy = build_policy(PolicySpec.create(name, miss_bound=100))
            for misses in (10, 400, 30):
                policy.observe(_stats(misses))
            policy.reset()
            if isinstance(policy, PhaseDetectPolicy):
                assert policy.detected_change_intervals == []
            # After reset, the first observation must match a fresh instance's.
            fresh = build_policy(PolicySpec.create(name, miss_bound=100))
            assert policy.observe(_stats(10)) == fresh.observe(_stats(10))


class _ScriptedPolicy(ResizePolicy):
    """Feeds a prepared list of requests to the controller."""

    name = "scripted"

    def __init__(self, requests):
        self.requests = list(requests)

    def observe(self, stats):
        return self.requests.pop(0) if self.requests else ResizeRequest.none()


class TestControllerMechanism:
    GEOMETRY = CacheGeometry(size_bytes=64 * 1024, block_size=32, associativity=1)

    def _controller(self, policy, **params):
        parameters = DRIParameters(
            miss_bound=50, size_bound=1024, sense_interval=5_000, **params
        )
        mask = SizeMask(self.GEOMETRY, parameters.size_bound)
        return ResizeController(parameters, mask, policy=policy)

    def test_target_jump_is_clamped_to_the_ladder(self):
        controller = self._controller(
            _ScriptedPolicy(
                [
                    ResizeRequest.downsize(target_size=1024),  # full -> min, one call
                    ResizeRequest.upsize(target_size=64 * 1024),  # min -> full
                    ResizeRequest.upsize(target_size=64 * 1024),  # at max: refused
                ]
            )
        )
        outcome = controller.end_of_interval(0)
        assert outcome.new_size == 1024
        outcome = controller.end_of_interval(0)
        assert outcome.new_size == 64 * 1024
        outcome = controller.end_of_interval(0)
        # At full size the mechanism refuses the upsize but still reports
        # what the policy asked for.
        assert outcome.decision is ResizeDecision.NONE
        assert outcome.requested is ResizeDecision.UPSIZE
        assert outcome.new_size == 64 * 1024

    def test_target_between_rungs_stops_at_nearest_reachable(self):
        controller = self._controller(
            _ScriptedPolicy([ResizeRequest.downsize(target_size=3_000)])
        )
        # The ladder holds powers of two: a 3000-byte target lands on 4096
        # (the smallest rung still >= the target).
        assert controller.end_of_interval(0).new_size == 4096

    def test_policy_downsize_respects_throttle(self):
        """A scripted oscillation trips the throttle for any policy: the
        mechanism, not the policy, owns oscillation suppression."""
        script = []
        for _ in range(8):
            script += [ResizeRequest.downsize(), ResizeRequest.upsize()]
        script += [ResizeRequest.downsize()] * 4
        controller = self._controller(_ScriptedPolicy(script))
        outcomes = [controller.end_of_interval(0) for _ in range(len(script))]
        throttled = [outcome for outcome in outcomes if outcome.throttled]
        assert throttled, "oscillating requests never tripped the throttle"
        for outcome in throttled:
            assert outcome.decision is ResizeDecision.NONE
            assert outcome.requested is ResizeDecision.DOWNSIZE

    def test_reset_restores_policy_state(self):
        controller = self._controller(None)  # default: miss-bound from spec
        assert isinstance(controller.policy, MissBoundPolicy)
        phase = PhaseDetectPolicy(miss_bound=50)
        controller = self._controller(phase)
        controller.end_of_interval(5)
        controller.end_of_interval(500)
        assert phase.detected_change_intervals
        controller.reset()
        assert phase.detected_change_intervals == []
        assert controller.current_size == 64 * 1024


class TestPhaseDetectGroundTruth:
    def test_detections_match_generator_phase_boundaries(self):
        """The detector's change intervals line up (within one interval)
        with the synthetic generator's ground-truth phase boundaries.

        The workload is built so the boundary is *detectable*: phase 1's
        footprint fits the size-bound (the cache settles small and quiet),
        and phase 2's working set arrives mid-trace as a miss spike.  A
        boundary inside the cold-start transient (as hydro2d's is at this
        scale) is physically invisible to a miss-spike detector — the cache
        is still at full size paying compulsory misses.
        """
        spec = WorkloadSpec(
            name="two-phase",
            benchmark_class=BenchmarkClass.PHASED,
            phases=(
                PhaseSpec(
                    name="small",
                    footprint_bytes=2 * 1024,
                    duration_fraction=0.5,
                    loops=(LoopSpec(size_fraction=0.8, weight=1.0, repeats=4),),
                ),
                PhaseSpec(
                    name="large",
                    footprint_bytes=48 * 1024,
                    duration_fraction=0.5,
                    loops=(LoopSpec(size_fraction=0.8, weight=1.0, repeats=2),),
                ),
            ),
        )
        instructions = 80_000
        sense_interval = 5_000
        trace = generate_trace(spec, total_instructions=instructions, seed=7)
        per_line = trace.instructions_per_line
        interval_accesses = sense_interval // per_line

        truth = phase_change_accesses(spec, instructions, per_line)
        assert truth == [5_000]  # one boundary, mid-trace
        expected_intervals = [boundary // interval_accesses for boundary in truth]

        parameters = DRIParameters(
            miss_bound=30, size_bound=2048, sense_interval=sense_interval
        ).with_policy("phase-detect")
        icache = DRIICache(
            CacheGeometry(size_bytes=64 * 1024, block_size=32, associativity=1),
            parameters,
            auto_interval=True,
            instructions_per_access=per_line,
        )
        icache.access_batch(trace.line_addresses)
        detected = icache.controller.policy.detected_change_intervals

        for expected in expected_intervals:
            assert any(
                abs(actual - expected) <= 1 for actual in detected
            ), f"boundary at interval {expected} not detected (got {detected})"
        # And it does not fire all over the place: a detection count of the
        # same order as the truth, not one per interval.
        assert len(detected) <= 2 * len(expected_intervals) + 1
        # The detection jumped the cache straight back to full size.
        trajectory = icache.dri_stats.size_trajectory()
        assert trajectory[expected_intervals[0] + 1] == 64 * 1024

    def test_suite_wide_precision_and_recall(self):
        """Aggregate detection quality over *every* synthetic benchmark.

        Each benchmark's detected change intervals are scored against the
        generator's ground-truth phase boundaries
        (:func:`phase_change_accesses`) with a one-interval tolerance.
        The detector runs isolated from the sizing loop — ``miss_bound=0``
        keeps the cache pinned at full size, so interval miss counts
        reflect the workload's intrinsic phase behaviour rather than
        self-inflicted resizing misses (a downsized cache's miss spike is
        indistinguishable from a phase change, which is exactly why the
        policy exists; measuring the detector requires removing that
        feedback).  Boundaries inside the first interval sit in the
        cold-start transient (the cache is still paying compulsory misses
        everywhere) and are physically invisible, so they are excluded
        from the truth set.

        The floors are calibrated against the observed operating point at
        ``spike_factor=2.5`` (precision 0.80, recall 0.62 on this suite);
        they are deliberately below it so the test pins the detector
        against *regressions*, not noise.
        """
        instructions = 80_000
        sense_interval = 5_000
        policy = PolicySpec.parse("phase-detect:miss_bound=0,spike_factor=2.5")
        true_positives = false_positives = false_negatives = 0
        total_visible = 0
        for name in benchmark_names():
            spec = get_benchmark(name)
            trace = generate_trace(spec, total_instructions=instructions, seed=7)
            per_line = trace.instructions_per_line
            interval_accesses = sense_interval // per_line
            truth = phase_change_accesses(spec, instructions, per_line)
            visible = [
                boundary // interval_accesses
                for boundary in truth
                if boundary // interval_accesses >= 1
            ]
            total_visible += len(visible)
            parameters = DRIParameters(
                miss_bound=30,
                size_bound=2048,
                sense_interval=sense_interval,
                policy=policy,
            )
            icache = DRIICache(
                CacheGeometry(size_bytes=64 * 1024, block_size=32, associativity=1),
                parameters,
                auto_interval=True,
                instructions_per_access=per_line,
            )
            icache.access_batch(trace.line_addresses)
            detected = list(icache.controller.policy.detected_change_intervals)
            matched = [
                expected
                for expected in visible
                if any(abs(actual - expected) <= 1 for actual in detected)
            ]
            spurious = [
                actual
                for actual in detected
                if not any(abs(actual - expected) <= 1 for expected in visible)
            ]
            true_positives += len(matched)
            false_negatives += len(visible) - len(matched)
            false_positives += len(spurious)
        # The score is not vacuous: the suite contributes a real truth set.
        assert total_visible >= 10
        precision = true_positives / max(1, true_positives + false_positives)
        recall = true_positives / max(1, true_positives + false_negatives)
        assert precision >= 0.70, (
            f"suite-wide phase-detect precision regressed: {precision:.3f} "
            f"(tp={true_positives}, fp={false_positives})"
        )
        assert recall >= 0.50, (
            f"suite-wide phase-detect recall regressed: {recall:.3f} "
            f"(tp={true_positives}, fn={false_negatives})"
        )


class TestMissBoundGolden:
    """The refactored policy path reproduces the pre-refactor controller
    bit-for-bit: the fixture was dumped from the hard-wired controller at
    the commit before the mechanism/policy split."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_fixture_covers_the_suite(self, golden):
        assert len(golden["benchmarks"]) == 15

    @pytest.mark.parametrize("point_index", [0, 1])
    def test_golden_equivalence(self, golden, point_index):
        sweep = ParameterSweep(
            Simulator(
                trace_instructions=golden["trace_instructions"], seed=golden["seed"]
            )
        )
        for name, rows in golden["benchmarks"].items():
            row = rows[point_index]
            point = sweep.evaluate(name, DRIParameters(**row["parameters"]))
            sim = point.simulation
            assert sim.l1_accesses == row["l1_accesses"], name
            assert sim.l1_misses == row["l1_misses"], name
            assert sim.l2_accesses == row["l2_accesses"], name
            assert sim.l2_misses == row["l2_misses"], name
            assert sim.cycles == row["cycles"], name
            assert sim.dri_stats.accesses == row["dri_accesses"], name
            assert sim.dri_stats.misses == row["dri_misses"], name
            assert sim.dri_stats.upsizings == row["upsizings"], name
            assert sim.dri_stats.downsizings == row["downsizings"], name
            assert (
                sim.dri_stats.throttled_downsizings == row["throttled_downsizings"]
            ), name
            assert sim.dri_stats.size_trajectory() == row["size_trajectory"], name
            assert sim.dri_stats.average_size_fraction == pytest.approx(
                row["average_size_fraction"], abs=0.0
            ), name
            assert point.comparison.relative_energy_delay == pytest.approx(
                row["relative_energy_delay"], abs=1e-12
            ), name
            assert point.comparison.slowdown == pytest.approx(
                row["slowdown"], abs=1e-12
            ), name


class TestPolicyZooGolden:
    """The resize mechanism under every zoo policy, pinned run for run.

    Each run replays one of four benchmarks (``engine="batched"``) under
    one policy at divisibility 2 or 4 and a 1- or 3-bit throttle counter
    with a 5-interval hold.  The fixture was recorded while the mechanism
    still ran as int64-array step functions; the miss-bound fixture and
    the engine differentials cover only the miss-bound rule, so this is
    the check on target clamping and the throttle across policies.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(ZOO_GOLDEN_PATH.read_text())

    def _parameters(self, golden, run):
        throttle = ThrottleConfig(
            counter_bits=run["counter_bits"], hold_intervals=golden["hold_intervals"]
        )
        return DRIParameters(
            divisibility=run["divisibility"], throttle=throttle, **golden["base_parameters"]
        ).with_policy(run["policy"])

    def test_fixture_throttles_and_jumps_at_each_divisibility(self, golden):
        """The fixture is not vacuous: under each divisibility some
        downsizing is throttled and some resize jumps more than one rung
        (a phase-detect reset clamped to the ladder)."""
        assert {run["policy"] for run in golden["runs"]} == set(ZOO)
        geometry = Simulator().system.l1_icache
        for divisibility in (2, 4):
            runs = [run for run in golden["runs"] if run["divisibility"] == divisibility]
            ladder = SizeMask(geometry, golden["base_parameters"]["size_bound"]).allowed_sizes(
                divisibility
            )
            jumps = sum(
                abs(ladder.index(after) - ladder.index(before)) > 1
                for run in runs
                for before, after in zip(run["size_trajectory"], run["size_trajectory"][1:])
            )
            assert sum(run["throttled_downsizings"] for run in runs) > 0, divisibility
            assert jumps > 0, divisibility

    def test_zoo_golden_equivalence(self, golden):
        simulator = Simulator(
            trace_instructions=golden["trace_instructions"],
            seed=golden["seed"],
            engine=golden["engine"],
        )
        for run in golden["runs"]:
            label = (run["benchmark"], run["policy"], run["divisibility"], run["counter_bits"])
            result = simulator.run_dri(run["benchmark"], self._parameters(golden, run))
            stats = result.dri_stats
            assert (result.cycles, result.l1_misses) == (run["cycles"], run["l1_misses"]), label
            assert (stats.upsizings, stats.downsizings, stats.throttled_downsizings) == (
                run["upsizings"],
                run["downsizings"],
                run["throttled_downsizings"],
            ), label
            assert stats.size_trajectory() == run["size_trajectory"], label
