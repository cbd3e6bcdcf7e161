"""Tests for the trace generator."""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.generator import (
    ALIAS_STRIDE_BYTES,
    CODE_BASE_ADDRESS,
    MAX_PICK_BATCH,
    PHASE_REGION_SPACING,
    SCATTER_BASE_ADDRESS,
    SEGMENT_TARGET_LINES,
    _loop_layout,
    _phase_line_budget,
    _phase_segments,
    generate_trace,
    stream_trace,
)
from repro.workloads.phases import BenchmarkClass, LoopSpec, PhaseSpec, WorkloadSpec
from repro.workloads.spec95 import benchmark_names, get_benchmark

STREAMS_GOLDEN_PATH = Path(__file__).parent / "golden" / "generated_streams_golden.json"


def stream_digest(addresses: np.ndarray) -> str:
    """SHA-256 of a line-address stream as little-endian uint64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(addresses, dtype="<u8").tobytes()).hexdigest()


def simple_spec(
    footprint_bytes: int = 4096, scatter_rate: float = 0.0, aliased: bool = False
) -> WorkloadSpec:
    return WorkloadSpec(
        name="synthetic-test",
        benchmark_class=BenchmarkClass.SMALL_FOOTPRINT,
        phases=[
            PhaseSpec(
                name="only",
                footprint_bytes=footprint_bytes,
                duration_fraction=1.0,
                loops=(
                    LoopSpec(size_fraction=0.5, weight=0.6, repeats=4),
                    LoopSpec(size_fraction=0.25, weight=0.4, repeats=4, aliased=aliased),
                ),
                scatter_rate=scatter_rate,
            )
        ],
    )


class TestBasicGeneration:
    def test_trace_length_matches_instruction_budget(self):
        trace = generate_trace(simple_spec(), total_instructions=80_000)
        assert trace.num_instructions == 80_000
        assert trace.num_accesses == 10_000

    def test_addresses_are_line_aligned(self):
        trace = generate_trace(simple_spec(), total_instructions=8_000)
        assert np.all(trace.line_addresses % trace.line_size == 0)

    def test_deterministic_for_same_seed(self):
        first = generate_trace(simple_spec(), total_instructions=16_000, seed=11)
        second = generate_trace(simple_spec(), total_instructions=16_000, seed=11)
        assert np.array_equal(first.line_addresses, second.line_addresses)

    def test_different_seeds_differ(self):
        first = generate_trace(simple_spec(), total_instructions=16_000, seed=1)
        second = generate_trace(simple_spec(), total_instructions=16_000, seed=2)
        assert not np.array_equal(first.line_addresses, second.line_addresses)

    def test_different_benchmarks_are_decorrelated(self):
        first = generate_trace(get_benchmark("applu"), total_instructions=16_000, seed=5)
        second = generate_trace(get_benchmark("mgrid"), total_instructions=16_000, seed=5)
        assert not np.array_equal(first.line_addresses, second.line_addresses)

    def test_rejects_too_small_budget(self):
        with pytest.raises(ValueError):
            generate_trace(simple_spec(), total_instructions=4)


class TestFootprint:
    def test_footprint_close_to_spec(self):
        footprint = 8 * 1024
        trace = generate_trace(simple_spec(footprint_bytes=footprint), total_instructions=400_000)
        # Loops cover sub-ranges of the phase footprint, so the touched
        # footprint is below the spec value but the same order of magnitude.
        assert 0.2 * footprint <= trace.footprint_bytes <= 1.3 * footprint

    def test_small_footprint_benchmark_touches_few_lines(self):
        trace = generate_trace(get_benchmark("compress"), total_instructions=200_000)
        assert trace.footprint_bytes < 8 * 1024

    def test_large_footprint_benchmark_touches_many_lines(self):
        trace = generate_trace(get_benchmark("fpppp"), total_instructions=400_000)
        assert trace.footprint_bytes > 24 * 1024

    def test_addresses_start_in_code_region(self):
        trace = generate_trace(simple_spec(), total_instructions=8_000)
        assert int(trace.line_addresses.min()) >= CODE_BASE_ADDRESS


class TestScatterAndAliasing:
    def test_scatter_adds_far_addresses(self):
        quiet = generate_trace(simple_spec(scatter_rate=0.0), total_instructions=80_000)
        noisy = generate_trace(simple_spec(scatter_rate=0.05), total_instructions=80_000)
        assert int(noisy.line_addresses.max()) >= SCATTER_BASE_ADDRESS
        assert int(quiet.line_addresses.max()) < SCATTER_BASE_ADDRESS
        assert noisy.footprint_lines > quiet.footprint_lines

    def test_aliased_loop_offset_by_reference_cache_size(self):
        trace = generate_trace(simple_spec(aliased=True), total_instructions=80_000)
        offsets = trace.line_addresses - np.uint64(CODE_BASE_ADDRESS)
        # Some fetches land one alias stride (64K) above the phase base.
        assert bool(np.any(offsets >= ALIAS_STRIDE_BYTES))


class TestPhaseBudgets:
    """Regression: rounding drift must never shorten (or lengthen) a trace."""

    @staticmethod
    def _many_short_phases() -> WorkloadSpec:
        """38 phases of 2.51% plus a 4.62% tail: at 100 trace lines every
        short phase's share (2.51 lines) rounds up, so round-then-dump-drift
        -on-the-last-phase budgeting drove the tail's budget to -14 lines."""
        fraction = 0.0251
        count = 38
        phases = [
            PhaseSpec(name=f"p{index}", footprint_bytes=2048, duration_fraction=fraction)
            for index in range(count)
        ] + [
            PhaseSpec(
                name="tail", footprint_bytes=2048, duration_fraction=1.0 - fraction * count
            )
        ]
        return WorkloadSpec(
            name="pathological-split",
            benchmark_class=BenchmarkClass.PHASED,
            phases=phases,
        )

    def test_pathological_split_preserves_trace_length(self):
        spec = self._many_short_phases()
        total_instructions = 800  # 100 trace lines: the negative-budget case
        trace = generate_trace(spec, total_instructions=total_instructions)
        assert len(trace.line_addresses) == total_instructions // trace.instructions_per_line
        assert trace.num_instructions == total_instructions

    def test_budgets_are_non_negative_and_sum_exactly(self):
        from repro.workloads.generator import _phase_line_budget

        spec = self._many_short_phases()
        for total_lines in (40, 100, 199, 1000):
            budgets = _phase_line_budget(spec, total_lines)
            assert all(budget >= 0 for budget in budgets)
            assert sum(budgets) == total_lines

    def test_two_phase_budgets_track_duration_fractions(self):
        from repro.workloads.generator import _phase_line_budget

        spec = get_benchmark("hydro2d")
        budgets = _phase_line_budget(spec, 10_000)
        assert sum(budgets) == 10_000
        for phase, budget in zip(spec.phases, budgets):
            assert budget == pytest.approx(phase.duration_fraction * 10_000, abs=1)


class TestPhaseStructure:
    def test_phases_emit_in_order(self):
        spec = get_benchmark("hydro2d")  # init phase then compute phase
        trace = generate_trace(spec, total_instructions=160_000)
        addresses = trace.line_addresses
        early = addresses[: len(addresses) // 20]  # first 5%: inside the init phase
        late = addresses[-len(addresses) // 4 :]  # last quarter: the compute phase
        # The later (compute) phase lives in a higher address region than
        # the init phase because each phase gets its own code region.
        assert int(late.min()) > int(early.min())

    def test_phase_budgets_respected(self):
        spec = get_benchmark("hydro2d")
        trace = generate_trace(spec, total_instructions=160_000)
        init_fraction = spec.phases[0].duration_fraction
        boundary = int(len(trace.line_addresses) * init_fraction)
        init_addresses = trace.line_addresses[: max(1, boundary - 5)]
        # Virtually all early fetches come from the first phase's region
        # (scatter references may escape it).
        first_region_top = CODE_BASE_ADDRESS + (1 << 24)
        in_region = np.mean(init_addresses < first_region_top)
        assert in_region > 0.9


class TestStreamGolden:
    """Every generated stream is pinned: a generator rewrite must leave the
    bytes of all fifteen benchmark traces unchanged."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(STREAMS_GOLDEN_PATH.read_text())

    def test_fixture_covers_the_suite(self, golden):
        short = {(case["benchmark"], case["seed"]) for case in golden["streams"]
                 if case["instructions"] == 600_000}
        assert short == {(name, seed) for name in benchmark_names() for seed in (2001, 1999)}
        long = [case for case in golden["streams"] if case["instructions"] == 8_000_000]
        assert {case["benchmark"] for case in long} == {"li", "go", "gcc"}

    def test_streams_match_golden(self, golden):
        for case in golden["streams"]:
            trace = generate_trace(
                get_benchmark(case["benchmark"]),
                total_instructions=case["instructions"],
                seed=case["seed"],
            )
            assert trace.num_accesses == case["lines"], case
            assert stream_digest(trace.line_addresses) == case["sha256"], case

    @pytest.mark.parametrize("chunk_lines", [1_562, 125_000])
    def test_streamed_chunks_concatenate_to_the_trace(self, chunk_lines):
        for name in ("li", "go", "gcc"):
            expected = generate_trace(get_benchmark(name), total_instructions=8_000_000)
            chunks = list(
                stream_trace(get_benchmark(name), total_instructions=8_000_000).chunks(chunk_lines)
            )
            assert all(chunk.shape[0] == chunk_lines for chunk in chunks[:-1])
            assert np.array_equal(np.concatenate(chunks), expected.line_addresses), name


def reference_phase_segments(phase, phase_index, num_lines, line_size, rng):
    """Per-pick loop reference for ``_phase_segments``: the same RNG draws
    and segment boundaries, with each pick's lines built one pick at a time."""
    if num_lines <= 0:
        return []
    base_line = (CODE_BASE_ADDRESS + phase_index * PHASE_REGION_SPACING) // line_size
    layout = _loop_layout(phase, base_line, line_size, rng)
    weights = np.asarray(phase.normalized_weights, dtype=np.float64)
    expected = float(np.dot(weights, [size * repeats for _, size, repeats in layout]))
    batch_size = int(min(MAX_PICK_BATCH, max(1, round(SEGMENT_TARGET_LINES / expected))))
    scatter_lines = max(1, phase.scatter_footprint_bytes // line_size)
    scatter_base = (SCATTER_BASE_ADDRESS + phase_index * PHASE_REGION_SPACING) // line_size
    segments, emitted = [], 0
    while emitted < num_lines:
        lines = []
        for choice in rng.choice(len(layout), size=batch_size, p=weights):
            start, size, repeats = layout[choice]
            lines.extend(start + position % size for position in range(size * repeats))
        segment = np.array(lines[: num_lines - emitted], dtype=np.int64)
        emitted += segment.shape[0]
        if phase.scatter_rate > 0.0:
            mask = rng.random(segment.shape[0]) < phase.scatter_rate
            count = int(mask.sum())
            if count:
                segment[mask] = scatter_base + rng.integers(0, scatter_lines, size=count, dtype=np.int64)
        segments.append(segment.astype(np.uint64) * np.uint64(line_size))
    return segments


def _single_loop_spec(name: str, footprint_bytes: int, loop: LoopSpec) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        benchmark_class=BenchmarkClass.SMALL_FOOTPRINT,
        phases=[
            PhaseSpec(name="only", footprint_bytes=footprint_bytes, duration_fraction=1.0,
                      loops=(loop,), scatter_rate=0.02)
        ],
    )


class TestPerPickReference:
    """The vectorised generator equals a per-pick Python loop segment by
    segment: same RNG draws, same segment boundaries, same addresses."""

    CASES = {
        "simple": (simple_spec(), 80_000),
        "simple-scatter": (simple_spec(scatter_rate=0.05), 80_000),
        "aliased": (simple_spec(aliased=True, scatter_rate=0.01), 80_000),
        "hydro2d": (get_benchmark("hydro2d"), 600_000),
        # 20 lines over 39 phases: 19 phases get no lines at all.
        "pathological-split": (TestPhaseBudgets._many_short_phases(), 160),
        # One-line picks: the batch size is capped at MAX_PICK_BATCH.
        "tiny-loops": (_single_loop_spec("tiny", 64, LoopSpec(0.5, 1.0, repeats=1)), 80_000),
        # 2,048 lines x 20 repeats per pick exceeds SEGMENT_TARGET_LINES: batches of one.
        "huge-loop": (_single_loop_spec("huge", 64 * 1024, LoopSpec(1.0, 1.0, repeats=20)), 800_000),
    }

    @staticmethod
    def _segments(spec, instructions, build, seed=2001):
        """Each phase's segments as ``build`` yields them, drawing from the
        RNG ``GeneratedTraceSource`` seeds for ``spec``."""
        rng = np.random.default_rng((seed, zlib.crc32(spec.name.encode("utf-8"))))
        budgets = _phase_line_budget(spec, instructions // 8)
        return [
            list(build(phase, index, budget, 32, rng))
            for index, (phase, budget) in enumerate(zip(spec.phases, budgets))
        ]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_pick_reference(self, case):
        spec, instructions = self.CASES[case]
        generated = self._segments(spec, instructions, _phase_segments)
        expected = self._segments(spec, instructions, reference_phase_segments)
        for actual_phase, expected_phase in zip(generated, expected):
            assert [s.shape[0] for s in actual_phase] == [s.shape[0] for s in expected_phase]
            for actual, wanted in zip(actual_phase, expected_phase):
                assert actual.dtype == np.uint64
                assert np.array_equal(actual, wanted)
        trace = generate_trace(spec, total_instructions=instructions, seed=2001)
        assert np.array_equal(trace.line_addresses, np.concatenate(sum(generated, [])))

    def test_edge_cases_hit_their_batch_bounds(self):
        split = self._segments(self.CASES["pathological-split"][0], 160, _phase_segments)
        assert sum(1 for phase in split if not phase) == 19
        tiny = self._segments(*self.CASES["tiny-loops"], _phase_segments)[0]
        assert {s.shape[0] for s in tiny[:-1]} == {MAX_PICK_BATCH}
        huge = self._segments(*self.CASES["huge-loop"], _phase_segments)[0]
        assert {s.shape[0] for s in huge[:-1]} == {2_048 * 20}
        assert 2_048 * 20 > SEGMENT_TARGET_LINES
