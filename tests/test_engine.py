"""Tests for the batched simulation engine and the parallel sweep.

The batched engine's contract is *bit-identical* statistics versus the
scalar reference loop: same hit/miss/eviction counts, same DRI interval
records and resize trajectories, same cycle totals.  These tests exercise
that contract over the paper's benchmarks, random address streams, and a
seeded grid of random workload/parameter combinations, plus the
parallel-grid and engine-selection plumbing.
"""

from __future__ import annotations

import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from repro.config.parameters import DRIParameters, PolicySpec
from repro.config.system import CacheGeometry, SystemConfig
from repro.dri.controller import ResizeGroup
from repro.dri.dri_cache import DRIICache
from repro.dri.policies import policy_names
from repro.memory import cache as cache_module
from repro.memory.cache import Cache, CacheBank
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.kernels import NUMBA_AVAILABLE, numba_version
from repro.simulation.engine import (
    BANK_PROBES_PER_CALL,
    DEFAULT_CHUNK_ACCESSES,
    replay,
    replay_batched,
    replay_lockstep,
    resolve_engine,
)
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import generate_trace, stream_trace
from repro.workloads.phases import BenchmarkClass, LoopSpec, PhaseSpec, WorkloadSpec
from repro.workloads.source import TraceSource
from repro.workloads.spec95 import get_benchmark
from repro.workloads.trace import InstructionTrace

INSTRUCTIONS = 80_000
SEED = 7


def _cache_stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions, stats.invalidations)


def _interval_tuples(dri_stats):
    return [
        (
            record.index,
            record.instructions,
            record.accesses,
            record.misses,
            record.size_bytes_during,
            record.size_bytes_at_end,
            record.resized,
        )
        for record in dri_stats.intervals
    ]


def _simulators():
    scalar = Simulator(trace_instructions=INSTRUCTIONS, seed=SEED, engine="scalar")
    batched = Simulator(trace_instructions=INSTRUCTIONS, seed=SEED, engine="batched")
    return scalar, batched


class _CountingDRIICache(DRIICache):
    """A DRI cache that counts Python interval-boundary callbacks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.end_interval_calls = 0

    def end_interval(self, instructions=None):
        self.end_interval_calls += 1
        return super().end_interval(instructions)


class TestEngineSelection:
    def test_auto_resolves_to_batched(self):
        assert resolve_engine("auto") == "batched"
        assert Simulator(engine="auto").engine == "batched"

    def test_explicit_engines_kept(self):
        assert Simulator(engine="scalar").engine == "scalar"
        assert Simulator(engine="batched").engine == "batched"

    def test_unknown_engine_rejected(self):
        """Unknown names and the retired compiled engines are refused by
        the simulator, the selector, and ``replay`` alike."""
        system = SystemConfig()
        trace = generate_trace(get_benchmark("swim"), total_instructions=8_000, seed=SEED)
        for kind in ("vectorised", "kernel", "kernel-fused"):
            with pytest.raises(ValueError, match="engine must be one of"):
                Simulator(engine=kind)
            with pytest.raises(ValueError, match="engine must be one of"):
                resolve_engine(kind)
            with pytest.raises(ValueError, match="engine must be one of"):
                replay(
                    trace, Cache(system.l1_icache), MemoryHierarchy(system), 0.75, system,
                    engine=kind,
                )

    def test_concrete_engines_recorded_in_results(self):
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        for engine in ("scalar", "batched"):
            simulator = Simulator(trace_instructions=40_000, seed=SEED, engine=engine)
            assert simulator.run_dri("compress", parameters).engine == engine
            assert simulator.run_conventional("compress").engine == engine

    def test_auto_stats_identical_to_batched(self):
        auto = Simulator(trace_instructions=40_000, seed=SEED, engine="auto")
        batched = Simulator(trace_instructions=40_000, seed=SEED, engine="batched")
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        a = auto.run_dri("compress", parameters)
        b = batched.run_dri("compress", parameters)
        assert a.engine == "batched"
        assert (a.l1_accesses, a.l1_misses, a.cycles) == (b.l1_accesses, b.l1_misses, b.cycles)
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)

    def test_importing_repro_does_not_import_numba(self):
        """The package is numpy-only: nothing in its import graph may pull
        Numba in (``repro.memory.kernels`` only probes for it)."""
        code = (
            "import sys; sys.modules['numba'] = None; "
            "import repro, repro.simulation.engine, repro.memory.kernels; "
            "print('ok')"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_numba_version_reports_reality(self):
        version = numba_version()
        if NUMBA_AVAILABLE:
            assert isinstance(version, str) and version
        else:
            assert version is None


class TestConventionalEquivalence:
    @pytest.mark.parametrize("name", ["compress", "fpppp", "hydro2d"])
    def test_conventional_runs_identical(self, name):
        scalar, batched = _simulators()
        a = scalar.run_conventional(name)
        b = batched.run_conventional(name)
        assert (a.l1_accesses, a.l1_misses) == (b.l1_accesses, b.l1_misses)
        assert (a.l2_accesses, a.l2_misses) == (b.l2_accesses, b.l2_misses)
        assert a.cycles == b.cycles

    @pytest.mark.parametrize("size", [4 * 1024, 16 * 1024])
    def test_fixed_size_runs_identical(self, size):
        scalar, batched = _simulators()
        a = scalar.run_fixed_size("swim", size)
        b = batched.run_fixed_size("swim", size)
        assert (a.l1_misses, a.l2_accesses, a.cycles) == (b.l1_misses, b.l2_accesses, b.cycles)

    def test_set_associative_runs_identical(self):
        system = SystemConfig().with_icache(16 * 1024, associativity=4)
        scalar = Simulator(system=system, trace_instructions=40_000, engine="scalar")
        batched = Simulator(system=system, trace_instructions=40_000, engine="batched")
        a = scalar.run_conventional("swim")
        b = batched.run_conventional("swim")
        assert (a.l1_misses, a.l2_accesses, a.cycles) == (b.l1_misses, b.l2_accesses, b.cycles)


class TestDRIEquivalence:
    @pytest.mark.parametrize("name", ["compress", "fpppp", "hydro2d"])
    @pytest.mark.parametrize("miss_bound,size_bound", [(30, 1024), (80, 8192)])
    def test_dri_runs_identical(self, name, miss_bound, size_bound):
        parameters = DRIParameters(
            miss_bound=miss_bound, size_bound=size_bound, sense_interval=5_000
        )
        scalar, batched = _simulators()
        a = scalar.run_dri(name, parameters)
        b = batched.run_dri(name, parameters)
        assert (a.l1_accesses, a.l1_misses) == (b.l1_accesses, b.l1_misses)
        assert (a.l2_accesses, a.l2_misses) == (b.l2_accesses, b.l2_misses)
        assert a.cycles == b.cycles
        assert a.dri_stats.accesses == b.dri_stats.accesses
        assert a.dri_stats.misses == b.dri_stats.misses
        assert a.dri_stats.size_trajectory() == b.dri_stats.size_trajectory()
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)

    def test_dri_cache_without_dri_parameters_matches_across_engines(self):
        """Regression: replay of a DRI cache with dri=None takes no interval
        decisions in either engine — the scalar loop used to fire
        end_interval on every access.  Every access stays in one open
        interval, which ``finalize`` records at full size."""
        trace = generate_trace(
            get_benchmark("hydro2d"), total_instructions=40_000, seed=SEED
        )
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        system = SystemConfig()
        results = {}
        for engine in ("scalar", "batched"):
            icache = DRIICache(
                system.l1_icache,
                parameters,
                instructions_per_access=trace.instructions_per_line,
            )
            cycles = replay(
                trace, icache, MemoryHierarchy(system), 0.75, system, dri=None, engine=engine
            )
            assert icache.dri_stats.intervals == [], engine
            icache.finalize()
            results[engine] = (
                cycles,
                icache.stats.misses,
                _interval_tuples(icache.dri_stats),
            )
        assert results["scalar"] == results["batched"]
        (interval,) = results["scalar"][2]
        assert interval[2:] == (len(trace), results["scalar"][1], 65536, 65536, "none")

    @pytest.mark.parametrize("policy", sorted(policy_names()))
    def test_every_policy_runs_identical_across_engines(self, policy):
        """The bit-identity contract holds for the whole resize-policy zoo,
        not just the paper's miss-bound rule."""
        parameters = DRIParameters(
            miss_bound=30, size_bound=1024, sense_interval=5_000
        ).with_policy(policy)
        scalar, batched = _simulators()
        a = scalar.run_dri("hydro2d", parameters)
        b = batched.run_dri("hydro2d", parameters)
        assert (a.l1_accesses, a.l1_misses) == (b.l1_accesses, b.l1_misses)
        assert (a.l2_accesses, a.l2_misses) == (b.l2_accesses, b.l2_misses)
        assert a.cycles == b.cycles
        assert a.dri_stats.size_trajectory() == b.dri_stats.size_trajectory()
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)

    @pytest.mark.parametrize("policy", sorted(policy_names()))
    def test_trailing_partial_interval_matches_scalar(self, policy):
        """Regression: a trace whose length is not a multiple of the sense
        interval ends on a partial chunk; the batched loop must leave that
        interval open for ``finalize`` exactly as the scalar loop does —
        for every policy — rather than firing a short decision or dropping
        the tail from the statistics."""
        # 82_400 instructions = 10_300 accesses; 5_000-instruction interval
        # = 625 accesses: 16 full intervals plus a 300-access tail.
        parameters = DRIParameters(
            miss_bound=30, size_bound=1024, sense_interval=5_000
        ).with_policy(policy)
        results = {}
        for engine in ("scalar", "batched"):
            simulator = Simulator(
                trace_instructions=82_400, seed=SEED, engine=engine
            )
            results[engine] = simulator.run_dri("hydro2d", parameters)
        a, b = results["scalar"], results["batched"]
        assert len(a.dri_stats.intervals) == 17  # 16 decisions + finalized tail
        assert a.dri_stats.intervals[-1].accesses == 300
        assert a.dri_stats.intervals[-1].resized == "none"
        assert (a.l1_accesses, a.l1_misses, a.cycles) == (
            b.l1_accesses,
            b.l1_misses,
            b.cycles,
        )
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)

    def test_chunked_path_calls_end_interval_per_interval(self):
        """The batched engine pays one Python ``end_interval`` per closed
        interval and leaves the trailing partial one to ``finalize``."""
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        icache = _CountingDRIICache(
            system.l1_icache,
            parameters,
            address_bits=system.address_bits,
            instructions_per_access=trace.instructions_per_line,
        )
        replay_batched(trace, icache, MemoryHierarchy(system), 0.75, system, dri=parameters)
        icache.finalize()
        closed = sum(
            1
            for record in icache.dri_stats.intervals
            if record.accesses == icache.interval_length_accesses
        )
        assert icache.end_interval_calls == closed > 0

    def test_lockstep_group_closes_intervals_in_the_group_pass(self):
        """With more than one member, every complete interval closes in one
        ``ResizeGroup`` pass for all DRI members, never through their
        ``end_interval``; the trailing partial one is left to ``finalize``."""
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=INSTRUCTIONS + 2_000, seed=SEED
        )
        system = SystemConfig()
        members = []
        for miss_bound in (10, 30):
            parameters = DRIParameters(
                miss_bound=miss_bound, size_bound=1024, sense_interval=5_000
            )
            icache = _CountingDRIICache(
                system.l1_icache,
                parameters,
                address_bits=system.address_bits,
                instructions_per_access=trace.instructions_per_line,
            )
            members.append((icache, MemoryHierarchy(system), parameters))
        with mock.patch.object(
            ResizeGroup, "end_of_interval", autospec=True, side_effect=ResizeGroup.end_of_interval
        ) as passes:
            replay_lockstep(trace, members, 0.75, system)
        closed = len(trace) // members[0][0].interval_length_accesses
        assert passes.call_count == closed > 0
        for icache, _, _ in members:
            icache.finalize()
            assert icache.end_interval_calls == 0
            assert len(icache.dri_stats.intervals) == closed + 1

    def test_lockstep_members_forced_off_their_ladder_match_scalar(self):
        """A size forced between two rungs (1K to 64K by 4: 2K and 32K are
        no rungs) stays until the first resize (a hysteresis member waits
        three intervals), which steps to the neighbouring rung either way;
        32K sits just below the top rung, so its upsize is not clamped
        away.  Every member of the group still equals its scalar run."""
        trace = generate_trace(get_benchmark("li"), total_instructions=80_000, seed=SEED)
        system = SystemConfig()

        def member(miss_bound, size, policy="miss-bound"):
            parameters = DRIParameters(
                miss_bound=miss_bound, size_bound=1024, sense_interval=4_000, divisibility=4
            ).with_policy(policy)
            icache = DRIICache(
                system.l1_icache,
                parameters,
                address_bits=system.address_bits,
                instructions_per_access=trace.instructions_per_line,
            )
            icache.controller.force_size(size)
            return icache, MemoryHierarchy(system), parameters

        cases = [(0, 2048), (10_000, 2048), (0, 32768), (10_000, 32768), (20, 32768),
                 (20, 2048, "phase-detect"), (10_000, 32768, "hysteresis:consecutive=3"),
                 (20, 65536)]
        members = [member(*case) for case in cases]
        cycles = replay_lockstep(trace, members, 0.75, system)
        def _controller_state(icache):
            controller = icache.controller
            throttle = controller.throttle
            return (controller.current_size, controller._interval_index, throttle.counter,
                    throttle.hold_remaining, throttle.engagements)

        sizes_seen = set()
        for case, (icache, hierarchy, parameters), member_cycles in zip(cases, members, cycles):
            scalar, scalar_hierarchy, _ = member(*case)
            scalar_cycles = replay(
                trace, scalar, scalar_hierarchy, 0.75, system, dri=parameters, engine="scalar"
            )
            assert member_cycles == scalar_cycles
            assert _cache_stats_tuple(icache.stats) == _cache_stats_tuple(scalar.stats)
            assert _controller_state(icache) == _controller_state(scalar)
            icache.finalize()
            scalar.finalize()
            assert _interval_tuples(icache.dri_stats) == _interval_tuples(scalar.dri_stats)
            sizes_seen.update(icache.dri_stats.size_trajectory()[:2])
        assert members[6][0].dri_stats.size_trajectory()[:4] == [32768] * 3 + [16384]
        # Both off-ladder sizes ran, and each stepped both ways off them.
        assert {2048, 32768} <= sizes_seen
        assert {1024, 4096, 16384, 65536} <= sizes_seen

    def test_seeded_random_workload_grid(self):
        """Property check: random workloads x parameters agree across engines."""
        rng = np.random.default_rng(2001)
        for case in range(6):
            num_phases = int(rng.integers(1, 4))
            fractions = rng.dirichlet(np.ones(num_phases) * 4.0)
            phases = [
                PhaseSpec(
                    name=f"phase{index}",
                    footprint_bytes=int(rng.choice([2, 8, 24, 48])) * 1024,
                    duration_fraction=float(fraction),
                    loops=(
                        LoopSpec(size_fraction=0.6, weight=0.7, repeats=int(rng.integers(2, 6))),
                        LoopSpec(size_fraction=0.3, weight=0.3, repeats=2),
                    ),
                    scatter_rate=float(rng.choice([0.0, 0.02])),
                )
                for index, fraction in enumerate(fractions)
            ]
            spec = WorkloadSpec(
                name=f"random-{case}",
                benchmark_class=BenchmarkClass.PHASED,
                phases=phases,
            )
            trace = generate_trace(spec, total_instructions=40_000, seed=int(rng.integers(1, 99)))
            parameters = DRIParameters(
                miss_bound=int(rng.integers(5, 120)),
                size_bound=int(rng.choice([1024, 4096, 16384])),
                sense_interval=int(rng.choice([2_000, 5_000, 11_000])),
                divisibility=int(rng.choice([2, 4])),
            )
            scalar, batched = _simulators()
            a = scalar.run_dri(trace, parameters)
            b = batched.run_dri(trace, parameters)
            assert (a.l1_misses, a.l2_accesses, a.cycles) == (
                b.l1_misses,
                b.l2_accesses,
                b.cycles,
            ), f"case {case} diverged"
            assert a.dri_stats.size_trajectory() == b.dri_stats.size_trajectory()
            assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)


class TestSharedHistories:
    """Fresh lockstep members with one set-mask history share one leader:
    only leaders are classified and drain an L2, a group splits when its
    members' sizes part, and when the replay returns every member is where
    its own scalar run leaves it."""

    @staticmethod
    def _member(system, trace, parameters):
        if parameters is None:
            return Cache(system.l1_icache), MemoryHierarchy(system), None
        icache = DRIICache(
            system.l1_icache,
            parameters,
            address_bits=system.address_bits,
            instructions_per_access=trace.instructions_per_line,
        )
        return icache, MemoryHierarchy(system), parameters

    @staticmethod
    def _outcome(member, cycles):
        """Cycles, L1/L2/hierarchy counters and both planes; for a DRI run
        also its controller, throttle and open interval before
        ``finalize``, and every interval record after it."""
        icache, hierarchy, parameters = member
        outcome = (
            cycles,
            _cache_stats_tuple(icache.stats),
            _cache_stats_tuple(hierarchy.l2.stats),
            (hierarchy.l2_accesses, hierarchy.l2_misses, hierarchy.memory.accesses),
            icache._tag_plane.tolist(),
            hierarchy.l2._tag_plane.tolist(),
        )
        if parameters is None:
            return outcome
        controller = icache.controller
        throttle = controller.throttle
        outcome += (
            (controller.current_size, controller._interval_index),
            (throttle.counter, throttle.hold_remaining, throttle.engagements),
            (icache._interval_accesses, icache._interval_misses),
        )
        icache.finalize()
        return outcome + (icache.dri_stats.intervals,)

    def _assert_each_matches_scalar(self, system, trace, make_member, parameter_sets, members,
                                    cycles):
        for parameters, member, member_cycles in zip(parameter_sets, members, cycles):
            scalar = make_member(parameters)
            icache, hierarchy, dri = scalar
            scalar_cycles = replay(trace, icache, hierarchy, 0.75, system, dri, engine="scalar")
            assert self._outcome(member, member_cycles) == self._outcome(scalar, scalar_cycles)

    @staticmethod
    def _spy_drains():
        return mock.patch.object(
            MemoryHierarchy,
            "access_batch_from_l1_misses",
            autospec=True,
            side_effect=MemoryHierarchy.access_batch_from_l1_misses,
        )

    @pytest.mark.parametrize("ways", [1, 4], ids=["direct-mapped", "4-way"])
    def test_groups_split_where_sizes_part(self, ways):
        """All five start at 64K in one group led by the conventional run.
        The first downsize hands its rows to the 1K-bound run (another tag
        shift); the 4K-bound run leaves that group at its floor, and the
        64K-bound run and the copy never lead.  A drain every two
        intervals gives each split a used L2 to hand on."""
        system = SystemConfig().with_icache(64 * 1024, associativity=ways)
        trace = generate_trace(get_benchmark("li"), total_instructions=80_000, seed=SEED)

        def dri(size_bound):
            return DRIParameters(miss_bound=40, size_bound=size_bound, sense_interval=4_000)

        parameter_sets = [None, dri(64 * 1024), dri(1024), dri(4096), dri(1024)]
        members = [self._member(system, trace, parameters) for parameters in parameter_sets]
        splits = []
        set_masks = CacheBank.set_masks

        def record_splits(bank, rows, masks):
            pairs = set_masks(bank, rows, masks)
            splits.extend(pairs)
            return pairs

        with mock.patch.object(CacheBank, "set_masks", record_splits), mock.patch(
            "repro.simulation.engine.DEFAULT_CHUNK_ACCESSES", 1_000
        ), self._spy_drains() as drains:
            cycles = replay_lockstep(trace, members, 0.75, system)
        assert splits == [(0, 2), (2, 3)]
        drained = {id(call.args[0]) for call in drains.call_args_list}
        assert drained == {id(members[index][1]) for index in (0, 2, 3)}
        sizes = [members[index][0].dri_stats.size_trajectory() for index in (2, 3)]
        assert sizes[0] != sizes[1] and min(sizes[0]) < 4096 == min(sizes[1])

        self._assert_each_matches_scalar(
            system, trace, lambda parameters: self._member(system, trace, parameters),
            parameter_sets, members, cycles,
        )

    def test_a_used_member_never_shares(self):
        """A member whose L1 holds tags, or whose L2 has served misses, is
        its own leader beside fresh members of its set mask."""
        system = SystemConfig()
        trace = generate_trace(get_benchmark("li"), total_instructions=40_000, seed=SEED)
        used = np.random.default_rng(5).integers(0, 1 << 16, size=2_000).astype(np.uint64) * 32

        def make_member(kind):
            icache, hierarchy, _ = self._member(system, trace, None)
            if kind == "preloaded":
                # Each touched set holds the trace's first block there, a
                # neighbouring block, or nothing: first probes hit, evict
                # and fill.
                mask, shift = icache._index_key()
                blocks = (trace.line_addresses >> np.uint64(5)).astype(np.int64)
                sets, first = np.unique(blocks & mask, return_index=True)
                tags = blocks[first] >> shift
                draw = np.random.default_rng(15).random(sets.size)
                tags[draw < 0.25] = -1
                tags[draw > 0.75] += 1
                icache._tag_plane[sets, 0] = tags
            elif kind == "used L2":
                hierarchy.access_batch_from_l1_misses(used)
            return icache, hierarchy, None

        kinds = ["fresh", "preloaded", "used L2", "fresh"]
        members = [make_member(kind) for kind in kinds]
        with self._spy_drains() as drains:
            cycles = replay_lockstep(trace, members, 0.75, system)
        drained = {id(call.args[0]) for call in drains.call_args_list}
        assert drained == {id(members[index][1]) for index in (0, 1, 2)}
        assert members[1][0].stats.hits != members[0][0].stats.hits
        self._assert_each_matches_scalar(system, trace, make_member, kinds, members, cycles)

    def test_fresh_conventional_members_drain_once_per_drain_period(self):
        """Five copies of one run are one share group: one L2 drain per
        drain period serves all five."""
        system = SystemConfig()
        trace = generate_trace(get_benchmark("gcc"), total_instructions=600_000, seed=SEED)
        assert len(trace) > DEFAULT_CHUNK_ACCESSES
        members = [self._member(system, trace, None) for _ in range(5)]
        with self._spy_drains() as drains:
            cycles = replay_lockstep(trace, members, 0.75, system)
        assert drains.call_count == -(-len(trace) // DEFAULT_CHUNK_ACCESSES)
        self._assert_each_matches_scalar(
            system, trace, lambda parameters: self._member(system, trace, parameters),
            [None] * 5, members, cycles,
        )


class TestAccessBatch:
    def _random_addresses(self, rng, count=3_000, span=2**22):
        return (rng.integers(0, span, size=count, dtype=np.uint64) // 32) * 32

    def test_direct_mapped_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        addresses = self._random_addresses(rng)
        geometry = CacheGeometry(size_bytes=8 * 1024, block_size=32, associativity=1)
        reference = Cache(geometry)
        for address in addresses.tolist():
            reference.access(address)
        batched = Cache(geometry)
        hits = batched.access_batch(addresses)
        assert _cache_stats_tuple(batched.stats) == _cache_stats_tuple(reference.stats)
        assert int(hits.sum()) == reference.stats.hits
        # Final contents agree frame by frame.
        assert np.array_equal(batched._tag_plane, reference._tag_plane)

    def test_chunking_is_invariant(self):
        rng = np.random.default_rng(13)
        addresses = self._random_addresses(rng)
        geometry = CacheGeometry(size_bytes=4 * 1024, block_size=32, associativity=1)
        whole = Cache(geometry)
        hits_whole = whole.access_batch(addresses)
        pieces = Cache(geometry)
        collected = [pieces.access_batch(chunk) for chunk in np.array_split(addresses, 7)]
        assert np.array_equal(hits_whole, np.concatenate(collected))
        assert _cache_stats_tuple(whole.stats) == _cache_stats_tuple(pieces.stats)

    def test_mixed_scalar_and_batch_access(self):
        """Scalar accesses between batches keep the dense mirror coherent."""
        rng = np.random.default_rng(17)
        addresses = self._random_addresses(rng, count=1_200)
        geometry = CacheGeometry(size_bytes=2 * 1024, block_size=32, associativity=1)
        mixed = Cache(geometry)
        reference = Cache(geometry)
        for address in addresses.tolist():
            reference.access(address)
        third = len(addresses) // 3
        mixed.access_batch(addresses[:third])
        for address in addresses[third : 2 * third].tolist():
            mixed.access(address)
        mixed.access_batch(addresses[2 * third :])
        assert _cache_stats_tuple(mixed.stats) == _cache_stats_tuple(reference.stats)
        assert np.array_equal(mixed._tag_plane, reference._tag_plane)

    def test_batch_on_dri_cache_matches_scalar(self):
        """A DRI cache's ``access_batch`` over each sense interval equals its
        ``access`` loop, with the intervals closed at the same points."""
        rng = np.random.default_rng(19)
        addresses = self._random_addresses(rng, count=2_500, span=2**18)
        geometry = CacheGeometry(size_bytes=8 * 1024, block_size=32, associativity=1)
        parameters = DRIParameters(miss_bound=20, size_bound=1024, sense_interval=300)
        scalar_cache = DRIICache(geometry, parameters)
        batched_cache = DRIICache(geometry, parameters)
        # 2,500 accesses: eight 300-access intervals and a 100-access tail.
        for start in range(0, len(addresses), 300):
            interval = addresses[start : start + 300]
            for address in interval.tolist():
                scalar_cache.access(address)
            batched_cache.access_batch(interval)
            for cache in (scalar_cache, batched_cache):
                if len(interval) == 300:
                    cache.end_interval()
                else:
                    cache.finalize()
        assert len(scalar_cache.dri_stats.intervals) == 9
        assert _cache_stats_tuple(batched_cache.stats) == _cache_stats_tuple(scalar_cache.stats)
        assert (
            batched_cache.dri_stats.size_trajectory()
            == scalar_cache.dri_stats.size_trajectory()
        )
        assert _interval_tuples(batched_cache.dri_stats) == _interval_tuples(
            scalar_cache.dri_stats
        )
        assert batched_cache.current_size_bytes == scalar_cache.current_size_bytes

    def test_empty_batch_is_a_noop(self):
        cache = Cache(CacheGeometry(size_bytes=1024, block_size=32, associativity=1))
        hits = cache.access_batch(np.empty(0, dtype=np.uint64))
        assert hits.shape == (0,)
        assert cache.stats.accesses == 0

    def test_rejects_multidimensional_input(self):
        cache = Cache(CacheGeometry(size_bytes=1024, block_size=32, associativity=1))
        with pytest.raises(ValueError):
            cache.access_batch(np.zeros((2, 2), dtype=np.uint64))


class TestSetAssociativeEquivalence:
    """The wavefront classifier is bit-identical to the scalar reference
    at every associativity: same statistics, same eviction counts, same
    per-access hit outcomes, same final contents in the same recency order."""

    def _mixed_trace(self, rng, loop_lines=64, loop_repeats=40, scatter=2_000, span=2**20):
        """Scattered accesses around a hot loop: exercises empty-way fills,
        policy victims, in-chunk reuse, and the wavefront/tail boundary."""
        loop = np.tile(
            (rng.integers(0, span // 16, size=loop_lines, dtype=np.uint64) // 32) * 32,
            loop_repeats,
        )
        noise = (rng.integers(0, span, size=scatter, dtype=np.uint64) // 32) * 32
        return np.concatenate([noise, loop, noise])

    # Case ids name the replacement (LRU, the only one) and the associativity.
    @pytest.mark.parametrize("associativity", [2, 4, 8], ids=lambda a: f"lru-{a}")
    def test_randomized_traces_match_scalar(self, associativity):
        rng = np.random.default_rng(100 + associativity)
        addresses = self._mixed_trace(rng)
        geometry = CacheGeometry(
            size_bytes=8 * 1024, block_size=32, associativity=associativity
        )
        reference = Cache(geometry)
        reference_hits = np.array(
            [reference.access(address).hit for address in addresses.tolist()]
        )
        batched = Cache(geometry)
        hits = np.concatenate(
            [batched.access_batch(chunk) for chunk in np.array_split(addresses, 5)]
        )
        assert np.array_equal(hits, reference_hits)
        assert _cache_stats_tuple(batched.stats) == _cache_stats_tuple(reference.stats)
        assert np.array_equal(batched._tag_plane, reference._tag_plane)

    @pytest.mark.parametrize("associativity", [4], ids=["lru"])
    def test_single_hot_set_takes_the_scalar_tail(self, associativity):
        """A chunk dominated by one set exceeds the wavefront width cutoff
        and must finish on the scalar tail with identical results."""
        rng = np.random.default_rng(23)
        geometry = CacheGeometry(
            size_bytes=2 * 1024, block_size=32, associativity=associativity
        )
        # 16 sets: every address maps to set 3, tags drawn from a small pool.
        tags = rng.integers(0, 9, size=4_000, dtype=np.uint64)
        addresses = (tags << np.uint64(9)) | np.uint64(3 << 5)
        reference = Cache(geometry)
        reference_hits = np.array(
            [reference.access(address).hit for address in addresses.tolist()]
        )
        batched = Cache(geometry)
        hits = batched.access_batch(addresses)
        assert np.array_equal(hits, reference_hits)
        assert _cache_stats_tuple(batched.stats) == _cache_stats_tuple(reference.stats)
        assert np.array_equal(batched._tag_plane, reference._tag_plane)

    @pytest.mark.parametrize("associativity", [2, 4], ids=lambda a: f"lru-{a}")
    def test_replay_engines_match_on_policies(self, associativity):
        """Full-replay equivalence (L1 + batched L2 drain) on a
        set-associative L1 under its replacement policy."""
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=40_000, seed=SEED
        )
        system = SystemConfig().with_icache(16 * 1024, associativity=associativity)
        outcomes = {}
        for engine in ("scalar", "batched"):
            icache = Cache(system.l1_icache, name="L1I")
            hierarchy = MemoryHierarchy(system)
            cycles = replay(
                trace, icache, hierarchy, 0.75, system, dri=None, engine=engine
            )
            outcomes[engine] = (
                cycles,
                _cache_stats_tuple(icache.stats),
                hierarchy.l2_accesses,
                hierarchy.l2_misses,
                hierarchy.memory.accesses,
            )
        assert outcomes["scalar"] == outcomes["batched"]

    def test_dri_four_way_matches_scalar(self):
        """The Figure 6 64K 4-way DRI configuration takes the vectorised
        masked-index path and stays bit-identical to the scalar engine."""
        system = SystemConfig().with_icache(64 * 1024, associativity=4)
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        scalar = Simulator(system=system, trace_instructions=INSTRUCTIONS, seed=SEED, engine="scalar")
        batched = Simulator(system=system, trace_instructions=INSTRUCTIONS, seed=SEED, engine="batched")
        a = scalar.run_dri("li", parameters)
        b = batched.run_dri("li", parameters)
        assert (a.l1_accesses, a.l1_misses) == (b.l1_accesses, b.l1_misses)
        assert (a.l2_accesses, a.l2_misses) == (b.l2_accesses, b.l2_misses)
        assert a.cycles == b.cycles
        assert a.dri_stats.size_trajectory() == b.dri_stats.size_trajectory()
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)


class TestSenseIntervalUnits:
    """Regression: the sense interval means *instructions*, whoever closes it."""

    def test_auto_and_manual_driving_agree(self):
        """The engines close intervals where a hand-written loop does."""
        trace = generate_trace(
            get_benchmark("hydro2d"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        per_line = trace.instructions_per_line

        manual = DRIICache(
            CacheGeometry(size_bytes=64 * 1024, associativity=1),
            parameters,
            instructions_per_access=per_line,
        )
        interval_accesses = parameters.sense_interval // per_line
        since = 0
        for address in trace.addresses():
            manual.access(address)
            since += 1
            if since >= interval_accesses:
                manual.end_interval(instructions=since * per_line)
                since = 0
        assert len(manual.dri_stats.intervals) == 16
        system = SystemConfig()
        for engine in ("scalar", "batched"):
            driven = DRIICache(
                system.l1_icache,
                parameters,
                instructions_per_access=per_line,
            )
            replay(trace, driven, MemoryHierarchy(system), 0.75, system, dri=parameters,
                   engine=engine)
            assert driven.dri_stats.size_trajectory() == manual.dri_stats.size_trajectory()
            assert _interval_tuples(driven.dri_stats) == _interval_tuples(manual.dri_stats)

    def test_interval_length_is_in_instructions(self):
        """With 8 instructions per access, an 800-instruction interval closes
        after 100 accesses — not after 800 accesses as the pre-fix accounting
        (an 8x discrepancy between drive modes) would have it."""
        parameters = DRIParameters(miss_bound=10_000, size_bound=1024, sense_interval=800)
        system = SystemConfig(l1_icache=CacheGeometry(size_bytes=8 * 1024, associativity=1))
        trace = InstructionTrace(
            name="lines", line_addresses=np.arange(100, dtype=np.uint64) * 32,
            instructions_per_line=8,
        )
        for engine in ("scalar", "batched"):
            cache = DRIICache(system.l1_icache, parameters, instructions_per_access=8)
            assert cache.interval_length_accesses == 100
            replay(trace, cache, MemoryHierarchy(system), 0.75, system, dri=parameters,
                   engine=engine)
            assert len(cache.dri_stats.intervals) == 1, engine
            assert cache.dri_stats.intervals[0].accesses == 100
            assert cache.dri_stats.intervals[0].instructions == 800

    def test_finalize_scales_instructions_by_access_width(self):
        parameters = DRIParameters(miss_bound=10, size_bound=1024, sense_interval=8_000)
        cache = DRIICache(
            CacheGeometry(size_bytes=8 * 1024, associativity=1),
            parameters,
            instructions_per_access=8,
        )
        for index in range(5):
            cache.access(index * 32)
        cache.finalize()
        assert cache.dri_stats.intervals[0].instructions == 40

    def test_rejects_non_positive_instructions_per_access(self):
        with pytest.raises(ValueError):
            DRIICache(
                CacheGeometry(size_bytes=8 * 1024, associativity=1),
                DRIParameters(),
                instructions_per_access=0,
            )


class TestMisalignedSource:
    """A source that over-yields must fail loudly, not corrupt intervals."""

    class _OverlongSource(TraceSource):
        """Yields one chunk longer than whatever length was requested."""

        def __init__(self, trace):
            self.trace = trace
            self.name = trace.name
            self.instructions_per_line = trace.instructions_per_line
            self.line_size = trace.line_size

        @property
        def num_accesses(self):
            return len(self.trace)

        def chunks(self, chunk_accesses=1 << 16):
            yield self.trace.line_addresses

    def test_overlong_chunk_raises_value_error(self):
        """The batched engine trusts the source for interval alignment; a
        source that yields more than the requested chunk length would
        silently mis-place every later resize decision, so it must raise
        a real ValueError (not an ``assert``, which ``python -O``
        strips)."""
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=20_000, seed=SEED
        )
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        simulator = Simulator(trace_instructions=INSTRUCTIONS, seed=SEED, engine="batched")
        with pytest.raises(ValueError, match="more than the requested chunk length"):
            simulator.run_dri_trace(self._OverlongSource(trace), 0.75, parameters)

    def test_short_chunks_subdividing_the_interval_are_fine(self):
        """Under-yielding is legal when the short chunks still tile the
        interval: they accumulate into the open interval and decisions
        land at the same points as the scalar loop's."""
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=20_000, seed=SEED
        )

        class ShortChunkSource(TraceSource):
            def __init__(self, inner):
                self.trace = inner
                self.name = inner.name
                self.instructions_per_line = inner.instructions_per_line
                self.line_size = inner.line_size

            @property
            def num_accesses(self):
                return len(self.trace)

            def chunks(self, chunk_accesses=1 << 16):
                addresses = self.trace.line_addresses
                # A divisor of the requested length, so whole intervals
                # are assembled from several short chunks.
                step = max(1, chunk_accesses // 5)
                for start in range(0, addresses.shape[0], step):
                    yield addresses[start : start + step]

        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        batched = Simulator(trace_instructions=INSTRUCTIONS, seed=SEED, engine="batched")
        scalar = Simulator(trace_instructions=INSTRUCTIONS, seed=SEED, engine="scalar")
        a = batched.run_dri_trace(ShortChunkSource(trace), 0.75, parameters)
        b = scalar.run_dri_trace(trace, 0.75, parameters)
        assert (a.cycles, a.l1_misses) == (b.cycles, b.l1_misses)
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)


class TestBufferReusingSource:
    """A source may refill one buffer for every piece it yields: the
    batched engine keeps copies of the misses it has not drained, never a
    yielded piece."""

    class _RefillingSource(TraceSource):
        """Copies each piece of a trace into one buffer and yields a view
        of it, overwriting the previous piece."""

        def __init__(self, trace):
            self.trace = trace
            self.name = trace.name
            self.instructions_per_line = trace.instructions_per_line
            self.line_size = trace.line_size

        @property
        def num_accesses(self):
            return len(self.trace)

        def chunks(self, chunk_accesses=1 << 16):
            addresses = self.trace.line_addresses
            buffer = np.empty(chunk_accesses, dtype=np.uint64)
            for start in range(0, addresses.shape[0], chunk_accesses):
                piece = addresses[start : start + chunk_accesses]
                buffer[: piece.shape[0]] = piece
                yield buffer[: piece.shape[0]]

    def test_refilled_pieces_replay_like_the_materialised_trace(self):
        """Conventional plus miss-bound 20 and 200 on gcc: 96 intervals
        over more than two drain periods, so undrained misses outlive the
        pieces they came from.  Lockstep and single runs on the refilling
        source equal the lockstep runs on the trace itself."""
        trace = generate_trace(get_benchmark("gcc"), total_instructions=1_200_000, seed=2001)
        parameter_sets = [None] + [
            DRIParameters(miss_bound=miss_bound, size_bound=1024, sense_interval=12_500)
            for miss_bound in (20, 200)
        ]
        simulator = Simulator(engine="batched")

        def key(result):
            intervals = _interval_tuples(result.dri_stats) if result.dri_stats else None
            return (result.cycles, result.l1_accesses, result.l1_misses,
                    result.l2_accesses, result.l2_misses, intervals)

        expected = [key(result) for result in simulator.run_many(trace, 0.75, parameter_sets)]
        source = self._RefillingSource(trace)
        lockstep = simulator.run_many(source, 0.75, parameter_sets)
        assert [key(result) for result in lockstep] == expected
        singles = [simulator.run_many(source, 0.75, [parameters])[0] for parameters in parameter_sets]
        assert [key(result) for result in singles] == expected


class TestDeferredL2Drain:
    """The batched engine buffers L1 misses across sense intervals and
    drains them through the L2 once per ``DEFAULT_CHUNK_ACCESSES``
    classified accesses.  These replays are longer than one drain period,
    so mid-run drains happen and must leave the L2 exactly where the
    scalar loop leaves it."""

    @staticmethod
    def _replay(engine, trace, system, icache, monkeypatch, dri=None):
        """Replay on a fresh hierarchy; returns the outcome to compare and
        the size of every batched L2 drain call."""
        from repro.memory.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(system)
        drain_sizes = []
        drain = hierarchy.access_batch_from_l1_misses

        def counting_drain(addresses):
            drain_sizes.append(int(addresses.shape[0]))
            return drain(addresses)

        monkeypatch.setattr(hierarchy, "access_batch_from_l1_misses", counting_drain)
        cycles = engine(trace, icache, hierarchy, 0.75, system, dri=dri)
        if isinstance(icache, DRIICache):
            icache.finalize()
        outcome = (
            cycles,
            _cache_stats_tuple(icache.stats),
            _cache_stats_tuple(hierarchy.l2.stats),
            (hierarchy.l2_accesses, hierarchy.l2_misses, hierarchy.memory.accesses),
            hierarchy.l2._tag_plane.tolist(),
        )
        if isinstance(icache, DRIICache):
            outcome += (_interval_tuples(icache.dri_stats),)
        return outcome, drain_sizes

    def test_dri_replay_drains_once_per_drain_period(self, monkeypatch):
        from repro.simulation.engine import (
            DEFAULT_CHUNK_ACCESSES,
            replay_batched,
            replay_scalar,
        )

        trace = generate_trace(
            get_benchmark("gcc"), total_instructions=1_600_000, seed=SEED
        )
        fetches = len(trace)
        assert fetches == 200_000
        system = SystemConfig()
        # 1,000-fetch sense intervals: 200 boundaries, far more than drains.
        parameters = DRIParameters(
            miss_bound=40,
            size_bound=1024,
            sense_interval=1_000 * trace.instructions_per_line,
        )

        def dri_cache():
            return DRIICache(
                system.l1_icache,
                parameters,
                address_bits=system.address_bits,
                instructions_per_access=trace.instructions_per_line,
            )

        batched, drain_sizes = self._replay(
            replay_batched, trace, system, dri_cache(), monkeypatch, dri=parameters
        )
        scalar, _ = self._replay(
            replay_scalar, trace, system, dri_cache(), monkeypatch, dri=parameters
        )
        assert len(drain_sizes) <= -(-fetches // DEFAULT_CHUNK_ACCESSES) + 1
        assert sum(drain_sizes) == batched[1][2]  # every L1 miss drained once
        assert batched == scalar
        intervals = batched[-1]
        assert len(intervals) == 200
        assert any(record[6] != "none" for record in intervals)  # it resized

    def test_conventional_replay_longer_than_a_drain_period(self, monkeypatch):
        from repro.simulation.engine import (
            DEFAULT_CHUNK_ACCESSES,
            replay_batched,
            replay_scalar,
        )

        trace = generate_trace(get_benchmark("gcc"), total_instructions=1_200_000, seed=SEED)
        assert len(trace) > 2 * DEFAULT_CHUNK_ACCESSES
        system = SystemConfig().with_icache(16 * 1024, associativity=1)
        batched, drain_sizes = self._replay(
            replay_batched, trace, system, Cache(system.l1_icache), monkeypatch
        )
        scalar, _ = self._replay(
            replay_scalar, trace, system, Cache(system.l1_icache), monkeypatch
        )
        assert len(drain_sizes) == -(-len(trace) // DEFAULT_CHUNK_ACCESSES)
        assert batched == scalar


class TestStreamedPieces:
    """The lockstep engine reads its source in pieces of at most
    ``BANK_PROBES_PER_CALL`` accesses and splits a piece that straddles a
    sense-interval boundary.  Here the interval (25,001 accesses) is longer
    than the cap and not a multiple of it, as the paper's 125,000-access
    interval is."""

    INTERVAL = 25_001

    @staticmethod
    def _drain_plan(length, interval, trajectories, misses_at):
        """The ``(member, size)`` L2 drain calls the drain rule gives.

        A drain is due at the end of a piece that completes an interval
        once ``DEFAULT_CHUNK_ACCESSES`` accesses are pending, before that
        interval closes, plus once at the end.  Only leaders drain, in
        member order; members whose sizes have agreed in every interval so
        far share one, the first of them.  A leader drains its own misses
        since the last drain (a split's new leader follows its old leader
        until then), and a drain with no misses makes no call.
        """
        due = list(range(interval, length + 1, interval))
        cuts, start = [], 0
        for end in due:
            if end - start >= DEFAULT_CHUNK_ACCESSES:
                cuts.append((start, end, end // interval))
                start = end
        if start < length:
            cuts.append((start, length, len(trajectories[0])))
        plan = []
        for start, end, intervals in cuts:
            leaders = {}
            for member, sizes in enumerate(trajectories):
                leaders.setdefault(tuple(sizes[:intervals]), member)
            for member in sorted(leaders.values()):
                at = misses_at[member]
                size = int(np.count_nonzero((start <= at) & (at < end)))
                if size:
                    plan.append((member, size))
        return plan

    def test_intervals_longer_than_the_probe_cap_match_scalar(self):
        """A conventional run and two DRI runs (which share the
        conventional run's history, then their own, then part) equal their
        scalar runs, interval records included.  No classifier call gets
        more than the cap, and the L2 drains are exactly the rule's."""
        system = SystemConfig()
        source = stream_trace(get_benchmark("li"), total_instructions=2_000_000, seed=SEED)
        interval = self.INTERVAL
        assert interval > BANK_PROBES_PER_CALL and interval % BANK_PROBES_PER_CALL
        # Both DRI runs leave the conventional run's group at the first
        # boundary and part where the 16K bound stops the second, at a
        # boundary where a drain is due.
        parameter_sets = [None] + [
            DRIParameters(miss_bound=480, size_bound=size_bound, sense_interval=interval * 8)
            for size_bound in (1024, 16 * 1024)
        ]

        def make_member(parameters):
            return TestSharedHistories._member(system, source, parameters)

        members = [make_member(parameters) for parameters in parameter_sets]
        rows = {id(hierarchy): row for row, (_, hierarchy, _) in enumerate(members)}
        classified, passes, drains = [], [], []
        classify = CacheBank.classify
        dm_pass = cache_module._direct_mapped_pass
        drain = MemoryHierarchy.access_batch_from_l1_misses

        def spy_classify(bank, addresses, max_probes):
            classified.append(addresses.shape[0])
            return classify(bank, addresses, max_probes)

        def spy_pass(blocks, mask):
            passes.append(blocks.shape[0])
            return dm_pass(blocks, mask)

        def spy_drain(hierarchy, addresses):
            drains.append((rows[id(hierarchy)], addresses.shape[0]))
            return drain(hierarchy, addresses)

        with mock.patch.object(CacheBank, "classify", spy_classify), mock.patch.object(
            cache_module, "_direct_mapped_pass", spy_pass
        ), mock.patch.object(MemoryHierarchy, "access_batch_from_l1_misses", spy_drain):
            cycles = replay_lockstep(source, members, 0.75, system)

        assert sum(classified) == source.num_accesses
        assert max(classified) == max(passes) == BANK_PROBES_PER_CALL
        assert min(classified) < BANK_PROBES_PER_CALL  # straddling pieces were split

        misses_at = []
        for parameters, member, member_cycles in zip(parameter_sets, members, cycles):
            icache, hierarchy, dri = make_member(parameters)
            positions = []
            miss = hierarchy.access_from_l1_miss

            def record_miss(address, icache=icache, positions=positions, miss=miss):
                positions.append(icache.stats.accesses - 1)
                return miss(address)

            hierarchy.access_from_l1_miss = record_miss
            scalar_cycles = replay(source, icache, hierarchy, 0.75, system, dri, engine="scalar")
            del hierarchy.access_from_l1_miss
            misses_at.append(np.array(positions))
            scalar = TestSharedHistories._outcome((icache, hierarchy, dri), scalar_cycles)
            assert TestSharedHistories._outcome(member, member_cycles) == scalar

        trajectories = [
            [system.l1_icache.size_bytes] * len(members[1][0].dri_stats.intervals)
        ] + [icache.dri_stats.size_trajectory() for icache, _, _ in members[1:]]
        assert trajectories[1][:3] == trajectories[2][:3] != trajectories[0][:3]
        assert trajectories[1][3] != trajectories[2][3]
        plan = self._drain_plan(source.num_accesses, interval, trajectories, misses_at)
        assert drains == plan
        assert len({member for member, _ in plan}) == 3


class TestParallelSweep:
    def _sweep(self, **kwargs) -> ParameterSweep:
        simulator = Simulator(trace_instructions=INSTRUCTIONS, seed=SEED)
        return ParameterSweep(
            simulator, base_parameters=DRIParameters(sense_interval=5_000), **kwargs
        )

    def test_parallel_grid_matches_serial(self):
        miss_bounds = (10, 80)
        size_bounds = (1024, 8192, 65536)
        serial = self._sweep().grid(
            "compress", miss_bounds=miss_bounds, size_bounds=size_bounds
        )
        with self._sweep(jobs=2) as sweep:
            parallel = sweep.grid("compress", miss_bounds=miss_bounds, size_bounds=size_bounds)
        assert len(serial.points) == len(parallel.points)
        for a, b in zip(serial.points, parallel.points):
            assert a.parameters == b.parameters
            assert a.simulation.l1_misses == b.simulation.l1_misses
            assert a.simulation.cycles == b.simulation.cycles
            assert a.energy_delay == pytest.approx(b.energy_delay, abs=0.0)
            assert (
                a.simulation.dri_stats.size_trajectory()
                == b.simulation.dri_stats.size_trajectory()
            )

    def test_best_configuration_parallel_matches_serial(self):
        miss_bounds = (10, 80)
        size_bounds = (1024, 65536)
        params_serial, point_serial = self._sweep().best_configuration(
            "compress", miss_bounds=miss_bounds, size_bounds=size_bounds
        )
        with self._sweep(jobs=2) as sweep:
            params_parallel, point_parallel = sweep.best_configuration(
                "compress", miss_bounds=miss_bounds, size_bounds=size_bounds
            )
        assert params_serial == params_parallel
        assert point_serial.energy_delay == pytest.approx(point_parallel.energy_delay, abs=0.0)

    def test_grid_memoizes_repeat_evaluations(self):
        sweep = self._sweep()
        sweep.grid("compress", miss_bounds=(10,), size_bounds=(1024,))
        cached_before = len(sweep._dri_cache)
        sweep.grid("compress", miss_bounds=(10,), size_bounds=(1024,))
        assert len(sweep._dri_cache) == cached_before

    def test_constructor_jobs_default_is_used(self):
        with self._sweep(jobs=2) as sweep:
            result = sweep.grid("compress", miss_bounds=(10, 80), size_bounds=(1024,))
            assert sweep._executor is not None and sweep._executor.jobs == 2
        assert len(result.points) == 2

    def test_grid_many_matches_individual_grids(self):
        """The flattened cross-benchmark pool returns exactly what
        per-benchmark serial grids return."""
        names = ["compress", "li"]
        serial_sweep = self._sweep()
        individual = {
            name: serial_sweep.grid(name, miss_bounds=(10, 80), size_bounds=(1024, 8192))
            for name in names
        }
        with self._sweep(jobs=2) as sweep:
            many = sweep.grid_many(names, miss_bounds=(10, 80), size_bounds=(1024, 8192))
        assert list(many) == names
        for name in names:
            for a, b in zip(individual[name].points, many[name].points):
                assert a.parameters == b.parameters
                assert a.simulation.l1_misses == b.simulation.l1_misses
                assert a.simulation.cycles == b.simulation.cycles
                assert a.energy_delay == pytest.approx(b.energy_delay, abs=0.0)

    def test_evaluate_many_matches_serial_evaluates(self):
        parameters = [
            DRIParameters(miss_bound=10, size_bound=1024, sense_interval=5_000),
            DRIParameters(miss_bound=80, size_bound=8192, sense_interval=5_000),
        ]
        pairs = [(name, p) for name in ("compress", "swim") for p in parameters]
        serial_sweep = self._sweep()
        serial = [serial_sweep.evaluate(name, p) for name, p in pairs]
        with self._sweep(jobs=2) as sweep:
            parallel = sweep.evaluate_many(pairs)
        for a, b in zip(serial, parallel):
            assert a.parameters == b.parameters
            assert a.simulation.l1_misses == b.simulation.l1_misses
            assert a.energy_delay == pytest.approx(b.energy_delay, abs=0.0)

    def test_memo_distinguishes_policies_on_same_bounds(self):
        """Regression: two policies on identical bounds must occupy distinct
        memo entries — a memo key that ignored the policy would silently
        return the first policy's results for every other policy."""
        sweep = self._sweep()
        base = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        specs = [PolicySpec.create("miss-bound"), PolicySpec.create("phase-detect")]
        from dataclasses import replace

        points = [
            sweep.evaluate("hydro2d", replace(base, policy=spec)) for spec in specs
        ]
        assert len(sweep._dri_cache) == 2
        # The two policies genuinely behave differently on this workload,
        # so aliased memo entries would be observable here too.
        assert (
            points[0].simulation.dri_stats.size_trajectory()
            != points[1].simulation.dri_stats.size_trajectory()
        )
        # Re-evaluating hits the memo and returns the matching policy's run.
        again = sweep.evaluate("hydro2d", replace(base, policy=specs[1]))
        assert len(sweep._dri_cache) == 2
        assert (
            again.simulation.dri_stats.size_trajectory()
            == points[1].simulation.dri_stats.size_trajectory()
        )

    def test_prefetch_counts_and_memoizes(self):
        sweep = self._sweep()
        parameters = DRIParameters(miss_bound=10, size_bound=1024, sense_interval=5_000)
        pairs = [("compress", None), ("compress", parameters)]
        assert sweep.prefetch(pairs) == 2
        # Everything is memoized now; a second prefetch runs nothing.
        assert sweep.prefetch(pairs) == 0
