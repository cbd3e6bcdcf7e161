"""Tests for the fused DRI interval-loop engine and the engine selector.

The fused engine (DESIGN.md §12) carries the batched engine's
bit-identity contract plus three extras of its own:

* **whole-cycle parity** — one compiled call per trace chunk covers
  classification, interval boundaries, the resize decision, throttling,
  set gating, and the L2 drain, and must leave every statistic AND every
  state array (tag planes, LRU ranks, throttle state, current size) equal
  to the scalar oracle's — including trailing partial intervals and
  chunk cuts that land mid-interval;
* **zero Python per interval** — on the fused path ``end_interval`` is
  never called (the counter smoke below pins it);
* **transparent per-run fallback** — runs the fused loop cannot take
  (non-compilable policies, conventional replays) execute on the batched
  engine, and results/memo keys record the engine that actually ran.

The selector's fused-engine guard is pinned here too: ``engine="auto"``
without Numba resolves to the batched engine, and an *explicit*
``engine="kernel-fused"`` without Numba raises a clear error naming the
``[kernel]`` install extra.  The rest of the runtime guard (the import
graph, ``numba_version``, the warm-pool plumbing) is pinned in
``tests/test_kernels.py``.

Without Numba the suite runs the bit-identical pure-Python fallback
(``kernel_jit`` is the identity decorator); the CI ``kernel`` job runs
the same tests compiled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.parameters import DRIParameters, ThrottleConfig
from repro.config.system import CacheGeometry, SystemConfig
from repro.dri.dri_cache import DRIICache
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import (
    ENGINE_KINDS,
    engine_for_run,
    replay_batched,
    replay_fused,
    replay_scalar,
    resolve_engine,
)
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import generate_trace
from repro.workloads.source import TraceSource
from repro.workloads.spec95 import get_benchmark

INSTRUCTIONS = 80_000
SEED = 11


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


class _RaggedSource(TraceSource):
    """A source that ignores the requested chunk length entirely.

    Yields chunks in a fixed ragged cycle (sized so none aligns with any
    sense interval), which is legal for the fused engine — its interval
    state carries across calls — and exactly the shape that exposes a
    mid-interval chunk-cut bug.
    """

    def __init__(self, trace, cuts=(777, 1234, 65, 3001)):
        self.trace = trace
        self.name = trace.name
        self.instructions_per_line = trace.instructions_per_line
        self.line_size = trace.line_size
        self.cuts = cuts

    @property
    def num_accesses(self):
        return len(self.trace)

    def chunks(self, chunk_accesses=1 << 16):
        addresses = self.trace.line_addresses
        position = 0
        index = 0
        while position < addresses.shape[0]:
            take = self.cuts[index % len(self.cuts)]
            index += 1
            yield addresses[position : position + take]
            position += take


def _run_dri(engine_fn, trace, system, parameters):
    """One manual-interval DRI replay; returns (cycles, icache, hierarchy)."""
    icache = DRIICache(
        system.l1_icache,
        parameters,
        address_bits=system.address_bits,
        auto_interval=False,
        instructions_per_access=trace.instructions_per_line,
    )
    hierarchy = MemoryHierarchy(system)
    cycles = engine_fn(trace, icache, hierarchy, 0.75, system, dri=parameters)
    icache.finalize()
    return cycles, icache, hierarchy


def _assert_fused_matches_scalar(trace, system, parameters, fused_trace=None):
    """Full-surface parity: statistics, intervals, and state arrays."""
    cycles_s, cache_s, hier_s = _run_dri(replay_scalar, trace, system, parameters)
    cycles_f, cache_f, hier_f = _run_dri(
        replay_fused, fused_trace if fused_trace is not None else trace, system, parameters
    )
    assert cycles_f == cycles_s
    assert _cache_stats_tuple(cache_f.stats) == _cache_stats_tuple(cache_s.stats)
    assert _cache_stats_tuple(hier_f.l2.stats) == _cache_stats_tuple(hier_s.l2.stats)
    assert (hier_f.l2_accesses, hier_f.l2_misses, hier_f.memory.accesses) == (
        hier_s.l2_accesses,
        hier_s.l2_misses,
        hier_s.memory.accesses,
    )
    assert _interval_tuples(cache_f.dri_stats) == _interval_tuples(cache_s.dri_stats)
    stats_f, stats_s = cache_f.dri_stats, cache_s.dri_stats
    assert (stats_f.accesses, stats_f.misses) == (stats_s.accesses, stats_s.misses)
    assert (stats_f.upsizings, stats_f.downsizings, stats_f.throttled_downsizings) == (
        stats_s.upsizings,
        stats_s.downsizings,
        stats_s.throttled_downsizings,
    )
    assert stats_f.size_histogram == stats_s.size_histogram
    # State-array parity: the engines must be switchable mid-campaign.
    assert np.array_equal(cache_f._tag_plane, cache_s._tag_plane)
    assert np.array_equal(cache_f._policy.ranks, cache_s._policy.ranks)
    assert np.array_equal(hier_f.l2._tag_plane, hier_s.l2._tag_plane)
    assert np.array_equal(hier_f.l2._policy.ranks, hier_s.l2._policy.ranks)
    assert np.array_equal(
        cache_f.controller.throttle.state, cache_s.controller.throttle.state
    )
    assert cache_f.current_size_bytes == cache_s.current_size_bytes
    return cache_f


class TestFusedEquivalence:
    """replay_fused against the scalar oracle, full state surface."""

    @pytest.mark.parametrize("associativity", [1, 2, 4])
    def test_miss_bound_replay(self, associativity):
        trace = generate_trace(
            get_benchmark("li"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig().with_icache(64 * 1024, associativity=associativity)
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        _assert_fused_matches_scalar(trace, system, parameters)

    def test_throttled_replay(self):
        """A hair-trigger throttle (1-bit counter, short hold) forces
        engagements; the kernel's throttle arithmetic must match the
        scalar oracle's hold for hold."""
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig().with_icache(16 * 1024, associativity=1)
        parameters = DRIParameters(
            miss_bound=25,
            size_bound=1024,
            sense_interval=2_000,
            throttle=ThrottleConfig(counter_bits=1, hold_intervals=4),
        )
        cache = _assert_fused_matches_scalar(trace, system, parameters)
        assert cache.controller.throttle.engagements > 0

    def test_size_bound_clamped_replay(self):
        """A high size-bound leaves only a two-rung ladder; downsizing
        must clamp at the bound on both paths."""
        trace = generate_trace(
            get_benchmark("ijpeg"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig().with_icache(64 * 1024, associativity=2)
        parameters = DRIParameters(miss_bound=60, size_bound=32 * 1024, sense_interval=4_000)
        cache = _assert_fused_matches_scalar(trace, system, parameters)
        assert min(cache.dri_stats.size_trajectory()) >= 32 * 1024

    def test_trailing_partial_interval(self):
        """A tail that fills no whole interval stays open for ``finalize``
        on the fused path exactly as on the scalar path."""
        trace = generate_trace(
            get_benchmark("hydro2d"), total_instructions=82_400, seed=SEED
        )
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        cache = _assert_fused_matches_scalar(trace, system, parameters)
        assert cache.dri_stats.intervals[-1].resized == "none"

    def test_mid_interval_chunk_cut(self):
        """Ragged chunks sized to never align with a sense interval: the
        kernel's run_state must carry the open interval across calls."""
        trace = generate_trace(
            get_benchmark("gcc"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig().with_icache(64 * 1024, associativity=1)
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=3_000)
        _assert_fused_matches_scalar(
            trace, system, parameters, fused_trace=_RaggedSource(trace)
        )

    def test_fused_matches_batched_engine(self):
        """The fused and batched engines agree with each other too (both
        already agree with scalar; this pins the pair directly)."""
        trace = generate_trace(
            get_benchmark("swim"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=40, size_bound=1024, sense_interval=5_000)
        cycles_b, cache_b, _ = _run_dri(replay_batched, trace, system, parameters)
        cycles_f, cache_f, _ = _run_dri(replay_fused, trace, system, parameters)
        assert cycles_f == cycles_b
        assert _cache_stats_tuple(cache_f.stats) == _cache_stats_tuple(cache_b.stats)
        assert _interval_tuples(cache_f.dri_stats) == _interval_tuples(cache_b.dri_stats)
        assert np.array_equal(cache_f._tag_plane, cache_b._tag_plane)


class _CountingDRIICache(DRIICache):
    """A DRI cache that counts Python interval-boundary callbacks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.end_interval_calls = 0

    def end_interval(self, instructions=None):
        self.end_interval_calls += 1
        return super().end_interval(instructions)


class TestZeroPythonPerInterval:
    """The tentpole claim itself: no per-interval Python on the fused path."""

    def _counted_replay(self, engine_fn):
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        icache = _CountingDRIICache(
            system.l1_icache,
            parameters,
            address_bits=system.address_bits,
            auto_interval=False,
            instructions_per_access=trace.instructions_per_line,
        )
        hierarchy = MemoryHierarchy(system)
        engine_fn(trace, icache, hierarchy, 0.75, system, dri=parameters)
        icache.finalize()
        return icache

    def test_fused_path_never_calls_end_interval(self):
        icache = self._counted_replay(replay_fused)
        assert icache.end_interval_calls == 0
        assert len(icache.dri_stats.intervals) > 0

    def test_chunked_path_calls_end_interval_per_interval(self):
        """Contrast: the batched engine pays the Python boundary once per
        closed interval (what the fused engine removes)."""
        icache = self._counted_replay(replay_batched)
        closed = sum(1 for r in icache.dri_stats.intervals if r.accesses == icache.interval_length_accesses)
        assert icache.end_interval_calls == closed
        assert icache.end_interval_calls > 0


def _same_run(a, b):
    """Two SimulationResults agree on every simulated output."""
    assert (a.l1_accesses, a.l1_misses, a.l2_accesses, a.l2_misses, a.cycles) == (
        b.l1_accesses,
        b.l1_misses,
        b.l2_accesses,
        b.l2_misses,
        b.cycles,
    )
    if a.dri_stats is not None:
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)


class TestFallbackMatrix:
    """Per-run and per-environment fallbacks, and what gets recorded."""

    @pytest.mark.parametrize("policy", ["pid", "phase-detect"])
    def test_non_compilable_policy_falls_back_to_batched(self, fused_selectable, policy):
        parameters = DRIParameters(
            miss_bound=30, size_bound=2048, sense_interval=5_000
        ).with_policy(policy)
        fused = Simulator(trace_instructions=40_000, seed=SEED, engine="kernel-fused")
        scalar = Simulator(trace_instructions=40_000, seed=SEED, engine="scalar")
        assert fused.engine_for(parameters) == "batched"
        result = fused.run_dri("compress", parameters)
        assert result.engine == "batched"
        _same_run(result, scalar.run_dri("compress", parameters))

    def test_conventional_run_records_batched(self, fused_selectable):
        simulator = Simulator(trace_instructions=40_000, seed=SEED, engine="kernel-fused")
        scalar = Simulator(trace_instructions=40_000, seed=SEED, engine="scalar")
        assert simulator.engine_for(None) == "batched"
        result = simulator.run_conventional("compress")
        assert result.engine == "batched"
        _same_run(result, scalar.run_conventional("compress"))

    def test_compilable_run_records_fused(self, fused_selectable):
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        simulator = Simulator(trace_instructions=40_000, seed=SEED, engine="kernel-fused")
        assert simulator.engine_for(parameters) == "kernel-fused"
        result = simulator.run_dri("compress", parameters)
        assert result.engine == "kernel-fused"

    def test_concrete_engines_recorded_in_results(self):
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        for engine in ("scalar", "batched"):
            simulator = Simulator(trace_instructions=40_000, seed=SEED, engine=engine)
            assert simulator.run_dri("compress", parameters).engine == engine
            assert simulator.run_conventional("compress").engine == engine

    def test_engine_for_run_passthrough(self):
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        for resolved in ("scalar", "batched"):
            assert engine_for_run(resolved, system, parameters) == resolved
            assert engine_for_run(resolved, system, None) == resolved
        assert engine_for_run("kernel-fused", system, parameters) == "kernel-fused"
        assert engine_for_run("kernel-fused", system, None) == "batched"
        assert (
            engine_for_run("kernel-fused", system, parameters.with_policy("phase-detect"))
            == "batched"
        )
        small_l2_blocks = SystemConfig(
            l2_cache=CacheGeometry(size_bytes=1024 * 1024, block_size=16, associativity=4)
        )
        assert engine_for_run("kernel-fused", small_l2_blocks, parameters) == "batched"

    def test_retired_kernel_engine_is_rejected(self):
        assert ENGINE_KINDS == ("auto", "kernel-fused", "batched", "scalar")
        with pytest.raises(ValueError):
            resolve_engine("kernel")

    def test_memo_keys_record_per_run_engine(self, fused_selectable):
        """One fused sweep, two policies: the memo must key the compilable
        run under kernel-fused and the fallback run under batched."""
        compilable = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        fallback = compilable.with_policy("pid")
        sweep = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="kernel-fused")
        )
        sweep.evaluate("compress", compilable)
        sweep.evaluate("compress", fallback)
        engines = {key[3].policy.name: key[2] for key in sweep._dri_cache}
        assert engines == {"miss-bound": "kernel-fused", "pid": "batched"}


class TestGracefulDegradation:
    def test_auto_without_numba_resolves_to_batched(self, forced_absent_numba):
        assert resolve_engine("auto") == "batched"

    def test_explicit_fused_without_numba_raises_named_extra(self, forced_absent_numba):
        with pytest.raises(forced_absent_numba.KernelUnavailableError) as excinfo:
            resolve_engine("kernel-fused")
        message = str(excinfo.value)
        assert "kernel-fused" in message
        assert "[kernel]" in message  # names the install extra verbatim

    def test_simulator_explicit_fused_raises_at_construction(self, forced_absent_numba):
        with pytest.raises(forced_absent_numba.KernelUnavailableError):
            Simulator(engine="kernel-fused")

