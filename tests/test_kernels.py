"""Tests for the compiled kernel layer, :mod:`repro.memory.kernels`.

The layer is one compiled loop, the fused DRI interval loop
(:func:`~repro.memory.kernels.dri_fused.fused_dri_chunk`, reached
through :meth:`DRIICache.fused_chunk <repro.dri.dri_cache.DRIICache.fused_chunk>`),
behind one guarded Numba import (:mod:`repro.memory.kernels.runtime`).
Its contract is the bit-identity the batched engine carries, plus:

* **replacement-state parity** — after any kernel chunk, the tag planes
  and LRU ranks of both cache levels equal the scalar oracle's, frame
  for frame, so engines can be switched mid-campaign;
* **graceful degradation** — importing :mod:`repro` never requires
  Numba, ``engine="auto"`` silently falls back to the batched engine,
  an *explicit* compiled-engine request without Numba raises a clear
  error naming the ``[kernel]`` install extra, and the retired
  ``engine="kernel"`` name is refused outright.

``tests/test_fused.py`` pins the fused engine at the replay level on
generated benchmark traces; this suite drives the kernel chunk by chunk
on synthetic address streams (scattered fills, a hot loop, single-set
pressure) and through the engine selector.  Without Numba the kernel
runs as its bit-identical pure-Python fallback; the CI ``kernel`` job
runs the same tests compiled.
"""

from __future__ import annotations

import multiprocessing
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro.memory.kernels.runtime as kernel_runtime
from repro.config.parameters import DRIParameters
from repro.config.system import SystemConfig
from repro.dri.dri_cache import DRIICache
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.kernels import KernelUnavailableError, numba_version
from repro.simulation.engine import (
    engine_for_run,
    replay,
    replay_batched,
    replay_fused,
    replay_scalar,
    resolve_engine,
)
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import generate_trace
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


def _mixed_trace(rng, loop_lines=64, loop_repeats=40, scatter=2_000, span=2**20):
    """Scattered accesses around a hot loop: empty-way fills, LRU
    victims, in-chunk reuse, and single-set pressure alike."""
    loop = np.tile(
        (rng.integers(0, span // 16, size=loop_lines, dtype=np.uint64) // 32) * 32,
        loop_repeats,
    )
    noise = (rng.integers(0, span, size=scatter, dtype=np.uint64) // 32) * 32
    return np.concatenate([noise, loop, noise])


def _as_trace(addresses):
    """One access per instruction, so sense intervals count accesses."""
    return InstructionTrace(name="synthetic", line_addresses=addresses, instructions_per_line=1)


def _dri_run(system, parameters):
    """A manually-driven DRI L1 and its hierarchy, ready for any engine."""
    icache = DRIICache(
        system.l1_icache, parameters, address_bits=system.address_bits, auto_interval=False
    )
    return icache, MemoryHierarchy(system)


def _scalar_reference(addresses, system, parameters):
    icache, hierarchy = _dri_run(system, parameters)
    replay_scalar(_as_trace(addresses), icache, hierarchy, 0.75, system, dri=parameters)
    icache.finalize()
    return icache, hierarchy


def _kernel_chunks(addresses, system, parameters, pieces):
    """Feed ``addresses`` to the fused kernel in ``pieces`` uneven chunks."""
    icache, hierarchy = _dri_run(system, parameters)
    for chunk in np.array_split(addresses, pieces):
        icache.fused_chunk(chunk, hierarchy)
    icache.finalize()
    return icache, hierarchy


def _assert_same_run(run, reference):
    """Statistics, interval records, and every state array agree."""
    (icache, hierarchy), (ref_icache, ref_hierarchy) = run, reference
    assert _cache_stats_tuple(icache.stats) == _cache_stats_tuple(ref_icache.stats)
    assert _cache_stats_tuple(hierarchy.l2.stats) == _cache_stats_tuple(
        ref_hierarchy.l2.stats
    )
    assert (hierarchy.l2_accesses, hierarchy.l2_misses, hierarchy.memory.accesses) == (
        ref_hierarchy.l2_accesses,
        ref_hierarchy.l2_misses,
        ref_hierarchy.memory.accesses,
    )
    assert _interval_tuples(icache.dri_stats) == _interval_tuples(ref_icache.dri_stats)
    assert np.array_equal(icache._tag_plane, ref_icache._tag_plane)
    assert np.array_equal(icache._policy.ranks, ref_icache._policy.ranks)
    assert np.array_equal(hierarchy.l2._tag_plane, ref_hierarchy.l2._tag_plane)
    assert np.array_equal(hierarchy.l2._policy.ranks, ref_hierarchy.l2._policy.ranks)
    assert np.array_equal(
        icache.controller.throttle.state, ref_icache.controller.throttle.state
    )
    assert icache.current_size_bytes == ref_icache.current_size_bytes


class TestKernelClassifyEquivalence:
    """The fused kernel, chunk by chunk, against the scalar oracle."""

    # Case ids name the replacement (LRU, the only one) and the associativity.
    @pytest.mark.parametrize("associativity", [1, 2, 4, 8], ids=lambda a: f"lru-{a}")
    def test_kernel_matches_scalar(self, associativity):
        rng = np.random.default_rng(200 + associativity)
        addresses = _mixed_trace(rng)
        system = SystemConfig().with_icache(8 * 1024, associativity=associativity)
        parameters = DRIParameters(miss_bound=60, size_bound=1024, sense_interval=300)
        reference = _scalar_reference(addresses, system, parameters)
        run = _kernel_chunks(addresses, system, parameters, pieces=5)
        _assert_same_run(run, reference)
        assert run[0].dri_stats.upsizings + run[0].dri_stats.downsizings > 0

    @pytest.mark.parametrize("associativity", [4], ids=["lru"])
    def test_single_hot_set(self, associativity):
        """A stream that lands on one set (nine tags competing for four
        ways) is just another in-order stretch for the kernel."""
        rng = np.random.default_rng(23)
        system = SystemConfig().with_icache(2 * 1024, associativity=associativity)
        tags = rng.integers(0, 9, size=4_000, dtype=np.uint64)
        addresses = (tags << np.uint64(9)) | np.uint64(3 << 5)
        parameters = DRIParameters(miss_bound=400, size_bound=512, sense_interval=500)
        reference = _scalar_reference(addresses, system, parameters)
        _assert_same_run(_kernel_chunks(addresses, system, parameters, pieces=3), reference)

    def test_kernel_chunking_is_invariant(self):
        rng = np.random.default_rng(13)
        addresses = _mixed_trace(rng)
        system = SystemConfig().with_icache(4 * 1024, associativity=4)
        parameters = DRIParameters(miss_bound=60, size_bound=1024, sense_interval=300)
        whole = _kernel_chunks(addresses, system, parameters, pieces=1)
        _assert_same_run(_kernel_chunks(addresses, system, parameters, pieces=7), whole)

    def test_kernel_and_batched_interoperate(self):
        """Stretches of one stream can alternate between the fused kernel
        and the batched engine: the shared state arrays stay coherent."""
        rng = np.random.default_rng(17)
        addresses = _mixed_trace(rng)
        system = SystemConfig().with_icache(4 * 1024, associativity=4)
        parameters = DRIParameters(miss_bound=60, size_bound=1024, sense_interval=300)
        reference = _scalar_reference(addresses, system, parameters)
        icache, hierarchy = _dri_run(system, parameters)
        # The batched engine opens a fresh interval per call, so the
        # stretches are cut on interval boundaries.
        stretch = 4 * icache.interval_length_accesses
        for index, start in enumerate(range(0, addresses.shape[0], stretch)):
            engine = replay_fused if index % 2 else replay_batched
            piece = _as_trace(addresses[start : start + stretch])
            engine(piece, icache, hierarchy, 0.75, system, dri=parameters)
        icache.finalize()
        _assert_same_run((icache, hierarchy), reference)

    def test_dri_masked_index_path(self):
        """After a downsize the kernel indexes through the size mask with
        min-size tags: it must resize where the scalar path resizes and
        leave the same blocks resident under the current mapping."""
        rng = np.random.default_rng(19)
        addresses = _mixed_trace(rng, span=2**18)
        system = SystemConfig().with_icache(8 * 1024, associativity=1)
        parameters = DRIParameters(miss_bound=60, size_bound=1024, sense_interval=300)
        reference = _scalar_reference(addresses, system, parameters)
        run = _kernel_chunks(addresses, system, parameters, pieces=4)
        icache, ref_icache = run[0], reference[0]
        assert min(icache.dri_stats.size_trajectory()) < 8 * 1024
        assert icache.dri_stats.size_trajectory() == ref_icache.dri_stats.size_trajectory()
        probes = addresses[::97].tolist()
        assert [icache.contains(a) for a in probes] == [ref_icache.contains(a) for a in probes]
        _assert_same_run(run, reference)


class TestKernelReplayEquivalence:
    """Full replays through the selector's compiled engine,
    ``replay(..., engine="kernel-fused")``: DRI runs take the fused
    kernel, conventional runs its batched fallback, and both equal the
    scalar loop."""

    def _kernel_vs_scalar(self, system, trace, parameters=None):
        outcomes = {}
        for engine in ("scalar", "kernel-fused"):
            if parameters is None:
                icache = Cache(system.l1_icache, name="L1I")
            else:
                icache = DRIICache(
                    system.l1_icache,
                    parameters,
                    address_bits=system.address_bits,
                    auto_interval=False,
                    instructions_per_access=trace.instructions_per_line,
                )
            hierarchy = MemoryHierarchy(system)
            cycles = replay(
                trace, icache, hierarchy, 0.75, system, dri=parameters, engine=engine
            )
            if parameters is not None:
                icache.finalize()
            outcomes[engine] = (
                cycles,
                _cache_stats_tuple(icache.stats),
                hierarchy.l2_accesses,
                hierarchy.l2_misses,
                hierarchy.memory.accesses,
                _interval_tuples(icache.dri_stats) if parameters is not None else None,
                icache._tag_plane.tobytes(),
                icache._policy.ranks.tobytes(),
            )
        assert outcomes["kernel-fused"] == outcomes["scalar"]
        return outcomes

    @pytest.mark.parametrize("associativity", [1, 2, 4, 8])
    def test_conventional_replay(self, fused_selectable, associativity):
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=40_000, seed=SEED
        )
        system = SystemConfig().with_icache(16 * 1024, associativity=associativity)
        assert engine_for_run("kernel-fused", system, None) == "batched"
        self._kernel_vs_scalar(system, trace)

    @pytest.mark.parametrize("associativity", [1, 4])
    def test_dri_replay(self, fused_selectable, associativity):
        trace = generate_trace(
            get_benchmark("li"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig().with_icache(64 * 1024, associativity=associativity)
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        assert engine_for_run("kernel-fused", system, parameters) == "kernel-fused"
        self._kernel_vs_scalar(system, trace, parameters)

    def test_trailing_partial_interval(self, fused_selectable):
        """82_400 instructions = 16 full 5_000-instruction intervals plus a
        300-access tail; the kernel leaves the tail open for ``finalize``
        exactly as the scalar loop does."""
        trace = generate_trace(
            get_benchmark("hydro2d"), total_instructions=82_400, seed=SEED
        )
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        outcomes = self._kernel_vs_scalar(system, trace, parameters)
        intervals = outcomes["kernel-fused"][5]
        assert intervals[-1][2] < intervals[0][2]  # a short, flushed tail
        assert intervals[-1][6] == "none"

    def test_replay_kernel_engine_string(self):
        """``replay`` refuses the retired ``"kernel"`` name everywhere;
        ``"kernel-fused"`` needs Numba, and with Numba present the
        selector path agrees with the scalar loop."""
        trace = generate_trace(
            get_benchmark("swim"), total_instructions=40_000, seed=SEED
        )
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        with pytest.raises(ValueError, match="engine must be one of"):
            replay(
                trace, Cache(system.l1_icache), MemoryHierarchy(system), 0.75, system,
                engine="kernel",
            )
        if not kernel_runtime.NUMBA_AVAILABLE:
            with pytest.raises(KernelUnavailableError):
                replay(
                    trace, Cache(system.l1_icache), MemoryHierarchy(system), 0.75, system,
                    engine="kernel-fused",
                )
            return
        self._kernel_vs_scalar(system, trace, parameters)


class TestGracefulDegradation:
    def test_numba_version_reports_reality(self):
        version = numba_version()
        if kernel_runtime.NUMBA_AVAILABLE:
            assert isinstance(version, str) and version
        else:
            assert version is None

    def test_explicit_kernel_without_numba_raises_named_extra(
        self, forced_absent_numba
    ):
        """The runtime guard behind every explicit compiled-engine request."""
        with pytest.raises(forced_absent_numba.KernelUnavailableError) as excinfo:
            forced_absent_numba.require_numba()
        message = str(excinfo.value)
        assert "numba" in message.lower()
        assert "'kernel-fused'" in message  # the engine it guards by default
        assert "[kernel]" in message  # names the install extra verbatim
        assert "pip install" in message

    def test_auto_without_numba_falls_back_to_batched(self, forced_absent_numba):
        assert resolve_engine("auto") == "batched"
        assert Simulator(engine="auto").engine == "batched"

    def test_simulator_explicit_kernel_raises_at_construction(self, monkeypatch):
        """The retired chunked ``engine="kernel"`` is refused when the
        simulator is built, whether or not Numba is importable."""
        for available in (False, True):
            monkeypatch.setattr(kernel_runtime, "NUMBA_AVAILABLE", available)
            with pytest.raises(ValueError, match="engine must be one of"):
                Simulator(engine="kernel")

    def test_auto_fallback_stats_identical_to_batched(self, forced_absent_numba):
        auto = Simulator(trace_instructions=40_000, seed=SEED, engine="auto")
        batched = Simulator(trace_instructions=40_000, seed=SEED, engine="batched")
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        a = auto.run_dri("compress", parameters)
        b = batched.run_dri("compress", parameters)
        assert a.engine == "batched"
        assert (a.l1_accesses, a.l1_misses, a.cycles) == (
            b.l1_accesses,
            b.l1_misses,
            b.cycles,
        )
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)

    def test_auto_with_numba_present_prefers_fused_kernel(self, monkeypatch):
        monkeypatch.setattr(kernel_runtime, "NUMBA_AVAILABLE", True)
        assert resolve_engine("auto") == "kernel-fused"

    def test_importing_repro_does_not_import_numba(self):
        """The tier-1 environment is numpy-only: nothing in the package
        import graph may pull Numba in eagerly (the runtime module's
        guarded import is the single sanctioned touch point)."""
        code = (
            "import sys; sys.modules['numba'] = None; "
            "import repro, repro.simulation.engine, repro.memory.kernels; "
            "print('ok')"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestKernelSweepPlumbing:
    """The compiled engine through the warm worker pool and the memo."""

    def test_memo_key_separates_engines(self):
        """A sweep's memo records which engine produced each entry."""
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        batched = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="batched")
        )
        scalar = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="scalar")
        )
        batched.evaluate("compress", parameters)
        scalar.evaluate("compress", parameters)
        (key_b,) = batched._dri_cache.keys()
        (key_s,) = scalar._dri_cache.keys()
        assert key_b != key_s
        assert "batched" in key_b and "scalar" in key_s

    def test_kernel_task_pickles_through_warm_pool(self, fused_selectable):
        """A kernel-fused sweep round-trips through the persistent pool.

        Fork workers inherit the widened selector, so one task runs the
        fused loop and one (a non-compilable policy) its batched fallback;
        with Numba present the fused task runs compiled.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched selector needs fork workers")
        compilable = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        tasks = [("compress", compilable), ("swim", compilable.with_policy("phase-detect"))]
        # The tasks (with their PolicySpecs) must survive the pickle
        # boundary the pool ships them across.
        assert pickle.loads(pickle.dumps(tasks)) == tasks

        kernel_sweep = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="kernel-fused")
        )
        serial = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="batched")
        )
        try:
            pooled = kernel_sweep.evaluate_many(tasks, jobs=2)
        finally:
            kernel_sweep.close()
        assert [point.simulation.engine for point in pooled] == ["kernel-fused", "batched"]
        for point, (name, parameters) in zip(pooled, tasks):
            reference = serial.evaluate(name, parameters)
            assert point.parameters == reference.parameters
            assert point.simulation.l1_misses == reference.simulation.l1_misses
            assert point.simulation.cycles == reference.simulation.cycles
            assert (
                point.simulation.dri_stats.size_trajectory()
                == reference.simulation.dri_stats.size_trajectory()
            )
