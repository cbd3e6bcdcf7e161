"""Tests for the streaming trace subsystem.

Covers the :class:`~repro.workloads.source.TraceSource` contract (chunk
alignment, restartability), the mmap-backed
:class:`~repro.workloads.source.TraceStore` round trip, the external
din-format reader, streamed-versus-materialised generator equivalence
under pinned seeds, the bit-identical streamed replay acceptance run
(10M accesses at flat memory), and the parallel sweep's one-store-per-
benchmark shipping.
"""

from __future__ import annotations

import gzip
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.config.parameters import DRIParameters
from repro.config.system import DEFAULT_SYSTEM
from repro.dri.dri_cache import DRIICache
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import replay_batched
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import generate_trace, stream_trace
from repro.workloads.source import (
    ArrayTraceSource,
    DinTraceSource,
    TraceStore,
    as_trace_source,
    import_external_trace,
    rechunk,
)
from repro.workloads.spec95 import get_benchmark
from repro.workloads.trace import InstructionTrace


def toy_trace(num_lines: int = 500, name: str = "toy") -> InstructionTrace:
    addresses = (np.arange(num_lines, dtype=np.uint64) % 64) * 32
    return InstructionTrace(name=name, line_addresses=addresses)


def _stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions, stats.invalidations)


def _interval_tuples(dri_stats):
    return [
        (r.index, r.instructions, r.accesses, r.misses, r.size_bytes_during,
         r.size_bytes_at_end, r.resized)
        for r in dri_stats.intervals
    ]


class TestRechunk:
    def test_exact_chunks_with_remainder(self):
        segments = [np.arange(7, dtype=np.uint64), np.arange(9, dtype=np.uint64)]
        chunks = list(rechunk(segments, 5))
        assert [c.shape[0] for c in chunks] == [5, 5, 5, 1]
        assert np.array_equal(np.concatenate(chunks), np.concatenate(segments))

    def test_empty_segments_are_skipped(self):
        segments = [np.empty(0, dtype=np.uint64), np.arange(4, dtype=np.uint64)]
        chunks = list(rechunk(segments, 8))
        assert len(chunks) == 1
        assert chunks[0].shape[0] == 4

    def test_rejects_non_positive_chunk(self):
        with pytest.raises(ValueError):
            list(rechunk([np.arange(3, dtype=np.uint64)], 0))


class TestArrayTraceSource:
    def test_chunks_concatenate_to_the_trace(self):
        trace = toy_trace(503)
        source = ArrayTraceSource(trace)
        assert source.num_accesses == 503
        assert source.num_instructions == trace.num_instructions
        chunks = list(source.chunks(100))
        assert [c.shape[0] for c in chunks] == [100] * 5 + [3]
        assert np.array_equal(np.concatenate(chunks), trace.line_addresses)

    def test_as_trace_source_coercion(self):
        trace = toy_trace()
        source = as_trace_source(trace)
        assert isinstance(source, ArrayTraceSource)
        assert as_trace_source(source) is source
        with pytest.raises(TypeError):
            as_trace_source([1, 2, 3])

    def test_base_name_follows_split_pieces(self):
        piece = generate_trace(
            get_benchmark("compress"), total_instructions=8_000
        ).split(2)[1]
        assert piece.name == "compress[1]"
        source = as_trace_source(piece)
        assert source.base_name == "compress"
        assert source.materialize() is piece


class TestTraceStore:
    def test_round_trip_preserves_trace(self, tmp_path):
        trace = generate_trace(get_benchmark("li"), total_instructions=40_000, seed=5)
        store = TraceStore.save(trace, tmp_path / "li")
        assert (tmp_path / "li.npy").exists()
        assert (tmp_path / "li.json").exists()
        reopened = TraceStore.open(tmp_path / "li")
        assert reopened.name == "li"
        assert reopened.instructions_per_line == trace.instructions_per_line
        assert reopened.line_size == trace.line_size
        assert reopened.num_accesses == len(trace)
        assert np.array_equal(
            reopened.materialize().line_addresses, trace.line_addresses
        )
        assert store.num_accesses == len(trace)

    def test_store_is_memory_mapped(self, tmp_path):
        TraceStore.save(toy_trace(), tmp_path / "toy")
        store = TraceStore.open(tmp_path / "toy")
        assert isinstance(store.addresses_mmap, np.memmap)

    def test_any_of_the_three_paths_addresses_the_store(self, tmp_path):
        trace = toy_trace()
        TraceStore.save(trace, tmp_path / "t.npy")
        for path in (tmp_path / "t", tmp_path / "t.npy", tmp_path / "t.json"):
            store = TraceStore.open(path)
            assert store.num_accesses == len(trace)

    def test_save_streams_a_lazy_source(self, tmp_path):
        source = stream_trace(get_benchmark("swim"), total_instructions=80_000, seed=3)
        store = TraceStore.save(source, tmp_path / "swim")
        assert np.array_equal(
            store.materialize().line_addresses,
            source.materialize().line_addresses,
        )

    def test_pickle_ships_only_the_path(self, tmp_path):
        trace = toy_trace()
        store = TraceStore.save(trace, tmp_path / "toy")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        assert clone._mmap is None  # the clone opens its own map lazily
        assert np.array_equal(
            clone.materialize().line_addresses, trace.line_addresses
        )

    def test_replay_from_store_matches_in_memory(self, tmp_path):
        trace = generate_trace(get_benchmark("compress"), total_instructions=80_000, seed=7)
        store = TraceStore.save(trace, tmp_path / "compress")
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        simulator = Simulator(trace_instructions=80_000, seed=7)
        memory_run = simulator.run_dri(trace, parameters)
        store_run = simulator.run_dri(store, parameters)
        assert memory_run.benchmark == store_run.benchmark == "compress"
        assert (memory_run.l1_accesses, memory_run.l1_misses) == (
            store_run.l1_accesses, store_run.l1_misses
        )
        assert (memory_run.l2_accesses, memory_run.l2_misses) == (
            store_run.l2_accesses, store_run.l2_misses
        )
        assert memory_run.cycles == store_run.cycles
        assert _interval_tuples(memory_run.dri_stats) == _interval_tuples(
            store_run.dri_stats
        )


DIN_FIXTURE = """\
# comment lines and blank lines are skipped

2 1000
0 2000
2 1024
1 3000
2 103f
2 2000
"""
"""Four instruction fetches (label 2); the data accesses (0/1) and the
comment are skipped, and 0x103f aligns down to 0x1020."""


class TestDinReader:
    EXPECTED = [0x1000, 0x1020, 0x1020, 0x2000]

    def _check(self, source: DinTraceSource):
        assert source.num_accesses == 4
        chunk = np.concatenate(list(source.chunks(3)))
        assert chunk.tolist() == self.EXPECTED

    def test_plain_text(self, tmp_path):
        path = tmp_path / "fixture.din"
        path.write_text(DIN_FIXTURE, encoding="ascii")
        source = DinTraceSource(path)
        assert source.name == "fixture"
        self._check(source)

    def test_gzipped(self, tmp_path):
        path = tmp_path / "fixture.din.gz"
        with gzip.open(path, "wt", encoding="ascii") as stream:
            stream.write(DIN_FIXTURE)
        source = DinTraceSource(path)
        assert source.name == "fixture"
        self._check(source)

    def test_bare_address_lines(self, tmp_path):
        path = tmp_path / "bare.trace"
        path.write_text("1000\n1020\n", encoding="ascii")
        source = DinTraceSource(path)
        assert source.num_accesses == 2
        assert np.concatenate(list(source.chunks())).tolist() == [0x1000, 0x1020]

    def test_import_to_store_and_replay(self, tmp_path):
        din = tmp_path / "fixture.din.gz"
        with gzip.open(din, "wt", encoding="ascii") as stream:
            stream.write(DIN_FIXTURE)
        store = import_external_trace(din, tmp_path / "fixture-store")
        assert store.num_accesses == 4
        assert store.materialize().line_addresses.tolist() == self.EXPECTED
        # An external trace is a first-class workload.
        result = Simulator().run_conventional(store)
        assert result.benchmark == "fixture"
        assert result.l1_accesses == 4

    def test_count_is_cached_after_one_pass(self, tmp_path):
        path = tmp_path / "fixture.din"
        path.write_text(DIN_FIXTURE, encoding="ascii")
        source = DinTraceSource(path)
        assert source._num_accesses is None
        list(source.chunks(2))
        assert source._num_accesses == 4


class TestIngestErrors:
    """Malformed input fails with a ValueError naming the file and field."""

    @pytest.mark.parametrize("field", ["zz", "-40", "1ffffffffffffffffff"])
    def test_bad_din_address_names_path_line_and_field(self, tmp_path, field):
        path = tmp_path / "bad.din"
        path.write_text(f"2 1000\n# comment\n2 {field}\n", encoding="ascii")
        with pytest.raises(ValueError) as excinfo:
            list(DinTraceSource(path).chunks())
        message = str(excinfo.value)
        assert f"{path}:3" in message
        assert repr(field) in message

    def test_sidecar_missing_key_names_sidecar_and_key(self, tmp_path):
        TraceStore.save(toy_trace(), tmp_path / "t")
        sidecar = tmp_path / "t.json"
        metadata = json.loads(sidecar.read_text(encoding="utf-8"))
        del metadata["name"]
        sidecar.write_text(json.dumps(metadata), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            TraceStore.open(tmp_path / "t")
        assert str(sidecar) in str(excinfo.value)
        assert "'name'" in str(excinfo.value)

    def test_store_rejects_data_that_is_not_a_1d_integer_array(self, tmp_path):
        TraceStore.save(toy_trace(), tmp_path / "t")
        np.save(tmp_path / "t.npy", np.zeros((4, 2)))
        with pytest.raises(ValueError) as excinfo:
            TraceStore.open(tmp_path / "t")
        assert str(tmp_path / "t.npy") in str(excinfo.value)
        assert "(4, 2)" in str(excinfo.value)


class TestGeneratedStreaming:
    """The vectorised generator streams and materialises identically."""

    @pytest.mark.parametrize("name", ["compress", "hydro2d", "swim", "fpppp"])
    def test_streamed_equals_materialised_under_pinned_seed(self, name):
        spec = get_benchmark(name)
        trace = generate_trace(spec, total_instructions=80_000, seed=2001)
        source = stream_trace(spec, total_instructions=80_000, seed=2001)
        streamed = np.concatenate(list(source.chunks(777)))
        assert np.array_equal(streamed, trace.line_addresses)

    def test_chunk_size_does_not_change_the_stream(self):
        source = stream_trace(get_benchmark("hydro2d"), total_instructions=80_000, seed=9)
        a = np.concatenate(list(source.chunks(123)))
        b = np.concatenate(list(source.chunks(65_536)))
        assert np.array_equal(a, b)

    def test_chunks_are_interval_sized(self):
        source = stream_trace(get_benchmark("li"), total_instructions=80_000, seed=9)
        lengths = [c.shape[0] for c in source.chunks(625)]
        assert all(length == 625 for length in lengths[:-1])
        assert sum(lengths) == source.num_accesses

    def test_deterministic_and_decorrelated(self):
        again = stream_trace(get_benchmark("li"), total_instructions=40_000, seed=9)
        first = np.concatenate(list(again.chunks()))
        assert np.array_equal(first, np.concatenate(list(again.chunks())))
        other = stream_trace(get_benchmark("gcc"), total_instructions=40_000, seed=9)
        assert not np.array_equal(first, np.concatenate(list(other.chunks())))


class TestStreamedReplayAcceptance:
    """A 10M-access generated trace replays through the batched engine via
    a streaming source with bit-identical statistics to the materialised
    path, at a peak trace memory bounded by the chunk working set."""

    ACCESSES = 10_000_000
    SENSE_INTERVAL = 400_000  # instructions -> 50_000-access chunks
    PEAK_MIB_BOUND = 24.0

    def _run(self, trace_like, watch_memory: bool = False):
        system = DEFAULT_SYSTEM
        parameters = DRIParameters(
            miss_bound=40, size_bound=1024, sense_interval=self.SENSE_INTERVAL
        )
        icache = DRIICache(
            system.l1_icache,
            parameters,
            address_bits=system.address_bits,
            auto_interval=False,
            instructions_per_access=8,
        )
        hierarchy = MemoryHierarchy(system)
        peak = 0
        if watch_memory:
            tracemalloc.start()
        cycles = replay_batched(
            trace_like, icache, hierarchy, 0.75, system, dri=parameters
        )
        if watch_memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        icache.finalize()
        return (
            cycles,
            _stats_tuple(icache.stats),
            hierarchy.l2_accesses,
            hierarchy.l2_misses,
            icache.dri_stats.size_trajectory(),
            _interval_tuples(icache.dri_stats),
            peak,
        )

    def test_streamed_replay_is_bit_identical_at_flat_memory(self):
        spec = get_benchmark("li")
        source = stream_trace(spec, total_instructions=self.ACCESSES * 8, seed=2001)
        assert source.num_accesses == self.ACCESSES
        streamed = self._run(source, watch_memory=True)
        trace = generate_trace(spec, total_instructions=self.ACCESSES * 8, seed=2001)
        materialised = self._run(trace)
        # Everything but the memory watermark is bit-identical.
        assert streamed[:-1] == materialised[:-1]
        # hit/miss/eviction counts actually covered the whole stream.
        assert streamed[1][0] == self.ACCESSES
        # The streamed path never held the trace: its peak traced memory is
        # bounded by the chunk/segment working set, an order of magnitude
        # below the 76 MiB the materialised address array alone occupies.
        peak_mib = streamed[-1] / 2**20
        assert peak_mib < self.PEAK_MIB_BOUND, f"peak {peak_mib:.1f} MiB"


class TestSweepStoreShipping:
    """Parallel sweeps spill one mmapped store per benchmark and ship paths."""

    def _sweep(self):
        simulator = Simulator(trace_instructions=40_000, seed=11)
        return ParameterSweep(
            simulator, base_parameters=DRIParameters(sense_interval=5_000)
        )

    def test_parallel_grid_uses_one_store_per_benchmark(self):
        sweep = self._sweep()
        result = sweep.grid(
            "compress", miss_bounds=(10, 80), size_bounds=(1024, 8192), jobs=2
        )
        assert len(result.points) == 4
        assert set(sweep._stores) == {"compress"}
        store = sweep._stores["compress"]
        assert isinstance(store.addresses_mmap, np.memmap)

    def test_parallel_matches_serial_through_stores(self):
        serial = self._sweep().grid(
            "compress", miss_bounds=(10, 80), size_bounds=(1024, 8192)
        )
        parallel = self._sweep().grid(
            "compress", miss_bounds=(10, 80), size_bounds=(1024, 8192), jobs=2
        )
        for a, b in zip(serial.points, parallel.points):
            assert a.parameters == b.parameters
            assert a.simulation.l1_misses == b.simulation.l1_misses
            assert a.simulation.cycles == b.simulation.cycles
            assert (
                a.simulation.dri_stats.size_trajectory()
                == b.simulation.dri_stats.size_trajectory()
            )

    def test_store_workload_is_shipped_by_its_own_path(self, tmp_path):
        trace = generate_trace(get_benchmark("li"), total_instructions=40_000, seed=11)
        store = TraceStore.save(trace, tmp_path / "li")
        sweep = self._sweep()
        assert sweep._store_for(store) is store
        result = sweep.grid(store, miss_bounds=(10, 80), size_bounds=(1024,), jobs=2)
        assert len(result.points) == 2
        assert sweep._stores == {}  # nothing was spilled

    def test_closing_deletes_the_spilled_stores_and_the_sweep_respills(self):
        grid = dict(miss_bounds=(10, 80), size_bounds=(1024, 8192))
        with self._sweep() as sweep:
            sweep.grid("compress", jobs=2, **grid)
            first_dir = sweep._store_dir.name
            assert os.path.isdir(first_dir)
        assert not os.path.exists(first_dir)
        assert sweep._stores == {} and sweep._store_dir is None
        # Still usable after close: a new pooled call spills afresh.
        with sweep:
            parallel = sweep.grid("li", jobs=2, **grid)
            assert set(sweep._stores) == {"li"}
            second_dir = sweep._store_dir.name
            assert os.path.isdir(second_dir)
        assert not os.path.exists(second_dir)
        serial = self._sweep().grid("li", **grid)
        for a, b in zip(serial.points, parallel.points):
            assert a.parameters == b.parameters
            assert a.simulation.cycles == b.simulation.cycles
            assert a.energy_delay == b.energy_delay


class TestSplitKeepsBenchmarkIdentity:
    def test_split_pieces_resolve_registry_base_cpi(self):
        simulator = Simulator(trace_instructions=40_000, seed=3)
        trace, base_cpi = simulator.resolve_workload("fpppp")
        piece = trace.split(3)[1]
        assert piece.benchmark_name == "fpppp"
        _, piece_cpi = simulator.resolve_workload(piece)
        assert piece_cpi == base_cpi == get_benchmark("fpppp").base_cpi

    def test_unknown_trace_still_falls_back_to_generic_cpi(self):
        _, cpi = Simulator().resolve_workload(toy_trace(name="mystery"))
        assert cpi == 0.75


class TestSelfSaveGuard:
    """``TraceStore.save`` onto a store's own path would zero the data
    file before reading it; the guard must refuse instead of corrupting."""

    def test_saving_a_store_onto_itself_raises(self, tmp_path):
        trace = toy_trace()
        store = TraceStore.save(trace, tmp_path / "t")
        with pytest.raises(ValueError, match="truncate"):
            TraceStore.save(store, tmp_path / "t")
        # The original data must be untouched after the refusal.
        reopened = TraceStore.open(tmp_path / "t")
        assert np.array_equal(
            reopened.materialize().line_addresses, trace.line_addresses
        )

    def test_extension_spelling_does_not_evade_the_guard(self, tmp_path):
        store = TraceStore.save(toy_trace(), tmp_path / "t")
        for alias in (tmp_path / "t.npy", tmp_path / "t.json"):
            with pytest.raises(ValueError, match="truncate"):
                TraceStore.save(store, alias)

    def test_copy_to_a_fresh_path_still_works(self, tmp_path):
        trace = toy_trace()
        store = TraceStore.save(trace, tmp_path / "a")
        copy = TraceStore.save(store, tmp_path / "b")
        assert copy.num_accesses == store.num_accesses
        assert np.array_equal(
            copy.materialize().line_addresses, trace.line_addresses
        )
