"""Property-based tests (hypothesis) on the core data structures and invariants.

``HYPOTHESIS_PROFILE=deep`` runs every property that does not set its own
``max_examples`` (the engine differentials) on 1,000 examples instead of
Hypothesis's default 100.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import asdict, replace
from itertools import cycle
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.parameters import DRIParameters, ThrottleConfig
from repro.config.system import CacheGeometry, SystemConfig
from repro.dri.dri_cache import DRIICache
from repro.dri.mask import SizeMask
from repro.dri.policies import policy_names
from repro.energy.model import EnergyModel, RunStatistics
from repro.memory.cache import Cache, _direct_mapped_pass
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import (
    BANK_PROBES_PER_CALL,
    replay_batched,
    replay_lockstep,
    replay_scalar,
)
from repro.workloads.source import TraceSource
from repro.workloads.trace import InstructionTrace

# Loaded before the properties below are defined, whose settings inherit it.
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
cache_size_exponents = st.integers(min_value=9, max_value=14)  # 512B .. 16K
addresses = st.integers(min_value=0, max_value=2**32 - 1)
address_lists = st.lists(addresses, min_size=1, max_size=300)


def geometry_from(exponent: int, associativity: int = 1) -> CacheGeometry:
    return CacheGeometry(size_bytes=1 << exponent, block_size=32, associativity=associativity)


# ----------------------------------------------------------------------
# Generic cache invariants
# ----------------------------------------------------------------------
class TestCacheProperties:
    @given(exponent=cache_size_exponents, assoc_log=st.integers(0, 2), trace=address_lists)
    @settings(max_examples=50, deadline=None)
    def test_capacity_and_counter_invariants(self, exponent, assoc_log, trace):
        cache = Cache(geometry_from(exponent, 1 << assoc_log))
        for address in trace:
            cache.access(address)
        assert cache.resident_blocks() <= cache.geometry.num_blocks
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses
        assert 0.0 <= cache.stats.miss_rate <= 1.0

    @given(trace=address_lists)
    @settings(max_examples=30, deadline=None)
    def test_immediate_reaccess_always_hits(self, trace):
        cache = Cache(geometry_from(12))
        for address in trace:
            cache.access(address)
            assert cache.access(address).hit

    @given(exponent=cache_size_exponents, trace=address_lists)
    @settings(max_examples=30, deadline=None)
    def test_direct_mapped_matches_reference_model(self, exponent, trace):
        """The direct-mapped cache agrees with a dictionary reference model."""
        cache = Cache(geometry_from(exponent, 1))
        reference = {}
        for address in trace:
            block = address >> 5
            index = block % cache.num_sets
            hit = reference.get(index) == block
            assert cache.access(address).hit == hit
            reference[index] = block


class TestLRUProperties:
    @given(
        associativity_log=st.integers(0, 3),
        touches=st.lists(st.integers(0, 15), min_size=1, max_size=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_victim_is_always_least_recent(self, associativity_log, touches):
        """In a one-set cache, a miss in a full set evicts the least
        recently used tag, and the row lists the tags most recent first."""
        associativity = 1 << associativity_log
        cache = Cache(geometry_from(5 + associativity_log, associativity))
        recency = []  # reference: most recent first
        for touch in touches:
            result = cache.access(touch * 32)
            victim = None
            if touch in recency:
                recency.remove(touch)
            elif len(recency) == associativity:
                victim = recency.pop()
            recency.insert(0, touch)
            assert result.evicted_tag == victim
            assert cache._tag_plane[0].tolist() == recency + [-1] * (associativity - len(recency))


# ----------------------------------------------------------------------
# Set-associative LRU against an independent reference
# ----------------------------------------------------------------------
class _ReferenceLRU:
    """Textbook per-set LRU: one ``OrderedDict`` of resident tags per set,
    least recent first.  It shares no code with :class:`Cache`."""

    def __init__(self, geometry: CacheGeometry):
        self.block_size = geometry.block_size
        self.num_sets = geometry.size_bytes // (geometry.block_size * geometry.associativity)
        self.ways = geometry.associativity
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.counts = dict(accesses=0, hits=0, misses=0, evictions=0, invalidations=0)

    def access(self, address: int) -> bool:
        block = address // self.block_size
        index, tag = block % self.num_sets, block // self.num_sets
        resident = self.sets[index]
        self.counts["accesses"] += 1
        if tag in resident:
            resident.move_to_end(tag)
            self.counts["hits"] += 1
            return True
        self.counts["misses"] += 1
        if len(resident) == self.ways:
            resident.popitem(last=False)
            self.counts["evictions"] += 1
        resident[tag] = None
        return False

    def invalidate(self, start: int, stop: int) -> None:
        for resident in self.sets[start:stop]:
            self.counts["invalidations"] += len(resident)
            resident.clear()

    def recency(self, index: int):
        """Set ``index``'s resident tags, most recent first."""
        return list(reversed(self.sets[index]))


@st.composite
def lru_streams(draw):
    """A 2-8-way cache of few sets, a stream that hammers a few hot sets
    (so chunks run wavefronts over many sets, then the scalar tail on the
    hot ones), the chunk cuts, and an optional invalidation after each
    chunk."""
    ways_log, sets_log = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    geometry = CacheGeometry(
        size_bytes=32 << (ways_log + sets_log), block_size=32, associativity=1 << ways_log
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = geometry.num_sets
    length = draw(st.integers(1, 600))
    hot = rng.integers(0, sets, size=int(rng.integers(1, 4)))
    hot_share = draw(st.sampled_from([0.0, 0.5, 0.9]))
    set_indices = np.where(
        rng.random(length) < hot_share,
        rng.choice(hot, size=length),
        rng.integers(0, sets, size=length),
    )
    tags = rng.integers(0, draw(st.integers(1, 3 * geometry.associativity)), size=length)
    offsets = rng.integers(0, 32, size=length)
    stream = ((tags * sets + set_indices) * 32 + offsets).tolist()
    cuts = draw(st.lists(st.integers(1, 200), min_size=1, max_size=5))
    chunks, position = [], 0
    for take in cycle(cuts):
        if position >= length:
            break
        chunks.append(stream[position : position + take])
        position += take
    invalidations = [
        draw(st.one_of(st.none(), st.tuples(st.integers(0, sets), st.integers(0, sets))))
        for _ in chunks
    ]
    return geometry, chunks, invalidations


class TestReferenceLRUDifferential:
    @given(case=lru_streams())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scalar_and_batched_match_an_independent_lru(self, case):
        """``Cache.access`` per address and ``Cache.access_batch`` per
        chunk agree with a textbook LRU on every probe's hit, every
        statistics counter (evictions and invalidations included) and
        every row's resident tags in recency order."""
        geometry, chunks, invalidations = case
        reference, scalar, batched = _ReferenceLRU(geometry), Cache(geometry), Cache(geometry)
        for chunk, invalidation in zip(chunks, invalidations):
            expected = [reference.access(address) for address in chunk]
            assert [scalar.access(address).hit for address in chunk] == expected
            hits = batched.access_batch(np.array(chunk, dtype=np.uint64))
            assert hits.tolist() == expected
            if invalidation is not None:
                start, stop = sorted(invalidation)
                reference.invalidate(start, stop)
                scalar.invalidate_range(start, stop)
                batched.invalidate_range(start, stop)
            # Each tag-plane row is its set's recency list, padded with
            # invalid frames.
            rows = [
                recency + [-1] * (reference.ways - len(recency))
                for recency in map(reference.recency, range(reference.num_sets))
            ]
            for cache in (scalar, batched):
                assert asdict(cache.stats) == reference.counts
                assert cache._tag_plane.tolist() == rows


# ----------------------------------------------------------------------
# The direct-mapped pass against the stable-argsort formulation
# ----------------------------------------------------------------------
def _argsort_pass(blocks, mask):
    """``_direct_mapped_pass`` as a stable argsort of int64 set keys: the
    formulation the packed keys replaced, kept as the oracle."""
    keys = blocks & mask
    order = np.argsort(keys, kind="stable")
    sorted_keys, sorted_blocks = keys[order], blocks[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    lasts = np.r_[starts[1:], blocks.shape[0]] - 1
    hits = np.zeros(blocks.shape[0], dtype=bool)
    hits[order[1:]] = sorted_blocks[1:] == sorted_blocks[:-1]
    return hits, order[starts], sorted_keys[starts], sorted_blocks[starts], sorted_blocks[lasts]


@st.composite
def direct_mapped_chunks(draw):
    """A set mask of 1-16 bits and a chunk of 1 to ``BANK_PROBES_PER_CALL``
    blocks, or one long enough that packed keys pass 32 bits, drawn from
    a pool of 1 to 5,000 distinct blocks (few distinct blocks repeat
    heavily), sometimes as a loop."""
    if draw(st.booleans()):
        mask_bits, length = draw(st.integers(1, 16)), draw(st.integers(1, BANK_PROBES_PER_CALL))
    else:
        # 15-16 set bits plus 18 position bits.
        mask_bits, length = draw(st.integers(15, 16)), draw(st.integers(2**17 + 1, 2**18))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width, distinct = draw(st.sampled_from([8, 20, 40, 58])), draw(st.integers(1, 5_000))
    pool = rng.integers(0, 1 << width, size=distinct)
    blocks = np.resize(pool, length) if draw(st.booleans()) else rng.choice(pool, size=length)
    return blocks, (1 << mask_bits) - 1


class TestDirectMappedPassDifferential:
    @given(case=direct_mapped_chunks())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_packed_keys_match_the_stable_argsort(self, case):
        """Hits, first-probe positions, touched sets and their first and
        last blocks equal the stable-argsort oracle's, value for value."""
        blocks, mask = case
        for got, expected in zip(_direct_mapped_pass(blocks, mask), _argsort_pass(blocks, mask)):
            assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Size mask invariants
# ----------------------------------------------------------------------
class TestSizeMaskProperties:
    @given(
        full_exp=st.integers(min_value=12, max_value=17),
        bound_exp=st.integers(min_value=10, max_value=17),
        block=st.integers(min_value=0, max_value=2**27 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_tag_plus_min_index_reconstructs_block(self, full_exp, bound_exp, block):
        bound_exp = min(bound_exp, full_exp)
        mask = SizeMask(CacheGeometry(size_bytes=1 << full_exp, block_size=32), 1 << bound_exp)
        tag = mask.tag(block)
        min_index = block & (mask.min_sets - 1)
        assert (tag << mask.min_index_bits) | min_index == block

    @given(
        full_exp=st.integers(min_value=12, max_value=17),
        bound_exp=st.integers(min_value=10, max_value=17),
    )
    @settings(max_examples=50, deadline=None)
    def test_resizing_bits_consistent_with_sizes(self, full_exp, bound_exp):
        bound_exp = min(bound_exp, full_exp)
        mask = SizeMask(CacheGeometry(size_bytes=1 << full_exp, block_size=32), 1 << bound_exp)
        assert mask.resizing_tag_bits == full_exp - bound_exp
        sizes = mask.allowed_sizes(2)
        assert sizes[0] == 1 << bound_exp and sizes[-1] == 1 << full_exp
        assert all(b % a == 0 for a, b in zip(sizes, sizes[1:]))


# ----------------------------------------------------------------------
# DRI cache invariants
# ----------------------------------------------------------------------
class TestDRICacheProperties:
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=2**20 - 1), min_size=20, max_size=400),
        miss_bound=st.integers(min_value=0, max_value=50),
        bound_exp=st.integers(min_value=10, max_value=13),
    )
    @settings(max_examples=40, deadline=None)
    def test_size_always_within_bounds_and_power_of_two(self, trace, miss_bound, bound_exp):
        geometry = CacheGeometry(size_bytes=8 * 1024, block_size=32)
        size_bound = 1 << min(bound_exp, 13)
        parameters = DRIParameters(miss_bound=miss_bound, size_bound=size_bound, sense_interval=64)
        cache = DRIICache(geometry, parameters)
        for count, address in enumerate(trace, 1):
            cache.access(address)
            if count % cache.interval_length_accesses == 0:
                cache.end_interval()
            size = cache.current_size_bytes
            assert size_bound <= size <= geometry.size_bytes
            assert size & (size - 1) == 0
        cache.finalize()
        assert 0.0 < cache.dri_stats.average_size_fraction <= 1.0
        assert cache.dri_stats.accesses == len(trace)

    @given(trace=st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_resident_blocks_never_exceed_active_capacity(self, trace):
        geometry = CacheGeometry(size_bytes=4 * 1024, block_size=32)
        parameters = DRIParameters(miss_bound=5, size_bound=1024, sense_interval=32)
        cache = DRIICache(geometry, parameters)
        for count, address in enumerate(trace, 1):
            cache.access(address)
            if count % cache.interval_length_accesses == 0:
                cache.end_interval()
            active_blocks = cache.current_sets * geometry.associativity
            assert cache.resident_blocks() <= max(
                active_blocks, cache.geometry.num_blocks // 1
            )
            # Blocks never live in gated-off sets.
            for set_index in range(cache.current_sets, cache.num_sets):
                assert cache.set_tags(set_index) == ()


# ----------------------------------------------------------------------
# Energy model invariants
# ----------------------------------------------------------------------
class TestEnergyProperties:
    @given(
        cycles=st.integers(min_value=1, max_value=10**8),
        active_fraction=st.floats(min_value=0.0, max_value=1.0),
        bits=st.integers(min_value=0, max_value=8),
        extra_l2=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_breakdown_components_non_negative_and_consistent(
        self, cycles, active_fraction, bits, extra_l2
    ):
        model = EnergyModel()
        stats = RunStatistics(
            cycles=cycles,
            l1_accesses=cycles,
            active_fraction=active_fraction,
            resizing_tag_bits=bits,
            extra_l2_accesses=extra_l2,
        )
        breakdown = model.breakdown(stats)
        assert breakdown.l1_leakage_nj >= 0.0
        assert breakdown.extra_l1_dynamic_nj >= 0.0
        assert breakdown.extra_l2_dynamic_nj >= 0.0
        upper_bound = breakdown.conventional_leakage_nj + (
            breakdown.extra_l1_dynamic_nj + breakdown.extra_l2_dynamic_nj
        )
        assert breakdown.effective_leakage_nj <= upper_bound * (1.0 + 1e-12) + 1e-9
        assert breakdown.savings_fraction <= 1.0
        assert 0.0 <= breakdown.dynamic_fraction <= 1.0

    @given(
        active_small=st.floats(min_value=0.01, max_value=0.5),
        active_large=st.floats(min_value=0.5, max_value=1.0),
        cycles=st.integers(min_value=1000, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_smaller_active_fraction_never_costs_more_leakage(
        self, active_small, active_large, cycles
    ):
        model = EnergyModel()

        def leakage(fraction: float) -> float:
            return model.l1_leakage_nj(
                RunStatistics(
                    cycles=cycles,
                    l1_accesses=cycles,
                    active_fraction=fraction,
                    resizing_tag_bits=0,
                    extra_l2_accesses=0,
                )
            )

        assert leakage(active_small) <= leakage(active_large) + 1e-9


# ----------------------------------------------------------------------
# Engine differential: scalar == batched
# ----------------------------------------------------------------------
class _CutSource(TraceSource):
    """Serves every requested chunk further cut at the drawn lengths, so
    no piece is ever longer than the length the engine asked for."""

    def __init__(self, trace: InstructionTrace, cuts):
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
        cuts = cycle(self.cuts or [chunk_accesses])
        for start in range(0, addresses.shape[0], chunk_accesses):
            chunk = addresses[start : start + chunk_accesses]
            position = 0
            while position < chunk.shape[0]:
                take = next(cuts)
                yield chunk[position : position + take]
                position += take


@st.composite
def engine_cases(draw, l1_ways_log=st.integers(0, 3), max_intervals=5):
    """A random hierarchy, DRI configuration, policy, and chunked trace of
    up to ``max_intervals`` complete sense intervals."""
    l1_block_log = draw(st.integers(4, 6))
    l1_block = 1 << l1_block_log
    l1_ways = 1 << draw(l1_ways_log)
    l1_sets_log = draw(st.integers(1, 6))
    # Mostly L2 blocks at least the L1's, sometimes smaller.
    l2_block = 1 << max(4, l1_block_log + draw(st.sampled_from([-2, -1, 0, 1, 2])))
    l2 = CacheGeometry(
        size_bytes=l2_block << draw(st.integers(2, 8)),
        block_size=l2_block,
        associativity=1 << draw(st.integers(0, 2)),
        latency=12,
    )
    l1 = CacheGeometry(size_bytes=(l1_block * l1_ways) << l1_sets_log, block_size=l1_block,
                       associativity=l1_ways)
    interval = draw(st.integers(1, 100))  # accesses per sense interval
    parameters = DRIParameters(
        miss_bound=draw(st.integers(0, interval)),
        size_bound=(l1_block * l1_ways) << draw(st.integers(0, l1_sets_log)),
        sense_interval=interval * 8 + draw(st.integers(0, 7)),
        divisibility=draw(st.sampled_from([2, 4])),
        throttle=ThrottleConfig(counter_bits=draw(st.integers(1, 2)),
                                hold_intervals=draw(st.integers(0, 4))),
    ).with_policy(draw(st.sampled_from(["miss-bound"] + sorted(policy_names()))))
    # 0 to a few intervals plus a partial one, so some never close one.
    length = draw(st.integers(0, max_intervals)) * interval + draw(st.integers(0, interval - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def footprint():
        return int(rng.integers(1, 2 * (l1.size_bytes // 32) + 2))

    shape = draw(st.sampled_from(["random", "looping", "phased"]))
    if shape == "random":
        lines = rng.integers(0, footprint(), size=length)
    elif shape == "looping":
        body = rng.integers(0, footprint(), size=int(rng.integers(1, 64)))
        lines = np.resize(body, length)
    else:
        # 2-3 phases, each with its own footprint and base address.
        bounds = np.sort(rng.integers(0, length + 1, size=int(rng.integers(1, 3))))
        lines = np.concatenate([
            int(rng.integers(0, 1 << 20)) + rng.integers(0, footprint(), size=size)
            for size in np.diff(bounds, prepend=0, append=length)
        ])
    trace = InstructionTrace(name="fuzz", line_addresses=lines.astype(np.uint64) * 32)
    cuts = draw(st.lists(st.integers(1, 150), max_size=5))
    # The batched engine's L2 drain period; every engine is chunking
    # invariant, so any period is legal and short ones drain mid-run.
    drain_period = draw(st.integers(1, 300))
    system = SystemConfig(l1_icache=l1, l2_cache=l2)
    return system, parameters, _CutSource(trace, cuts), drain_period


def _counters(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions, stats.invalidations)


def _member(system, parameters, source, start=None):
    """A fresh (L1, L2/memory, parameters) run; ``None`` is conventional.
    A DRI run starts at size ``start`` when given (on its ladder or not)."""
    if parameters is None:
        icache = Cache(system.l1_icache)
    else:
        icache = DRIICache(
            system.l1_icache,
            parameters,
            address_bits=system.address_bits,
            instructions_per_access=source.instructions_per_line,
        )
        if start is not None:
            icache.controller.force_size(start)
    return icache, MemoryHierarchy(system), parameters


def _outcome(member, cycles):
    icache, hierarchy, parameters = member
    outcome = (
        cycles,
        _counters(icache.stats),
        _counters(hierarchy.l2.stats),
        (hierarchy.l2_accesses, hierarchy.l2_misses, hierarchy.memory.accesses),
        icache._tag_plane.tolist(),
        hierarchy.l2._tag_plane.tolist(),
    )
    if parameters is None:
        return outcome
    controller = icache.controller
    before_finalize = (
        (controller.current_size, controller._interval_index),
        (icache._interval_accesses, icache._interval_misses),
    )
    icache.finalize()
    dri = icache.dri_stats
    throttle = controller.throttle
    return outcome + before_finalize + (
        dri.intervals,
        (dri.upsizings, dri.downsizings, dri.throttled_downsizings, dri.size_histogram),
        (dri.accesses, dri.misses, dri.average_size_bytes),
        (throttle.counter, throttle.hold_remaining, throttle.engagements),
    )


def _replay_outcome(engine, system, parameters, source):
    member = _member(system, parameters, source)
    icache, hierarchy, _ = member
    return _outcome(member, engine(source, icache, hierarchy, 0.75, system, dri=parameters))


class TestEngineDifferential:
    @given(case=engine_cases())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scalar_and_batched_agree(self, case):
        """Counters, every interval record, the throttle, and the tag
        planes (each row in recency order) agree across the two engines,
        at a drawn L2 drain period."""
        system, parameters, source, drain_period = case
        with mock.patch("repro.simulation.engine.DEFAULT_CHUNK_ACCESSES", drain_period):
            scalar = _replay_outcome(replay_scalar, system, parameters, source)
            assert _replay_outcome(replay_batched, system, parameters, source) == scalar


@st.composite
def lockstep_cases(draw):
    """An engine case's hierarchy, trace (up to 12 intervals), cuts and
    drain period, replayed by 1-8 members: conventional runs, DRI runs
    with their own miss-bound, size-bound, policy, ladder divisibility
    (so one group mixes uneven ladders), throttle and, sometimes, a
    forced start size on or off the ladder, that share the case's
    interval, and copies of earlier members.  The L1 is
    direct-mapped in most cases, where members that share a set mask
    share one classification pass: a DRI run at full size shares the
    conventional runs' mask under another tag shift, a copy shares its
    original's mask and shift all along."""
    system, parameters, source, drain_period = draw(
        engine_cases(l1_ways_log=st.one_of(st.just(0), st.integers(0, 3)), max_intervals=12)
    )
    l1 = system.l1_icache
    interval = parameters.sense_interval // 8
    members = []
    kinds = ["conventional", "dri"]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds + ["copy"] if members else kinds))
        if kind == "copy":
            members.append(draw(st.sampled_from(members)))
        elif kind == "conventional":
            members.append((None, None))
        else:
            set_bytes = l1.block_size * l1.associativity
            size_bound_log = draw(st.integers(0, l1.index_bits))
            start_log = draw(st.one_of(st.none(), st.integers(size_bound_log, l1.index_bits)))
            dri = replace(
                parameters,
                miss_bound=draw(st.integers(0, interval)),
                size_bound=set_bytes << size_bound_log,
                divisibility=draw(st.sampled_from([2, 4, 8])),
                throttle=ThrottleConfig(counter_bits=draw(st.integers(1, 3)),
                                        hold_intervals=draw(st.integers(0, 4))),
            ).with_policy(draw(st.sampled_from(sorted(policy_names()))))
            members.append((dri, None if start_log is None else set_bytes << start_log))
    return system, members, source, drain_period


class TestLockstepDifferential:
    @given(case=lockstep_cases())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_member_matches_its_scalar_run(self, case):
        """One lockstep pass over the trace leaves every member exactly as
        its own scalar replay does: cycles, L1 and L2 counters (evictions
        included), controller size, interval index and open interval
        before ``finalize``, interval records, throttle state, and tag
        planes in recency order.  The drawn drain period also caps the
        bank's probes per classifier call, so chunks split across calls
        are drawn too.  Fresh members with one set mask share one leader
        (conventional runs, full-size DRI runs and copies start so), and
        a share group splits where their sizes part, so the drawn groups
        cover shares, splits, tag conversion between shifts and followers'
        rows written at the end; a member forced to a start size shares
        with those of its mask."""
        system, parameter_sets, source, drain_period = case
        with mock.patch.multiple(
            "repro.simulation.engine",
            DEFAULT_CHUNK_ACCESSES=drain_period,
            BANK_PROBES_PER_CALL=drain_period,
        ):
            members = [
                _member(system, parameters, source, start) for parameters, start in parameter_sets
            ]
            cycles = replay_lockstep(source, members, 0.75, system)
            for (parameters, start), member, member_cycles in zip(parameter_sets, members, cycles):
                scalar = _member(system, parameters, source, start)
                scalar_cycles = replay_scalar(source, *scalar[:2], 0.75, system, dri=scalar[2])
                assert _outcome(member, member_cycles) == _outcome(scalar, scalar_cycles)
