"""The trace-replay engines.

Conventional, fixed-size, and DRI runs all replay an instruction-fetch
stream through an L1 i-cache in front of the Table 1 L2/memory hierarchy.
This module provides that replay loop in two interchangeable engines,
scalar and batched:

* :func:`replay_scalar` — the original per-address Python loop (one dict
  probe per access), kept as the semantic reference;
* :func:`replay_batched` — sense-interval-aligned numpy chunks: each chunk
  is classified hit/miss vectorised through
  :meth:`~repro.memory.cache.Cache.access_batch`, DRI resize decisions are
  applied at chunk boundaries only — exactly where the scalar loop
  applies them — and the buffered L1 misses are drained through the L2
  in one vectorised call
  (:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch_from_l1_misses`)
  per :data:`DEFAULT_CHUNK_ACCESSES` accesses, across sense intervals;
* :func:`replay_lockstep` — the same loop for every run that shares one
  trace and one sense interval: their L1s are stacked into one
  :class:`~repro.memory.cache.CacheBank` and each chunk is classified for
  all of them at once, so the trace is generated or read once per group
  rather than once per run (:func:`replay_batched` is its one-run call).

Engine selection: ``"auto"`` means ``"batched"``; ``"scalar"`` stays as
the reference the tests compare the batched engine against.

Every engine consumes any
:class:`~repro.workloads.source.TraceSource` — an in-memory
:class:`~repro.workloads.trace.InstructionTrace` is coerced to one — and
never asks for more than one chunk at a time, so a streamed or mmapped
source replays a 100M-access trace at flat memory.  All produce
bit-identical hit/miss/eviction counts, DRI statistics, resize
trajectories, and cycle totals; the batched form is an order of magnitude
faster than the scalar one because the hot per-access work — at every
associativity, L1 and L2 alike — never enters the Python interpreter.

Chunking policy
---------------
DRI runs use one chunk per sense interval (the decision points *are* the
chunk boundaries).  Runs without resize decisions (conventional and
fixed-size caches) have no boundaries to respect and use a fixed large
chunk, :data:`DEFAULT_CHUNK_ACCESSES`, which bounds the working memory of
the classification scratch arrays.  In a lockstep group they take the
DRI members' interval chunks, which changes no outcome.

The batched engine's L2 drain ignores interval boundaries: nothing
upstream of the L2 reads its state (L1 hits and resize decisions read
only L1 state, and an i-cache never writes back), so draining once per
:data:`DEFAULT_CHUNK_ACCESSES` accesses feeds it the same misses in the
same order, in fewer calls.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.parameters import DRIParameters
from repro.config.system import SystemConfig
from repro.cpu.pipeline import TimingModel
from repro.dri.controller import ResizeGroup
from repro.dri.dri_cache import DRIICache
from repro.memory.cache import Cache, CacheBank
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.source import TraceSource, as_trace_source
from repro.workloads.trace import InstructionTrace

TraceLike = Union[InstructionTrace, TraceSource]
"""What the replay functions accept as the reference stream."""

DEFAULT_CHUNK_ACCESSES = 1 << 16
"""Chunk length (in accesses) for runs without sense-interval boundaries,
and the batched engine's L2 drain period."""

BANK_PROBES_PER_CALL = 1 << 14
"""Probes per classifier call in a lockstep replay: accesses per per-mask
pass for a direct-mapped bank (one pass serves every member with that set
mask), composite probes per call for a set-associative one.  The cap
bounds the scratch arrays and keeps each call where numpy's cost per probe
is lowest.  On a 2-vCPU Xeon (4 MiB L2 per core, numpy 2.4) the streamed
paper-scale campaign (perfbench's ``paper-scale-dm``) took 2.36-2.42 s at
16,384 composite probes per call and 2.86-2.99 s at 65,536, where the
classifier's arrays outgrow the L2.  With per-mask passes the same
campaign ran 2.52-2.64 s at 16,384 accesses per pass and 2.48-2.70 s at
65,536 (raw walls, six campaigns each), so the cap was kept."""

ENGINE_KINDS = ("auto", "batched", "scalar")
"""Accepted engine selectors; "auto" means "batched"."""


def resolve_engine(kind: str) -> str:
    """Validate an engine selector and map ``"auto"`` to ``"batched"``."""
    if kind not in ENGINE_KINDS:
        raise ValueError(f"engine must be one of {ENGINE_KINDS}, got {kind!r}")
    return "batched" if kind == "auto" else kind


def replay_scalar(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
) -> int:
    """Replay ``trace`` one address at a time; returns the cycle count.

    The stream is pulled chunk by chunk from its source (flat memory even
    for streamed sources); within a chunk the loop is the per-address
    reference semantics.
    """
    source = as_trace_source(trace)
    l2_latency = system.l1_miss_penalty
    instructions_per_line = source.instructions_per_line

    # The interval length is the cache's own conversion of the
    # instruction-denominated sense_interval, which both engines read.
    dri_cache = _driven(icache, dri)
    per_interval = dri_cache.interval_length_accesses if dri_cache is not None else 0

    access = icache.access
    miss_l2 = 0
    miss_memory = 0
    since_interval = 0
    accesses = 0

    for chunk in source.chunks(DEFAULT_CHUNK_ACCESSES):
        accesses += chunk.shape[0]
        for address in chunk.tolist():
            if not access(address).hit:
                response = hierarchy.access_from_l1_miss(address)
                if response.latency > l2_latency:
                    miss_memory += 1
                else:
                    miss_l2 += 1
            if dri_cache is not None:
                since_interval += 1
                if since_interval >= per_interval:
                    dri_cache.end_interval(
                        instructions=since_interval * instructions_per_line
                    )
                    since_interval = 0

    return _cycles(system, base_cpi, accesses * instructions_per_line, miss_l2, miss_memory)


def replay_batched(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
) -> int:
    """Replay ``trace`` in interval-aligned chunks; returns the cycle count.

    The one-member call of :func:`replay_lockstep`: a bank of one is the
    cache itself, so each chunk is classified through
    :meth:`~repro.memory.cache.Cache.access_batch` and each interval is
    closed by :meth:`~repro.dri.dri_cache.DRIICache.end_interval`.
    """
    return replay_lockstep(trace, [(icache, hierarchy, dri)], base_cpi, system)[0]


Member = Tuple[Cache, MemoryHierarchy, Optional[DRIParameters]]
"""One run of a lockstep replay: its L1, its L2/memory, and its DRI
parameters (``None`` for a run without interval decisions)."""


def _driven(icache: Cache, dri: Optional[DRIParameters]) -> Optional[DRIICache]:
    """The DRI cache whose sense intervals the engine closes, if any: a
    DRI cache replayed with ``dri`` parameters."""
    return icache if dri is not None and isinstance(icache, DRIICache) else None


def replay_lockstep(
    trace: TraceLike,
    members: Sequence[Member],
    base_cpi: float,
    system: SystemConfig,
) -> List[int]:
    """Replay ``trace`` once for every member; returns their cycle counts.

    Each member's outcome is bit-identical to its own :func:`replay_scalar`
    run.  The L1 hit/miss outcome of an access depends only on L1 state,
    so classifying a chunk up front and then draining its misses through
    the L2 in order preserves both the L1 and L2 reference streams.  The
    members share one L1 geometry and, where they take DRI decisions, one
    sense interval: the source is asked for chunks of exactly that length,
    so the chunk boundaries *are* the decision points even when the stream
    is generated or read from disk on the fly.  With more than one member,
    every *complete* interval is closed for every DRI member at once by
    one :class:`~repro.dri.controller.ResizeGroup` pass; a single member
    closes it with its own ``end_interval``, the scalar engine's path,
    which costs less than an array pass over one member.  A trailing
    partial interval is left open for ``finalize``, exactly as the scalar
    loop leaves it.  When the replay returns, each member's controller,
    throttle, statistics and open interval are where its scalar replay
    leaves them.

    With more than one member, the L1s are stacked into one
    :class:`~repro.memory.cache.CacheBank` and each chunk is classified
    for all of them in calls of at most :data:`BANK_PROBES_PER_CALL`
    probes, so the trace is generated or read once, not once per run;
    direct-mapped members that share a set mask share one sort of the
    chunk.  A single member is classified through its own
    ``access_batch``.

    Drain rule: the chunks and their ``(K, n)`` hit masks are kept until
    :data:`DEFAULT_CHUNK_ACCESSES` accesses have been classified (plus
    once at the end); then each member's misses are taken from them in
    order and drained through its own
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch_from_l1_misses`
    in one call.  Exact because L1 hits and resize decisions read only L1
    state and the i-cache never writes back: the L2 sees the same misses
    in the same order.  The buffer holds at most one drain period plus
    one chunk, so a source must not overwrite a chunk it has yielded.
    """
    source = as_trace_source(trace)
    instructions_per_line = source.instructions_per_line
    caches = [icache for icache, _, _ in members]
    drives = [_driven(icache, dri) for icache, _, dri in members]
    rows = np.array([row for row, icache in enumerate(drives) if icache is not None])
    driven = [icache for icache in drives if icache is not None]
    lengths = {icache.interval_length_accesses for icache in driven}
    if len(lengths) > 1:
        raise ValueError(f"lockstep members must share one sense interval, got {sorted(lengths)}")
    chunk_accesses = lengths.pop() if lengths else DEFAULT_CHUNK_ACCESSES
    bank = group = None
    if len(caches) > 1:
        bank = CacheBank(caches)
        if driven:
            group = ResizeGroup(
                [icache.controller for icache in driven], [icache.dri_stats for icache in driven]
            )

    miss_l2 = [0] * len(members)
    miss_memory = [0] * len(members)
    accesses = 0
    interval_fill = 0
    # The chunks not yet drained, each with its (K, n) hit mask.
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    undrained = 0

    def drain() -> None:
        if not pending:
            return
        if len(pending) == 1:
            addresses, hits = pending[0]
        else:
            addresses = np.concatenate([chunk for chunk, _ in pending])
            hits = np.concatenate([chunk_hits for _, chunk_hits in pending], axis=1)
        pending.clear()
        misses = np.logical_not(hits, out=hits)
        for index, (_, hierarchy, _) in enumerate(members):
            member_misses = addresses[misses[index]]
            if member_misses.size:
                l2_hits, l2_misses = hierarchy.access_batch_from_l1_misses(member_misses)
                miss_l2[index] += l2_hits
                miss_memory[index] += l2_misses

    def close_interval(instructions: int) -> None:
        if group is None:
            driven[0].end_interval(instructions=instructions)
            return
        resized, downsized = group.end_of_interval(*bank.close_intervals(rows), instructions)
        if resized.size:
            sets = group.sets
            # Gating wipes the sets a downsize turns off.
            for member in downsized.tolist():
                icache = driven[member]
                icache.invalidate_range(int(sets[member]), icache.num_sets)
            bank.set_masks(rows[resized], sets[resized] - 1)

    for chunk in source.chunks(chunk_accesses):
        accesses += chunk.shape[0]
        if bank is None:
            hits = caches[0].access_batch(chunk)[None]
        else:
            hits = bank.classify(chunk, BANK_PROBES_PER_CALL)
        pending.append((chunk, hits))
        undrained += chunk.shape[0]
        if undrained >= DEFAULT_CHUNK_ACCESSES:
            drain()
            undrained = 0
        if driven:
            # Count accesses into the open interval rather than trusting
            # each chunk to be exactly interval-sized: a source that cuts
            # a short chunk mid-stream still closes intervals at the same
            # points as the scalar loop.
            interval_fill += chunk.shape[0]
            if interval_fill > chunk_accesses:
                raise ValueError(
                    "trace source yielded more than the requested chunk length "
                    f"({interval_fill} accesses into a {chunk_accesses}-access interval)"
                )
            if interval_fill == chunk_accesses:
                close_interval(interval_fill * instructions_per_line)
                interval_fill = 0
    drain()
    if bank is not None:
        bank.settle()
    if group is not None:
        group.write_back()
    instructions = accesses * instructions_per_line
    return [
        _cycles(system, base_cpi, instructions, l2_hits, l2_misses)
        for l2_hits, l2_misses in zip(miss_l2, miss_memory)
    ]


def _cycles(
    system: SystemConfig, base_cpi: float, instructions: int, miss_l2: int, miss_memory: int
) -> int:
    """Cycles of a run: its instructions at ``base_cpi`` plus the fetch
    misses serviced by the L2 and by memory."""
    timing = TimingModel(pipeline=system.pipeline, base_cpi=base_cpi)
    timing.account_instructions(instructions)
    timing.account_fetch_misses(system.l1_miss_penalty, miss_l2)
    timing.account_fetch_misses(system.l1_miss_penalty + system.l2_miss_penalty, miss_memory)
    return timing.cycles


def replay(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
    engine: str = "auto",
) -> int:
    """Replay a trace with the selected engine; returns the cycle count."""
    if resolve_engine(engine) == "batched":
        return replay_batched(trace, icache, hierarchy, base_cpi, system, dri)
    return replay_scalar(trace, icache, hierarchy, base_cpi, system, dri)
