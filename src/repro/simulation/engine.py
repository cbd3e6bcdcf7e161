"""The trace-replay engines.

Conventional, fixed-size, and DRI runs all replay an instruction-fetch
stream through an L1 i-cache in front of the Table 1 L2/memory hierarchy.
This module provides that replay loop in two interchangeable engines,
scalar and batched:

* :func:`replay_scalar` — the original per-address Python loop (one dict
  probe per access), kept as the semantic reference;
* :func:`replay_batched` — numpy pieces of the stream: each piece is
  classified hit/miss vectorised through
  :meth:`~repro.memory.cache.Cache.access_batch`, DRI resize decisions are
  applied at sense-interval boundaries only — exactly where the scalar
  loop applies them — and the buffered L1 misses are drained through the
  L2 in one vectorised call
  (:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch_from_l1_misses`)
  per :data:`DEFAULT_CHUNK_ACCESSES` accesses, across sense intervals;
* :func:`replay_lockstep` — the same loop for every run that shares one
  trace and one sense interval: their L1s are stacked into one
  :class:`~repro.memory.cache.CacheBank` and each chunk is classified for
  all of them at once, so the trace is generated or read once per group
  rather than once per run (:func:`replay_batched` is its one-run call);
  runs whose resize histories agree share one classification and one L2.

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
The batched engine reads its source in *pieces* of at most
:data:`BANK_PROBES_PER_CALL` accesses, the classifier's own call size:
``min(interval, BANK_PROBES_PER_CALL)`` when the replay takes DRI
decisions, the cap itself when it takes none.  A piece that straddles a
sense-interval boundary is split there into two views, so the decision
points are the scalar loop's whatever the interval's length; an interval
of 1,562 accesses (Figure 3's 12,500 instructions) is one piece, and the
paper's 125,000-access interval is about eight.  A generated source
hands over each piece that lies inside one generation segment as a view.

The batched engine's L2 drain ignores interval boundaries: nothing
upstream of the L2 reads its state (L1 hits and resize decisions read
only L1 state, and an i-cache never writes back), so draining once per
:data:`DEFAULT_CHUNK_ACCESSES` accesses feeds it the same misses in the
same order, in fewer calls.  A drain falls at the end of a piece that
completes an interval (before that interval closes) once that many
accesses are pending, or at the end of any piece when no run takes
decisions, plus once at the end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.parameters import DRIParameters
from repro.config.system import SystemConfig
from repro.cpu.pipeline import TimingModel
from repro.dri.controller import ResizeGroup
from repro.dri.dri_cache import DRIICache
from repro.memory.cache import Cache, CacheBank, CacheStatistics
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.source import TraceSource, as_trace_source
from repro.workloads.trace import InstructionTrace

TraceLike = Union[InstructionTrace, TraceSource]
"""What the replay functions accept as the reference stream."""

DEFAULT_CHUNK_ACCESSES = 1 << 16
"""The batched engine's L2 drain period (in accesses), and the scalar
engine's chunk length."""

BANK_PROBES_PER_CALL = 1 << 14
"""Probes per classifier call, and the longest piece the batched engine
asks its source for: accesses per per-mask pass for a direct-mapped bank
(one pass serves every member with that set mask) and per
``access_batch`` call for a single run, composite probes per call for a
set-associative bank.  The cap bounds the scratch arrays and keeps each
call where numpy's cost per probe is lowest: on a 2-vCPU Xeon (4 MiB L2
per core, numpy 2.4) composite calls of 65,536 probes, whose arrays
outgrow the L2, made the streamed paper-scale campaign (perfbench's
``paper-scale-dm``) about 20% slower than calls of 16,384.  Reading the
source at this length rather than a whole interval at a time spares the
re-cut of generation segments into interval-sized copies and the
interval-sized block temporaries (DESIGN.md section 7)."""

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
    so classifying a piece up front and then draining its misses through
    the L2 in order preserves both the L1 and L2 reference streams.  The
    members share one L1 geometry and, where they take DRI decisions, one
    sense interval: the source is asked for pieces of at most
    ``min(interval, BANK_PROBES_PER_CALL)`` accesses, and a piece that
    straddles an interval boundary is classified as two views, so the
    decision points are the scalar loop's even when the stream is
    generated or read from disk on the fly.  With more than one member,
    every *complete* interval is closed for every DRI member at once by
    one :class:`~repro.dri.controller.ResizeGroup` pass; a single member
    closes it with its own ``end_interval``, the scalar engine's path,
    which costs less than an array pass over one member.  A trailing
    partial interval is left open for ``finalize``, exactly as the scalar
    loop leaves it.  When the replay returns, each member's controller,
    throttle, statistics and open interval are where its scalar replay
    leaves them.

    With more than one member, the L1s are stacked into one
    :class:`~repro.memory.cache.CacheBank` and each piece is classified
    for all of them at once, so the trace is generated or read once, not
    once per run; direct-mapped members that share a set mask share one
    sort of the piece.  A single member is classified through its own
    ``access_batch``.

    Shared histories: a cache changes state only by masking sets, so
    fresh members (:func:`_fresh`) with one set mask hold the same blocks
    and send their L2s the same misses for as long as their resize
    decisions agree.  Each such share group has one leader: the bank
    classifies only leaders and only leaders drain their L2s.  When a
    boundary gives a group's members different sizes, the bank splits it
    and each new leader continues from its old leader's L1 rows, L2 and
    miss counts, before gating wipes any rows.  When the replay returns,
    every follower holds its leader's rows (``settle``) and L2.

    Drain rule: the pieces and their ``(K, n)`` hit masks are kept until
    :data:`DEFAULT_CHUNK_ACCESSES` accesses are pending at the end of a
    piece that completes an interval, before that interval closes (at the
    end of any piece when no member takes decisions), plus once at the
    end; then the pieces are concatenated and each leader's misses are
    taken from them in order and drained through its own
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch_from_l1_misses`
    in one call.  Exact because L1 hits and resize decisions read only L1
    state and the i-cache never writes back: the L2 sees the same misses
    in the same order.  A split needs no fix-up of the kept masks: a
    follower's rows there are its leader's, and draining before the close
    hands a split's new leader an L2 that has already seen them.  The
    buffer holds at most one drain period plus one interval, so a source
    must not overwrite a piece it has yielded.
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
    interval = lengths.pop() if lengths else None
    piece_accesses = min(interval, BANK_PROBES_PER_CALL) if driven else BANK_PROBES_PER_CALL
    bank = group = None
    if len(caches) > 1:
        bank = CacheBank(
            caches, [_fresh(icache, hierarchy, system) for icache, hierarchy, _ in members]
        )
        if driven:
            group = ResizeGroup(
                [icache.controller for icache in driven], [icache.dri_stats for icache in driven]
            )

    miss_l2 = [0] * len(members)
    miss_memory = [0] * len(members)
    accesses = 0
    interval_fill = 0
    # The pieces not yet drained, each with its (K, n) hit mask.
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    undrained = 0

    def classify(piece: np.ndarray) -> None:
        nonlocal undrained
        if bank is None:
            hits = caches[0].access_batch(piece)[None]
        else:
            hits = bank.classify(piece, BANK_PROBES_PER_CALL)
        pending.append((piece, hits))
        undrained += piece.shape[0]

    def drain(due: int = 1) -> None:
        nonlocal undrained
        if undrained < due:
            return
        if len(pending) == 1:
            addresses, hits = pending[0]
        else:
            addresses = np.concatenate([piece for piece, _ in pending])
            hits = np.concatenate([piece_hits for _, piece_hits in pending], axis=1)
        pending.clear()
        undrained = 0
        misses = np.logical_not(hits, out=hits)
        for index in bank.leaders.tolist() if bank is not None else [0]:
            member_misses = addresses[misses[index]]
            if member_misses.size:
                l2_hits, l2_misses = members[index][1].access_batch_from_l1_misses(member_misses)
                miss_l2[index] += l2_hits
                miss_memory[index] += l2_misses

    def share_below(leader: int, follower: int) -> None:
        # A follower's L2 and memory are its leader's, as of the last drain.
        _copy_hierarchy(members[leader][1], members[follower][1])
        miss_l2[follower], miss_memory[follower] = miss_l2[leader], miss_memory[leader]

    def close_interval(instructions: int) -> None:
        if group is None:
            driven[0].end_interval(instructions=instructions)
            return
        resized, downsized = group.end_of_interval(*bank.close_intervals(rows), instructions)
        if resized.size:
            sets = group.sets
            # A split's new leader carries on from its old leader's state.
            for old, new in bank.set_masks(rows[resized], sets[resized] - 1):
                share_below(old, new)
            # Gating wipes the sets a downsize turns off.
            bank.invalidate_from(rows[downsized], sets[downsized])

    for piece in source.chunks(piece_accesses):
        if piece.shape[0] > piece_accesses:
            raise ValueError(
                "trace source yielded more than the requested chunk length "
                f"({piece.shape[0]} accesses for {piece_accesses})"
            )
        accesses += piece.shape[0]
        if not driven:
            classify(piece)
            drain(due=DEFAULT_CHUNK_ACCESSES)
            continue
        # Count accesses into the open interval rather than trusting each
        # piece to tile it: a piece that straddles a boundary is split
        # there, so intervals close at the same points as the scalar loop.
        while piece.shape[0]:
            take = interval - interval_fill
            head, piece = piece[:take], piece[take:]
            classify(head)
            interval_fill += head.shape[0]
            if interval_fill == interval:
                drain(due=DEFAULT_CHUNK_ACCESSES)
                close_interval(interval * instructions_per_line)
                interval_fill = 0
    drain()
    if bank is not None:
        bank.settle()
        for follower, leader in bank.followers():
            share_below(leader, follower)
    if group is not None:
        group.write_back()
    instructions = accesses * instructions_per_line
    return [
        _cycles(system, base_cpi, instructions, l2_hits, l2_misses)
        for l2_hits, l2_misses in zip(miss_l2, miss_memory)
    ]


def _fresh(icache: Cache, hierarchy: MemoryHierarchy, system: SystemConfig) -> bool:
    """True for a run no replay has touched, whose L1 and L2 contents are
    a function of its set-mask history alone: an empty L1 and an empty L2
    of ``system``'s geometry, and zero L1, L2, hierarchy and open-interval
    counters."""
    blank = CacheStatistics()
    return (
        icache.stats == blank
        and hierarchy.l2.stats == blank
        and icache._open_interval() == (0, 0)
        and hierarchy.l2_accesses == hierarchy.l2_misses == hierarchy.memory.accesses == 0
        and hierarchy.l2.geometry == system.l2_cache
        and icache.resident_blocks() == 0
        and hierarchy.l2.resident_blocks() == 0
    )


def _copy_hierarchy(source: MemoryHierarchy, target: MemoryHierarchy) -> None:
    """Leave ``target``'s L2 rows and statistics and its hierarchy counters
    equal to ``source``'s."""
    np.copyto(target.l2._tag_plane, source.l2._tag_plane)
    target.l2.stats = source.l2.stats.snapshot()
    target.l2_accesses, target.l2_misses = source.l2_accesses, source.l2_misses
    target.memory.accesses = source.memory.accesses


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
