"""The fused DRI interval loop: the whole sense-interval cycle in one kernel.

The batched engine returns to Python at every sense interval to run
``end_interval`` — a boundary the conventional replay never pays.  This
module removes it: :func:`fused_dri_chunk` owns
per-access classification over the tag plane, interval-boundary
detection, the miss-bound resize decision, size-ladder stepping, throttle
accounting, set gating (invalidation), and the in-order L2 drain, so a
full :class:`~repro.workloads.source.TraceSource` chunk — regardless of
interval alignment — replays in one compiled call with **zero Python per
interval**.

The resize *mechanism* itself (ladder clamping, the saturating-counter
throttle, the hold window) lives here as pure array-state step functions
(:func:`mechanism_step`, :func:`throttle_tick_step`,
:func:`throttle_record_step`) shared verbatim by three callers:

* the scalar oracle — :class:`~repro.dri.controller.ResizeController`
  and :class:`~repro.dri.throttle.ResizeThrottle` call these exact
  functions one interval at a time;
* the batched engine — same controller path at chunk boundaries;
* the fused kernel — njit-to-njit calls inside the compiled loop.

so the three paths cannot drift.  This module must not import from
:mod:`repro.dri` (the dependency points the other way, exactly as
``dri_cache`` builds on ``memory.cache``); everything it needs arrives
as plain int64 arrays and scalars.

Array contracts (DESIGN.md §12)
-------------------------------
* ``ladder`` — ascending int64 allowed sizes in bytes,
  ``SizeMask.allowed_sizes`` as an array (``ladder[0]`` is the
  size-bound, ``ladder[-1]`` the full size).
* ``throttle_state`` — int64 ``[counter, hold_remaining, engagements]``
  (:data:`THROTTLE_COUNTER` / :data:`THROTTLE_HOLD` /
  :data:`THROTTLE_ENGAGEMENTS`), the live state of the run's
  ``ResizeThrottle`` — the kernel and the scalar oracle mutate the *same*
  array.
* ``run_state`` — int64 ``[current_size_bytes, interval_fill,
  interval_misses]`` carried across chunk calls so a mid-interval chunk
  cut resumes exactly where the previous call stopped.
* ``records`` — int64 ``(max_records, 6)`` out-array; each closed
  interval writes ``[accesses, misses, size_during, size_at_end,
  decision, throttled]`` (decision: :data:`DECIDE_NONE` /
  :data:`DECIDE_UPSIZE` / :data:`DECIDE_DOWNSIZE`).
* ``counters`` — int64 out-array of chunk totals, indexed by the
  ``C_*`` constants.

Only the miss-bound policy compiles today (``requested`` is derived
in-kernel from ``interval_misses`` vs ``miss_bound``); other policies
fall back to the batched engine via the per-policy
``compiled_step`` capability probe (see
:meth:`repro.dri.policies.base.ResizePolicy.compiled_step`).
"""

from __future__ import annotations

import numpy as np

from repro.memory.kernels.runtime import kernel_jit

# Decision codes shared by the kernel and the Python layer.  The order
# matches DECISION_NAMES so ``DECISION_NAMES[code]`` recovers the
# ResizeDecision enum value string.
DECIDE_NONE = 0
DECIDE_UPSIZE = 1
DECIDE_DOWNSIZE = 2
DECISION_NAMES = ("none", "upsize", "downsize")

# throttle_state layout
THROTTLE_COUNTER = 0
THROTTLE_HOLD = 1
THROTTLE_ENGAGEMENTS = 2
THROTTLE_STATE_SIZE = 3

# run_state layout
RUN_SIZE = 0
RUN_FILL = 1
RUN_MISSES = 2
RUN_STATE_SIZE = 3

# records columns
REC_ACCESSES = 0
REC_MISSES = 1
REC_SIZE_DURING = 2
REC_SIZE_AT_END = 3
REC_DECISION = 4
REC_THROTTLED = 5
REC_COLUMNS = 6

# counters layout
C_L1_MISSES = 0
C_L1_EVICTIONS = 1
C_INVALIDATIONS = 2
C_L2_HITS = 3
C_L2_MISSES = 4
C_L2_EVICTIONS = 5
COUNTER_SIZE = 6


@kernel_jit
def throttle_tick_step(throttle_state):
    """Advance the throttle by one sense interval (decrement an active
    hold; a hold that expires restarts the counter from zero)."""
    if throttle_state[THROTTLE_HOLD] > 0:
        throttle_state[THROTTLE_HOLD] -= 1
        if throttle_state[THROTTLE_HOLD] == 0:
            throttle_state[THROTTLE_COUNTER] = 0


@kernel_jit
def throttle_record_step(throttle_state, decision, saturation_value, hold_intervals):
    """Record one interval's decision: a resize (either direction) bumps
    the saturating counter, a quiet interval decays it; saturation while
    not already holding engages a ``hold_intervals``-long hold."""
    if decision == DECIDE_NONE:
        if throttle_state[THROTTLE_COUNTER] > 0:
            throttle_state[THROTTLE_COUNTER] -= 1
        return
    counter = throttle_state[THROTTLE_COUNTER] + 1
    if counter > saturation_value:
        counter = saturation_value
    throttle_state[THROTTLE_COUNTER] = counter
    if counter >= saturation_value and throttle_state[THROTTLE_HOLD] == 0:
        throttle_state[THROTTLE_HOLD] = hold_intervals
        throttle_state[THROTTLE_ENGAGEMENTS] += 1


@kernel_jit
def ladder_down(ladder, current_size, target_size):
    """The size one downsize reaches from ``current_size``.

    No target (``-1``): one rung down.  With a target: the smallest
    ladder size that is still >= the target, or the ladder bottom when
    the target sits below every smaller rung — exactly the controller's
    historical ``_downsized`` clamping.
    """
    count = 0
    for i in range(ladder.shape[0]):
        if ladder[i] < current_size:
            count += 1
    if count == 0:
        return current_size
    if target_size < 0:
        return ladder[count - 1]
    for i in range(count):
        if ladder[i] >= target_size:
            return ladder[i]
    return ladder[0]


@kernel_jit
def ladder_up(ladder, current_size, target_size):
    """The size one upsize reaches from ``current_size`` (mirror of
    :func:`ladder_down`: no target means one rung up, a target means the
    largest ladder size not above it, else the next rung)."""
    n = ladder.shape[0]
    first = n
    for i in range(n):
        if ladder[i] > current_size:
            first = i
            break
    if first == n:
        return current_size
    if target_size < 0:
        return ladder[first]
    best = -1
    for i in range(first, n):
        if ladder[i] <= target_size:
            best = i
    if best < 0:
        return ladder[first]
    return ladder[best]


@kernel_jit
def mechanism_step(
    ladder,
    throttle_state,
    current_size,
    requested,
    target_size,
    saturation_value,
    hold_intervals,
):
    """One interval boundary of the shared resize mechanism.

    Applies, in the controller's exact order: the throttle tick, the
    size-bound/full-size clamps, the downsizing hold, the ladder step
    (with target clamping), and the throttle's decision recording.
    Returns ``(decision, new_size, throttled)`` as int64s (``throttled``
    is 0/1: the policy asked to downsize but a hold refused it).
    """
    throttle_tick_step(throttle_state)
    decision = DECIDE_NONE
    throttled = 0
    if requested == DECIDE_DOWNSIZE and current_size > ladder[0]:
        if throttle_state[THROTTLE_HOLD] == 0:
            decision = DECIDE_DOWNSIZE
        else:
            throttled = 1
    elif requested == DECIDE_UPSIZE and current_size < ladder[ladder.shape[0] - 1]:
        decision = DECIDE_UPSIZE
    new_size = current_size
    if decision == DECIDE_DOWNSIZE:
        new_size = ladder_down(ladder, current_size, target_size)
    elif decision == DECIDE_UPSIZE:
        new_size = ladder_up(ladder, current_size, target_size)
    throttle_record_step(throttle_state, decision, saturation_value, hold_intervals)
    return decision, new_size, throttled


@kernel_jit
def fused_dri_chunk(
    blocks,
    plane,
    ranks,
    min_index_bits,
    bytes_per_set,
    l2_plane,
    l2_ranks,
    l2_shift,
    l2_index_mask,
    l2_index_bits,
    ladder,
    throttle_state,
    run_state,
    interval_length,
    miss_bound,
    saturation_value,
    hold_intervals,
    records,
    counters,
):
    """Replay one chunk of L1 block addresses through the whole DRI cycle.

    Per access: LRU probe of the active sets (one way degenerates to the
    direct-mapped probe: the rank is always 0 and never rewritten), an
    in-order L2 LRU drain on every L1 miss, and interval accounting; per
    closed interval: the miss-bound decision, :func:`mechanism_step`,
    and — on a downsize — gating the disabled sets off exactly as
    ``Cache.invalidate_range`` would (count the dropped blocks, clear the
    tags, restore the LRU ranks of the whole gated range to the fresh
    ``0..ways-1`` order, all only when at least one valid block dropped).
    Intervals may start, end, or span anywhere relative to the chunk:
    ``run_state`` carries the open interval across calls.

    Mutates ``plane``/``ranks``/``l2_plane``/``l2_ranks``/
    ``throttle_state``/``run_state``/``records``/``counters`` in place
    and returns the number of interval records written.
    """
    n = blocks.shape[0]
    ways = plane.shape[1]
    l2_ways = l2_plane.shape[1]
    full_sets = plane.shape[0]

    current_size = run_state[RUN_SIZE]
    fill = run_state[RUN_FILL]
    interval_misses = run_state[RUN_MISSES]
    set_mask = current_size // bytes_per_set - 1

    l1_misses = 0
    l1_evictions = 0
    invalidations = 0
    l2_hits = 0
    l2_misses = 0
    l2_evictions = 0
    n_records = 0

    for i in range(n):
        block = blocks[i]
        set_index = block & set_mask
        tag = block >> min_index_bits
        way = -1
        for candidate in range(ways):
            if plane[set_index, candidate] == tag:
                way = candidate
                break
        if way < 0:
            l1_misses += 1
            interval_misses += 1
            for candidate in range(ways):
                if plane[set_index, candidate] == -1:
                    way = candidate
                    break
            if way < 0:
                best_rank = ranks[set_index, 0]
                way = 0
                for candidate in range(1, ways):
                    if ranks[set_index, candidate] > best_rank:
                        best_rank = ranks[set_index, candidate]
                        way = candidate
                l1_evictions += 1
            plane[set_index, way] = tag
            # In-order L2 drain: the L1 miss stream fully determines the
            # L2 state, so probing here is bit-identical to the batched
            # engine's deferred drain.
            l2_block = block >> l2_shift
            l2_set = l2_block & l2_index_mask
            l2_tag = l2_block >> l2_index_bits
            l2_way = -1
            for candidate in range(l2_ways):
                if l2_plane[l2_set, candidate] == l2_tag:
                    l2_way = candidate
                    break
            if l2_way >= 0:
                l2_hits += 1
            else:
                l2_misses += 1
                for candidate in range(l2_ways):
                    if l2_plane[l2_set, candidate] == -1:
                        l2_way = candidate
                        break
                if l2_way < 0:
                    best_rank = l2_ranks[l2_set, 0]
                    l2_way = 0
                    for candidate in range(1, l2_ways):
                        if l2_ranks[l2_set, candidate] > best_rank:
                            best_rank = l2_ranks[l2_set, candidate]
                            l2_way = candidate
                    l2_evictions += 1
                l2_plane[l2_set, l2_way] = l2_tag
            l2_rank = l2_ranks[l2_set, l2_way]
            if l2_rank != 0:
                for candidate in range(l2_ways):
                    if l2_ranks[l2_set, candidate] < l2_rank:
                        l2_ranks[l2_set, candidate] += 1
                l2_ranks[l2_set, l2_way] = 0
        rank = ranks[set_index, way]
        if rank != 0:
            for candidate in range(ways):
                if ranks[set_index, candidate] < rank:
                    ranks[set_index, candidate] += 1
            ranks[set_index, way] = 0

        fill += 1
        if fill == interval_length:
            # Miss-bound rule (the paper's Figure 1): slack -> downsize,
            # overload -> upsize, exactly the bound -> hold.
            requested = DECIDE_NONE
            if interval_misses < miss_bound:
                requested = DECIDE_DOWNSIZE
            elif interval_misses > miss_bound:
                requested = DECIDE_UPSIZE
            decision, new_size, throttled = mechanism_step(
                ladder,
                throttle_state,
                current_size,
                requested,
                -1,
                saturation_value,
                hold_intervals,
            )
            if decision == DECIDE_DOWNSIZE and new_size != current_size:
                new_active = new_size // bytes_per_set
                dropped = 0
                for gated in range(new_active, full_sets):
                    for candidate in range(ways):
                        if plane[gated, candidate] != -1:
                            dropped += 1
                if dropped > 0:
                    for gated in range(new_active, full_sets):
                        for candidate in range(ways):
                            plane[gated, candidate] = -1
                            ranks[gated, candidate] = candidate
                    invalidations += dropped
            records[n_records, REC_ACCESSES] = fill
            records[n_records, REC_MISSES] = interval_misses
            records[n_records, REC_SIZE_DURING] = current_size
            records[n_records, REC_SIZE_AT_END] = new_size
            records[n_records, REC_DECISION] = decision
            records[n_records, REC_THROTTLED] = throttled
            n_records += 1
            current_size = new_size
            set_mask = current_size // bytes_per_set - 1
            fill = 0
            interval_misses = 0

    run_state[RUN_SIZE] = current_size
    run_state[RUN_FILL] = fill
    run_state[RUN_MISSES] = interval_misses
    counters[C_L1_MISSES] = l1_misses
    counters[C_L1_EVICTIONS] = l1_evictions
    counters[C_INVALIDATIONS] = invalidations
    counters[C_L2_HITS] = l2_hits
    counters[C_L2_MISSES] = l2_misses
    counters[C_L2_EVICTIONS] = l2_evictions
    return n_records


def make_throttle_state() -> np.ndarray:
    """A fresh throttle state array (counter 0, no hold, no engagements)."""
    return np.zeros(THROTTLE_STATE_SIZE, dtype=np.int64)
