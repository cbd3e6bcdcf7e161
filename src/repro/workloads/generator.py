"""Turn a :class:`~repro.workloads.phases.WorkloadSpec` into an instruction trace.

The generator lays the workload's code out in a synthetic address space,
then walks it the way the spec describes:

* each phase occupies its own contiguous code region (phases of a real
  program are different functions, so they occupy different addresses);
* within a phase, execution repeatedly picks a loop according to the loop
  weights and traverses its lines sequentially ``repeats`` times;
* ``aliased`` loops are placed a multiple of the reference cache size away
  from the phase base so they collide with the first loop in a
  direct-mapped cache (conflict misses, Figure 6);
* a ``scatter_rate`` fraction of fetches is redirected to random lines of
  a large scatter region, producing the small background miss rate real
  codes show even when their loops fit in the cache.

Generation is deterministic for a given ``seed`` so every configuration of
a sweep sees exactly the same reference stream, and it does no per-line
Python work: each phase builds every loop's whole *visit* (its lines,
``repeats`` times, as byte addresses) once, and a batch of loop picks
becomes one ``np.concatenate`` of the picked visits, with no per-line
address arithmetic and no index array.  That costs a little per pick, so
a phase whose picks average a few dozen lines or less generates more
slowly than by a gather; every shipped spec averages hundreds of lines
per pick or more (DESIGN.md section 7).  The stream is produced in
bounded *segments*, so the same code either materialises a trace
(:func:`generate_trace`) or streams it lazily (:func:`stream_trace`) — a
100M-access trace replayed through a streaming
:class:`GeneratedTraceSource` never exists in memory, and both paths
yield bit-identical addresses by construction.
"""

from __future__ import annotations

import zlib
from typing import Iterator, List

import numpy as np

from repro.workloads.phases import PhaseSpec, WorkloadSpec
from repro.workloads.source import TraceSource, rechunk
from repro.workloads.trace import DEFAULT_INSTRUCTIONS_PER_LINE, DEFAULT_LINE_SIZE, InstructionTrace

PHASE_REGION_SPACING = 1 << 24
"""Address-space distance between successive phases' code regions (16 MB)."""

CODE_BASE_ADDRESS = 0x0040_0000
"""Base virtual address of the first phase's code (a typical text segment base)."""

SCATTER_BASE_ADDRESS = 0x2000_0000
"""Base virtual address of the scatter (cold code) region."""

ALIAS_STRIDE_BYTES = 64 * 1024
"""Aliased loops are placed this far from the phase base: equal to the
reference (64K) cache size, so their lines share index bits with the
phase's first loop in a direct-mapped cache of that size."""

SEGMENT_TARGET_LINES = 1 << 15
"""Target length of one internally generated segment (32K lines ≈ 256 KB
of uint64 addresses): the peak working memory of *streamed* generation,
independent of the trace length.  Segment boundaries depend only on the
workload spec and budget — never on the consumer's chunk size — so
streamed and materialised generation consume the RNG identically and
yield bit-identical address streams."""

MAX_PICK_BATCH = 4096
"""Upper bound on loop picks drawn per RNG call."""


def _phase_line_budget(spec: WorkloadSpec, total_lines: int) -> List[int]:
    """Number of trace lines each phase contributes, in order.

    Budgets are apportioned by the largest-remainder method: every phase
    gets the floor of its share and the leftover lines go to the phases
    with the largest fractional remainders.  This keeps every budget
    non-negative (dumping all rounding drift on the last phase could drive
    it negative when many short phases round up, silently truncating the
    trace) and guarantees the budgets sum exactly to ``total_lines``.
    """
    total_fraction = sum(phase.duration_fraction for phase in spec.phases)
    raw = [phase.duration_fraction / total_fraction * total_lines for phase in spec.phases]
    budgets = [int(share) for share in raw]
    leftover = total_lines - sum(budgets)
    by_remainder = sorted(
        range(len(raw)), key=lambda index: (budgets[index] - raw[index], index)
    )
    for index in by_remainder[:leftover]:
        budgets[index] += 1
    return budgets


def phase_change_accesses(
    spec: WorkloadSpec,
    total_instructions: int,
    instructions_per_line: int = DEFAULT_INSTRUCTIONS_PER_LINE,
) -> List[int]:
    """Ground-truth phase-change points of a generated trace, in accesses.

    Returns the (line-fetch) access indices at which the trace switches
    from one :class:`~repro.workloads.phases.PhaseSpec` to the next —
    exactly the boundaries :func:`generate_trace`/:func:`stream_trace`
    produce for the same arguments, derived from the same
    largest-remainder line budgets.  This is the labelled evaluation set
    the phase-detection resize policies are scored against: the generator
    *knows* where the phases are, so detected change intervals can be
    compared to the truth instead of eyeballed.
    """
    total_lines = total_instructions // instructions_per_line
    budgets = _phase_line_budget(spec, total_lines)
    boundaries: List[int] = []
    position = 0
    for budget in budgets[:-1]:
        position += budget
        boundaries.append(position)
    return boundaries


def _loop_layout(
    phase: PhaseSpec, phase_base_line: int, line_size: int, rng: np.random.Generator
) -> List[tuple]:
    """Place the phase's loops in the address space.

    Returns a list of ``(start_line, size_lines, repeats)`` tuples aligned
    with ``phase.loops``.
    """
    footprint_lines = max(1, phase.footprint_bytes // line_size)
    alias_stride_lines = ALIAS_STRIDE_BYTES // line_size
    layout = []
    for loop in phase.loops:
        size_lines = max(1, int(round(loop.size_fraction * footprint_lines)))
        max_start = max(0, footprint_lines - size_lines)
        offset = int(rng.integers(0, max_start + 1)) if max_start > 0 else 0
        start_line = phase_base_line + offset
        if loop.aliased:
            # Place the loop one reference-cache-size away but at the same
            # offset, so its lines collide with the first loop's lines in a
            # direct-mapped cache of the reference size.
            start_line = phase_base_line + alias_stride_lines + offset
        layout.append((start_line, size_lines, loop.repeats))
    return layout


def _phase_segments(
    phase: PhaseSpec,
    phase_index: int,
    num_lines: int,
    line_size: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Yield the phase's line-*address* stream in bounded uint64 segments.

    Every pick of a loop emits the same ``size * repeats`` addresses
    (``start + (position mod size)`` lines), so the phase builds each
    loop's whole *visit*, as byte addresses, once, and a batch of picks
    becomes one concatenation of the picked visits.  Picks are drawn from
    the weights' CDF, the draws ``rng.choice(len(layout), size, p=weights)``
    makes.  Scatter redirection is applied per emitted segment.
    """
    if num_lines <= 0:
        return
    phase_base_line = (CODE_BASE_ADDRESS + phase_index * PHASE_REGION_SPACING) // line_size
    layout = _loop_layout(phase, phase_base_line, line_size, rng)
    weights = np.asarray(phase.normalized_weights, dtype=np.float64)
    pick_lines = np.array([size * repeats for _, size, repeats in layout], dtype=np.int64)
    line_bytes = np.uint64(line_size)
    visits = [
        np.tile(np.arange(start, start + size, dtype=np.uint64), repeats) * line_bytes
        for start, size, repeats in layout
    ]
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    # Size the pick batches so one expanded segment lands near the target
    # length (spec-dependent only, so streaming stays chunk-invariant).
    expected = float(np.dot(weights, pick_lines))
    batch_size = int(min(MAX_PICK_BATCH, max(1, round(SEGMENT_TARGET_LINES / expected))))

    scatter_lines = max(1, phase.scatter_footprint_bytes // line_size)
    scatter_base_line = (SCATTER_BASE_ADDRESS + phase_index * PHASE_REGION_SPACING) // line_size

    emitted = 0
    while emitted < num_lines:
        choices = cdf.searchsorted(rng.random(batch_size), side="right")
        # A fresh array the scatter may write, cut to the phase's budget.
        segment = np.concatenate([visits[choice] for choice in choices.tolist()])
        segment = segment[: num_lines - emitted]
        total = segment.shape[0]
        emitted += total

        if phase.scatter_rate > 0.0:
            mask = rng.random(total) < phase.scatter_rate
            count = int(np.count_nonzero(mask))
            if count:
                draws = rng.integers(0, scatter_lines, size=count, dtype=np.int64)
                segment[mask] = (scatter_base_line + draws).astype(np.uint64) * line_bytes
        yield segment


class GeneratedTraceSource(TraceSource):
    """A workload spec streamed as sense-interval-alignable chunks.

    Every :meth:`chunks` call reseeds the generator and replays the exact
    same address stream (all cache configurations of a sweep must see one
    reference stream), holding at most one generation segment plus one
    output chunk in memory at a time.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        total_instructions: int = 800_000,
        seed: int = 2001,
        line_size: int = DEFAULT_LINE_SIZE,
        instructions_per_line: int = DEFAULT_INSTRUCTIONS_PER_LINE,
    ) -> None:
        if total_instructions < instructions_per_line:
            raise ValueError("total_instructions must cover at least one line fetch")
        self.spec = spec
        self.name = spec.name
        self.seed = seed
        self.instructions_per_line = instructions_per_line
        self.line_size = line_size
        self._total_lines = total_instructions // instructions_per_line
        self._budgets = _phase_line_budget(spec, self._total_lines)

    @property
    def num_accesses(self) -> int:
        return self._total_lines

    def _segments(self) -> Iterator[np.ndarray]:
        name_seed = zlib.crc32(self.spec.name.encode("utf-8"))
        rng = np.random.default_rng((self.seed, name_seed))
        for index, (phase, budget) in enumerate(zip(self.spec.phases, self._budgets)):
            yield from _phase_segments(phase, index, budget, self.line_size, rng)

    def chunks(self, chunk_accesses: int = 1 << 16) -> Iterator[np.ndarray]:
        return rechunk(self._segments(), chunk_accesses)

    def materialize(self) -> InstructionTrace:
        segments = list(self._segments())
        addresses = (
            np.concatenate(segments) if segments else np.empty(0, dtype=np.uint64)
        )
        return InstructionTrace(
            name=self.name,
            line_addresses=addresses,
            instructions_per_line=self.instructions_per_line,
            line_size=self.line_size,
        )


def stream_trace(
    spec: WorkloadSpec,
    total_instructions: int = 800_000,
    seed: int = 2001,
    line_size: int = DEFAULT_LINE_SIZE,
    instructions_per_line: int = DEFAULT_INSTRUCTIONS_PER_LINE,
) -> GeneratedTraceSource:
    """A lazily generated :class:`~repro.workloads.source.TraceSource`.

    Yields the same stream :func:`generate_trace` materialises, chunk by
    chunk, so arbitrarily long traces replay at flat memory.
    """
    return GeneratedTraceSource(
        spec,
        total_instructions=total_instructions,
        seed=seed,
        line_size=line_size,
        instructions_per_line=instructions_per_line,
    )


def generate_trace(
    spec: WorkloadSpec,
    total_instructions: int = 800_000,
    seed: int = 2001,
    line_size: int = DEFAULT_LINE_SIZE,
    instructions_per_line: int = DEFAULT_INSTRUCTIONS_PER_LINE,
) -> InstructionTrace:
    """Generate the instruction-fetch trace for one benchmark run.

    Parameters
    ----------
    spec:
        The workload model.
    total_instructions:
        Dynamic instruction count of the run; the trace holds
        ``total_instructions / instructions_per_line`` line fetches.
    seed:
        RNG seed; combined with the workload name so different benchmarks
        get decorrelated streams while the same benchmark is reproducible.
    """
    return stream_trace(
        spec,
        total_instructions=total_instructions,
        seed=seed,
        line_size=line_size,
        instructions_per_line=instructions_per_line,
    ).materialize()
