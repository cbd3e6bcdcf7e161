"""Streaming trace sources: chunked access to instruction-fetch streams.

The paper replays hundreds of millions of fetches per configuration; at
that scale a trace must not be required to exist as one in-memory array.
A :class:`TraceSource` is the engine-facing abstraction: anything that can
*repeatably* yield the trace's line addresses as numpy uint64 chunks of a
caller-chosen length (the replay engines pick the sense-interval length,
so chunk boundaries land exactly on resize-decision points).

Concrete sources:

* :class:`ArrayTraceSource` — an in-memory
  :class:`~repro.workloads.trace.InstructionTrace`, sliced lazily;
* :class:`TraceStore` — a file-backed trace (raw ``.npy`` tag data plus a
  sidecar JSON with the trace metadata), memory-mapped on open so many
  sweep workers share one physical copy through the page cache;
* :class:`DinTraceSource` — an external Dinero/din-style address list
  (plain or gzipped text), parsed incrementally;
* ``GeneratedTraceSource`` (in :mod:`repro.workloads.generator`) — the
  synthetic-workload generator run lazily, so a 100M-access trace is
  produced and consumed chunk by chunk without ever being materialised.

Every source is **restartable**: each :meth:`TraceSource.chunks` call
starts a fresh pass over the same address stream, because one benchmark's
source is replayed under many cache configurations.  The contract is that
two passes (and passes with different chunk lengths) yield the identical
concatenated stream; :meth:`TraceSource.materialize` is that stream as an
:class:`~repro.workloads.trace.InstructionTrace`.
"""

from __future__ import annotations

import gzip
import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from repro.workloads.trace import (
    DEFAULT_INSTRUCTIONS_PER_LINE,
    DEFAULT_LINE_SIZE,
    InstructionTrace,
)

DEFAULT_SOURCE_CHUNK = 1 << 16
"""Default chunk length (in accesses) for callers with no alignment needs."""


def rechunk(segments: Iterable[np.ndarray], chunk_accesses: int) -> Iterator[np.ndarray]:
    """Re-cut a stream of arbitrary-length segments into fixed-size chunks.

    Yields uint64 arrays of exactly ``chunk_accesses`` elements, except for
    a final partial chunk.  This is how sources whose natural production
    granularity (a generator batch, a parsed text block) differs from the
    consumer's sense-interval alignment bridge the two without ever
    concatenating the whole stream.
    """
    if chunk_accesses < 1:
        raise ValueError("chunk_accesses must be at least 1")
    pending: list = []
    pending_len = 0
    for segment in segments:
        if segment.size == 0:
            continue
        position = 0
        length = segment.shape[0]
        while position < length:
            take = min(length - position, chunk_accesses - pending_len)
            piece = segment[position : position + take]
            position += take
            if not pending and take == chunk_accesses:
                yield np.ascontiguousarray(piece, dtype=np.uint64)
                continue
            pending.append(piece)
            pending_len += take
            if pending_len == chunk_accesses:
                yield np.concatenate(pending).astype(np.uint64, copy=False)
                pending = []
                pending_len = 0
    if pending:
        yield np.concatenate(pending).astype(np.uint64, copy=False)


class TraceSource(ABC):
    """A restartable, chunked view of one instruction-fetch stream."""

    name: str
    instructions_per_line: int
    line_size: int

    @property
    def base_name(self) -> str:
        """The benchmark the stream derives from (defaults to ``name``)."""
        return self.name

    @property
    @abstractmethod
    def num_accesses(self) -> int:
        """Number of line fetches in the stream."""

    @property
    def num_instructions(self) -> int:
        """Dynamic instructions the stream represents."""
        return self.num_accesses * self.instructions_per_line

    @abstractmethod
    def chunks(self, chunk_accesses: int = DEFAULT_SOURCE_CHUNK) -> Iterator[np.ndarray]:
        """A fresh pass over the stream in uint64 chunks of ``chunk_accesses``
        (the final chunk may be shorter)."""

    def materialize(self) -> InstructionTrace:
        """The whole stream as an in-memory :class:`InstructionTrace`."""
        pieces = list(self.chunks(DEFAULT_SOURCE_CHUNK))
        addresses = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.uint64)
        )
        return InstructionTrace(
            name=self.name,
            line_addresses=addresses,
            instructions_per_line=self.instructions_per_line,
            line_size=self.line_size,
            base_name=self.base_name if self.base_name != self.name else None,
        )


def as_trace_source(trace) -> TraceSource:
    """Coerce an :class:`InstructionTrace` (or pass through a source)."""
    if isinstance(trace, TraceSource):
        return trace
    if isinstance(trace, InstructionTrace):
        return ArrayTraceSource(trace)
    raise TypeError(f"expected an InstructionTrace or TraceSource, got {type(trace)!r}")


class ArrayTraceSource(TraceSource):
    """An in-memory trace viewed as a source (chunks are array slices)."""

    def __init__(self, trace: InstructionTrace) -> None:
        self.trace = trace
        self.name = trace.name
        self.instructions_per_line = trace.instructions_per_line
        self.line_size = trace.line_size

    @property
    def base_name(self) -> str:
        return self.trace.benchmark_name

    @property
    def num_accesses(self) -> int:
        return len(self.trace)

    def chunks(self, chunk_accesses: int = DEFAULT_SOURCE_CHUNK) -> Iterator[np.ndarray]:
        if chunk_accesses < 1:
            raise ValueError("chunk_accesses must be at least 1")
        addresses = self.trace.line_addresses
        for start in range(0, addresses.shape[0], chunk_accesses):
            yield addresses[start : start + chunk_accesses]

    def materialize(self) -> InstructionTrace:
        return self.trace


# ----------------------------------------------------------------------
# File-backed stores
# ----------------------------------------------------------------------
class TraceStore(TraceSource):
    """A trace persisted as raw ``.npy`` addresses plus a JSON sidecar.

    The address array is written with :func:`numpy.lib.format.open_memmap`
    and read back memory-mapped (``mmap_mode="r"``), so opening a store is
    O(1) in memory and every process that opens the same store shares one
    physical copy of the data through the OS page cache — this is what the
    parallel sweep ships to its workers instead of pickled arrays.

    A store lives at ``<base>.npy`` + ``<base>.json``; any of ``<base>``,
    ``<base>.npy``, or ``<base>.json`` addresses it.
    """

    def __init__(
        self,
        path: str | Path,
        name: str,
        instructions_per_line: int,
        line_size: int,
        base_name: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.name = name
        self.instructions_per_line = instructions_per_line
        self.line_size = line_size
        self._base_name = base_name
        self._mmap: Optional[np.ndarray] = None

    # -- path conventions ------------------------------------------------
    @staticmethod
    def _base_path(path: str | Path) -> Path:
        path = Path(path)
        if path.suffix in (".npy", ".json"):
            return path.with_suffix("")
        return path

    @classmethod
    def data_path(cls, path: str | Path) -> Path:
        """The ``.npy`` address file of the store at ``path``."""
        return cls._base_path(path).with_name(cls._base_path(path).name + ".npy")

    @classmethod
    def sidecar_path(cls, path: str | Path) -> Path:
        """The JSON metadata file of the store at ``path``."""
        return cls._base_path(path).with_name(cls._base_path(path).name + ".json")

    # -- creation --------------------------------------------------------
    @classmethod
    def save(cls, source, path: str | Path) -> "TraceStore":
        """Write ``source`` (a source or an in-memory trace) to a store.

        The addresses are streamed chunk by chunk into a pre-sized
        memory-mapped ``.npy`` file, so saving a lazily generated
        100M-access trace never materialises it.
        """
        source = as_trace_source(source)
        data_path = cls.data_path(path)
        if isinstance(source, TraceStore):
            # open_memmap(mode="w+") zeroes the target before anything is
            # read, so saving a store onto its own path would truncate
            # the very file being copied.  Refuse rather than corrupt.
            source_path = cls.data_path(source.path)
            if source_path.resolve() == data_path.resolve():
                raise ValueError(
                    f"TraceStore.save target {data_path} is the source "
                    f"store's own data file; saving would truncate the "
                    f"input before reading it — choose a different path"
                )
        data_path.parent.mkdir(parents=True, exist_ok=True)
        total = source.num_accesses
        out = np.lib.format.open_memmap(
            data_path, mode="w+", dtype=np.uint64, shape=(total,)
        )
        position = 0
        for chunk in source.chunks(DEFAULT_SOURCE_CHUNK):
            out[position : position + chunk.shape[0]] = chunk
            position += chunk.shape[0]
        if position != total:
            raise ValueError(
                f"source {source.name!r} yielded {position} accesses, "
                f"declared {total}"
            )
        out.flush()
        del out
        metadata = {
            "name": source.name,
            "base_name": source.base_name,
            "instructions_per_line": source.instructions_per_line,
            "line_size": source.line_size,
            "num_accesses": total,
        }
        cls.sidecar_path(path).write_text(
            json.dumps(metadata, indent=2) + "\n", encoding="utf-8"
        )
        return cls.open(path)

    @classmethod
    def open(cls, path: str | Path) -> "TraceStore":
        """Open an existing store, mmapping and checking its data file.

        Raises ``ValueError`` naming the offending file when the sidecar
        lacks a required key or the data is not a 1-D integer array.
        """
        sidecar = cls.sidecar_path(path)
        metadata = json.loads(sidecar.read_text(encoding="utf-8"))
        missing = [
            key for key in ("name", "instructions_per_line", "line_size") if key not in metadata
        ]
        if missing:
            raise ValueError(f"{sidecar}: missing key(s) {', '.join(map(repr, missing))}")
        data_path = cls.data_path(path)
        data = np.load(data_path, mmap_mode="r")
        if data.ndim != 1 or data.dtype.kind not in "iu":
            raise ValueError(
                f"{data_path}: expected a 1-D integer address array, "
                f"got shape {data.shape} of {data.dtype}"
            )
        base_name = metadata.get("base_name")
        store = cls(
            path=cls._base_path(path),
            name=metadata["name"],
            instructions_per_line=int(metadata["instructions_per_line"]),
            line_size=int(metadata["line_size"]),
            base_name=None if base_name == metadata["name"] else base_name,
        )
        store._mmap = data
        return store

    # -- TraceSource -----------------------------------------------------
    @property
    def base_name(self) -> str:
        return self._base_name if self._base_name is not None else self.name

    @property
    def addresses_mmap(self) -> np.ndarray:
        """The memory-mapped address array (opened lazily, then cached)."""
        if self._mmap is None:
            self._mmap = np.load(self.data_path(self.path), mmap_mode="r")
        return self._mmap

    @property
    def num_accesses(self) -> int:
        return int(self.addresses_mmap.shape[0])

    def chunks(self, chunk_accesses: int = DEFAULT_SOURCE_CHUNK) -> Iterator[np.ndarray]:
        if chunk_accesses < 1:
            raise ValueError("chunk_accesses must be at least 1")
        addresses = self.addresses_mmap
        for start in range(0, addresses.shape[0], chunk_accesses):
            # Copy the slice out of the map so downstream numpy work runs
            # on an ordinary (page-cache-warm) array of one chunk.
            yield np.array(addresses[start : start + chunk_accesses], dtype=np.uint64)

    def __reduce__(self):
        # Pickling a store ships only its path + metadata; each process
        # re-opens its own map (the whole point of the store).
        return (
            type(self),
            (self.path, self.name, self.instructions_per_line, self.line_size, self._base_name),
        )


# ----------------------------------------------------------------------
# External formats
# ----------------------------------------------------------------------
DIN_INSTRUCTION_LABELS = frozenset({"2"})
"""Dinero/din access-type labels that mean *instruction fetch* (label 2);
records with labels 0/1 (data read/write) are skipped."""


class DinTraceSource(TraceSource):
    """A Dinero/din-style address list parsed incrementally.

    The din trace format is one access per text line: either a bare hex
    address, or ``<label> <hex-address>`` where label 2 marks an
    instruction fetch (data accesses are skipped).  ``.gz`` files are
    decompressed on the fly, and addresses are aligned down to
    ``line_size`` so the stream matches the fetch-line granularity the
    rest of the pipeline runs at.

    Counting the accesses requires one full parse; the count is cached
    after the first pass (either an explicit :attr:`num_accesses` read or
    a complete :meth:`chunks` iteration).  For repeated replays, import
    the file into a :class:`TraceStore` once (`TraceStore.save(source,
    path)`) and replay the mmap-backed store instead.
    """

    PARSE_BLOCK_LINES = 1 << 16
    """Text lines parsed per internal segment."""

    def __init__(
        self,
        path: str | Path,
        name: Optional[str] = None,
        instructions_per_line: int = DEFAULT_INSTRUCTIONS_PER_LINE,
        line_size: int = DEFAULT_LINE_SIZE,
    ) -> None:
        self.path = Path(path)
        stem = self.path.name
        for suffix in (".gz", ".din", ".trace", ".txt"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        self.name = name if name is not None else stem
        self.instructions_per_line = instructions_per_line
        self.line_size = line_size
        self._num_accesses: Optional[int] = None

    def _open_text(self) -> IO[str]:
        if self.path.name.endswith(".gz"):
            return gzip.open(self.path, "rt", encoding="ascii", errors="strict")
        return open(self.path, "rt", encoding="ascii", errors="strict")

    def _segments(self) -> Iterator[np.ndarray]:
        mask = ~np.uint64(self.line_size - 1)
        with self._open_text() as stream:
            block: list = []
            for number, line in enumerate(stream, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                if len(parts) == 1:
                    address = parts[0]
                elif parts[0] in DIN_INSTRUCTION_LABELS:
                    address = parts[1]
                else:
                    continue
                try:
                    value = int(address, 16)
                except ValueError:
                    value = -1
                if not 0 <= value < 1 << 64:
                    raise ValueError(
                        f"{self.path}:{number}: address field {address!r} is not "
                        "a 64-bit hexadecimal address"
                    )
                block.append(value)
                if len(block) >= self.PARSE_BLOCK_LINES:
                    yield np.array(block, dtype=np.uint64) & mask
                    block = []
            if block:
                yield np.array(block, dtype=np.uint64) & mask

    @property
    def num_accesses(self) -> int:
        if self._num_accesses is None:
            self._num_accesses = sum(segment.shape[0] for segment in self._segments())
        return self._num_accesses

    def chunks(self, chunk_accesses: int = DEFAULT_SOURCE_CHUNK) -> Iterator[np.ndarray]:
        total = 0
        for chunk in rechunk(self._segments(), chunk_accesses):
            total += chunk.shape[0]
            yield chunk
        self._num_accesses = total


def import_external_trace(
    path: str | Path,
    store_path: str | Path,
    name: Optional[str] = None,
    instructions_per_line: int = DEFAULT_INSTRUCTIONS_PER_LINE,
    line_size: int = DEFAULT_LINE_SIZE,
) -> TraceStore:
    """Ingest a din-style address list into an mmap-backed trace store.

    One parse counts the accesses, a second streams them into the store's
    pre-sized ``.npy`` file; every replay after that is a memory-mapped
    read.  Returns the opened store.
    """
    source = DinTraceSource(
        path, name=name, instructions_per_line=instructions_per_line, line_size=line_size
    )
    return TraceStore.save(source, store_path)
