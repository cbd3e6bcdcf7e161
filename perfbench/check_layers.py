"""Unit tests of the layer attribution in ``layers.py``.

Run from the repository root with ``python3 -m pytest perfbench/check_layers.py``
(the file name keeps it out of the package's own test collection).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from layers import L1, L2, Patches, Tracer  # noqa: E402
from repro.config.system import DEFAULT_SYSTEM  # noqa: E402
from repro.memory.cache import Cache  # noqa: E402
from repro.memory.hierarchy import MemoryHierarchy  # noqa: E402
from repro.simulation.engine import replay_batched  # noqa: E402
from repro.workloads.generator import stream_trace  # noqa: E402
from repro.workloads.spec95 import get_benchmark  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(layers, "perf_counter", fake)
    return fake


def addresses(count: int, stride: int = 32) -> np.ndarray:
    return (np.arange(count, dtype=np.uint64) * np.uint64(stride)) % np.uint64(1 << 22)


def test_self_time_subtracts_child_spans(clock):
    tracer = Tracer()
    tracer.enter("outer")
    clock.now = 1.0
    tracer.enter("inner")
    clock.now = 4.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    assert tracer.self_s == {"inner": 3.0, "outer": 7.0}
    assert tracer.root_s == 10.0
    assert tracer.other_s(12.0) == 2.0
    assert tracer.check(12.0) == []
    assert tracer.check(9.0) == ["root spans of 10.0 s exceed the 9.0 s wall"]


def test_l2_inner_access_batch_is_charged_to_l2(clock, monkeypatch):
    # The inner classification takes 5 fake seconds; the drain itself none.
    chunks = Cache._access_batch_chunks

    def slow_chunks(cache, batch, kernel=False):
        clock.now += 5.0
        return chunks(cache, batch, kernel=kernel)

    monkeypatch.setattr(Cache, "_access_batch_chunks", slow_chunks)
    tracer = Tracer()
    hierarchy = MemoryHierarchy(DEFAULT_SYSTEM)
    with Patches(tracer):
        l2_hits, l2_misses = hierarchy.access_batch_from_l1_misses(addresses(100))
    assert tracer.self_s[L2] == 5.0
    assert tracer.self_s.get(L1, 0.0) == 0.0
    assert tracer.counts["memory.l2.calls"] == 1
    assert tracer.counts["memory.l2.accesses"] == 100
    assert tracer.counts["memory.l2.misses"] == l2_misses
    assert "memory.l1.calls" not in tracer.counts


def test_l1_access_batch_outside_the_drain_is_l1(clock, monkeypatch):
    chunks = Cache._access_batch_chunks

    def slow_chunks(cache, batch, kernel=False):
        clock.now += 2.0
        return chunks(cache, batch, kernel=kernel)

    monkeypatch.setattr(Cache, "_access_batch_chunks", slow_chunks)
    tracer = Tracer()
    icache = Cache(DEFAULT_SYSTEM.l1_icache, name="L1I")
    with Patches(tracer):
        hits = icache.access_batch(addresses(64))
    assert tracer.self_s[L1] == 2.0
    assert tracer.counts["memory.l1.calls"] == 1
    assert tracer.counts["memory.l1.misses"] == 64 - int(hits.sum())


def test_replay_counts_and_uninstall():
    original = Cache.__dict__["access_batch"]
    source = stream_trace(get_benchmark("li"), total_instructions=8 * 200_000, seed=7)
    icache = Cache(DEFAULT_SYSTEM.l1_icache, name="L1I")
    hierarchy = MemoryHierarchy(DEFAULT_SYSTEM)
    tracer = Tracer()
    with Patches(tracer):
        replay_batched(source, icache, hierarchy, 1.0, DEFAULT_SYSTEM)
    counts = tracer.counts
    assert counts["workloads.accesses"] == 200_000
    assert counts["memory.l1.accesses"] == 200_000
    assert counts["memory.l1.misses"] == icache.stats.misses
    assert counts["memory.l2.accesses"] == icache.stats.misses == hierarchy.l2_accesses
    assert counts["memory.l2.misses"] == hierarchy.l2_misses
    assert tracer.check(tracer.root_s) == []
    assert Cache.__dict__["access_batch"] is original
