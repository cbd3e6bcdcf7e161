"""The deleted chunked kernel engine stays deleted.

``engine="kernel"`` once selected a Numba-compiled classification loop.
The name is now an unknown engine: the simulator and ``replay`` refuse
it whether or not Numba is importable.  :mod:`repro.memory.kernels`
itself is only a probe for Numba (see ``tests/test_engine.py``).
"""

from __future__ import annotations

import pytest

import repro.memory.kernels as kernels
from repro.config.system import SystemConfig
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import replay
from repro.simulation.simulator import Simulator
from repro.workloads.generator import generate_trace
from repro.workloads.spec95 import get_benchmark

SEED = 5


class TestKernelReplayEquivalence:
    def test_replay_kernel_engine_string(self):
        """``replay`` refuses both retired compiled-engine names before
        touching the trace or the caches."""
        trace = generate_trace(get_benchmark("swim"), total_instructions=8_000, seed=SEED)
        system = SystemConfig()
        icache = Cache(system.l1_icache)
        for retired in ("kernel", "kernel-fused"):
            with pytest.raises(ValueError, match="engine must be one of"):
                replay(trace, icache, MemoryHierarchy(system), 0.75, system, engine=retired)
        assert icache.stats.accesses == 0


class TestGracefulDegradation:
    def test_simulator_explicit_kernel_raises_at_construction(self, monkeypatch):
        """The retired ``engine="kernel"`` is refused when the simulator
        is built, whether or not Numba is importable."""
        for available in (False, True):
            monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", available)
            with pytest.raises(ValueError, match="engine must be one of"):
                Simulator(engine="kernel")
