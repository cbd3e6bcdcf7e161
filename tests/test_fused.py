"""The deleted fused DRI engine stays deleted.

``engine="kernel-fused"`` once selected a Numba-compiled interval loop
and, without Numba, raised an error naming the ``[kernel]`` install
extra.  Both the engine and the extra are gone, so the name is now an
unknown engine: every entry point refuses it with the same
``ValueError`` whether or not Numba is importable, rather than running
another engine in its place.
"""

from __future__ import annotations

import pytest

import repro.memory.kernels as kernels
from repro.simulation.engine import ENGINE_KINDS, resolve_engine
from repro.simulation.simulator import Simulator


class TestFallbackMatrix:
    def test_retired_kernel_engine_is_rejected(self):
        assert ENGINE_KINDS == ("auto", "batched", "scalar")
        for retired in ("kernel", "kernel-fused"):
            with pytest.raises(ValueError, match="engine must be one of"):
                resolve_engine(retired)


class TestGracefulDegradation:
    def test_explicit_fused_without_numba_raises_named_extra(self, monkeypatch):
        """The refusal names the requested engine and the accepted ones;
        there is no install extra left to name."""
        for available in (False, True):
            monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", available)
            with pytest.raises(ValueError) as excinfo:
                resolve_engine("kernel-fused")
            message = str(excinfo.value)
            assert "'kernel-fused'" in message
            assert str(ENGINE_KINDS) in message
            assert "[kernel]" not in message

    def test_simulator_explicit_fused_raises_at_construction(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            Simulator(engine="kernel-fused")
