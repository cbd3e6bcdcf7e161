"""Shared fixtures for the test suite.

The architectural tests run at a deliberately small scale (tens of
thousands of instructions) so the whole suite stays fast; the benchmark
harness under ``benchmarks/`` is where the full-scale experiments live.
"""

from __future__ import annotations

import pytest

import repro.simulation.simulator as simulator_module
from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry, SystemConfig
from repro.simulation.simulator import Simulator


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A small direct-mapped i-cache geometry (8K, 32B lines)."""
    return CacheGeometry(size_bytes=8 * 1024, block_size=32, associativity=1, latency=1)


@pytest.fixture
def paper_geometry() -> CacheGeometry:
    """The paper's 64K direct-mapped L1 i-cache."""
    return CacheGeometry(size_bytes=64 * 1024, block_size=32, associativity=1, latency=1)


@pytest.fixture
def default_system() -> SystemConfig:
    """The Table 1 system configuration."""
    return SystemConfig()


@pytest.fixture
def quick_parameters() -> DRIParameters:
    """DRI parameters matched to the small test traces."""
    return DRIParameters(miss_bound=40, size_bound=1024, sense_interval=8_000)


@pytest.fixture
def quick_simulator() -> Simulator:
    """A simulator generating short traces for fast tests."""
    return Simulator(trace_instructions=120_000, seed=7)



@pytest.fixture
def generated(monkeypatch) -> list:
    """Names of the traces ``Simulator`` generates in this process, in
    call order (forked pool workers append to their own copy)."""
    names: list = []
    generate = simulator_module.generate_trace

    def counted(spec, *args, **kwargs):
        names.append(spec.name)
        return generate(spec, *args, **kwargs)

    monkeypatch.setattr(simulator_module, "generate_trace", counted)
    return names
