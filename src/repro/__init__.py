"""repro — a reproduction of the HPCA 2001 DRI i-cache.

The package implements the paper "An Integrated Circuit/Architecture
Approach to Reducing Leakage in Deep-Submicron High-Performance I-Caches"
(Yang, Powell, Falsafi, Roy, Vijaykumar) end to end:

* :mod:`repro.circuit` — technology scaling, subthreshold leakage, 6-T
  SRAM cells, gated-Vdd supply gating, and a CACTI-style energy model;
* :mod:`repro.memory` — the cache/memory-hierarchy substrate;
* :mod:`repro.dri` — the Dynamically ResIzable i-cache (the paper's core
  contribution);
* :mod:`repro.cpu` — out-of-order timing accounting;
* :mod:`repro.workloads` — synthetic SPEC95-like phase-structured
  workloads;
* :mod:`repro.energy` — the Section 5.2 energy accounting;
* :mod:`repro.simulation` — the simulator, parameter sweeps, and one
  driver per table/figure of the paper's evaluation;
* :mod:`repro.analysis` — text reports mirroring the paper's tables.

Quick start::

    from repro import DRIParameters, Simulator
    from repro.simulation import ParameterSweep

    sweep = ParameterSweep(Simulator(trace_instructions=200_000))
    point = sweep.evaluate("hydro2d", DRIParameters(miss_bound=60, size_bound=2048,
                                                    sense_interval=10_000))
    print(point.comparison.summary())
"""

from repro.config import (
    CacheGeometry,
    DRIParameters,
    MemoryTiming,
    PipelineConfig,
    PolicySpec,
    SystemConfig,
    ThrottleConfig,
)
from repro.dri import (
    DRIICache,
    ResizeController,
    ResizePolicy,
    SizeMask,
    build_policy,
    policy_names,
)
from repro.energy import EnergyConstants, EnergyModel, RunStatistics
from repro.memory import Cache, MemoryHierarchy
from repro.simulation import ParameterSweep, Simulator
from repro.workloads import (
    InstructionTrace,
    TraceSource,
    TraceStore,
    WorkloadSpec,
    generate_trace,
    get_benchmark,
    import_external_trace,
    stream_trace,
)

__version__ = "1.0.0"

__all__ = [
    "CacheGeometry",
    "DRIParameters",
    "MemoryTiming",
    "PipelineConfig",
    "PolicySpec",
    "SystemConfig",
    "ThrottleConfig",
    "DRIICache",
    "ResizeController",
    "ResizePolicy",
    "SizeMask",
    "build_policy",
    "policy_names",
    "EnergyConstants",
    "EnergyModel",
    "RunStatistics",
    "Cache",
    "MemoryHierarchy",
    "ParameterSweep",
    "Simulator",
    "InstructionTrace",
    "TraceSource",
    "TraceStore",
    "WorkloadSpec",
    "generate_trace",
    "get_benchmark",
    "import_external_trace",
    "stream_trace",
    "__version__",
]
