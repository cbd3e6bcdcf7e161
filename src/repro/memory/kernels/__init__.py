"""The compiled fused DRI loop (optional Numba layer, DESIGN.md §10/§12).

:mod:`~repro.memory.kernels.dri_fused` runs the whole DRI sense-interval
cycle over the same dense tag plane and LRU rank arrays the batched numpy
classifiers use.  Importing this package never requires Numba: without
it, the same functions run as bit-identical pure-Python fallbacks (see
:mod:`repro.memory.kernels.runtime`).
"""

from repro.memory.kernels.dri_fused import (
    DECISION_NAMES,
    fused_dri_chunk,
    ladder_down,
    ladder_up,
    make_throttle_state,
    mechanism_step,
    throttle_record_step,
    throttle_tick_step,
)
from repro.memory.kernels.runtime import (
    KERNEL_EXTRA,
    NUMBA_AVAILABLE,
    KernelUnavailableError,
    kernel_jit,
    numba_version,
    require_numba,
)

__all__ = [
    "DECISION_NAMES",
    "fused_dri_chunk",
    "ladder_down",
    "ladder_up",
    "make_throttle_state",
    "mechanism_step",
    "throttle_record_step",
    "throttle_tick_step",
    "KERNEL_EXTRA",
    "NUMBA_AVAILABLE",
    "KernelUnavailableError",
    "kernel_jit",
    "numba_version",
    "require_numba",
]
