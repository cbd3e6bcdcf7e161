"""Guarded Numba runtime for the compiled fused DRI loop.

Importing :mod:`repro` (or any kernel module) must never hard-require
Numba: the tier-1 environment is numpy-only, and the compiled engine is
an optional extra (``pip install .[kernel]``).  This module centralises
the one guarded import:

* :data:`NUMBA_AVAILABLE` — True iff ``import numba`` succeeded;
* :func:`numba_version` — the installed version string, or ``None``;
* :func:`kernel_jit` — ``numba.njit(cache=True, ...)`` when Numba is
  importable, otherwise the identity decorator, so every function in
  :mod:`repro.memory.kernels.dri_fused` is *also* a plain-Python function
  with identical semantics (the fallback the equivalence suite runs in
  Numba-free environments);
* :func:`require_numba` — the clear error the engine selector raises
  when ``engine="kernel-fused"`` is requested explicitly without Numba
  (``engine="auto"`` never raises: it silently falls back to
  ``batched``).

The fallback matrix (see DESIGN.md §10/§12):

================  ==========================  ==================================
engine request    Numba present               Numba absent
================  ==========================  ==================================
``auto``          ``kernel-fused``            ``batched`` (silent fallback)
``kernel-fused``  ``kernel-fused``;           :class:`KernelUnavailableError`
                  ``batched`` for runs the
                  fused loop cannot take
``batched``       ``batched``                 ``batched``
``scalar``        ``scalar``                  ``scalar``
================  ==========================  ==================================

The runs the fused loop cannot take are conventional and fixed-size
replays, policies without a ``compiled_step``, and an L2 block smaller
than the L1's.
"""

from __future__ import annotations

from typing import Callable, Optional

try:  # pragma: no cover - exercised via both branches across CI jobs
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

NUMBA_AVAILABLE: bool = _numba is not None
"""True iff Numba imported; the ``auto``/``kernel-fused`` selectors key off this."""

KERNEL_EXTRA = "kernel"
"""Name of the optional install extra that provides Numba."""


class KernelUnavailableError(RuntimeError):
    """Raised when ``engine="kernel-fused"`` is requested without Numba installed."""


def numba_version() -> Optional[str]:
    """The installed Numba version string, or ``None`` when absent."""
    if _numba is None:
        return None
    return _numba.__version__


def require_numba(engine: str = "kernel-fused") -> None:
    """Raise :class:`KernelUnavailableError` unless Numba is importable.

    Keys off :data:`NUMBA_AVAILABLE` (not the private import) so the
    selector and this guard can never disagree — including under test
    monkeypatching of the public flag.
    """
    if not NUMBA_AVAILABLE:
        raise KernelUnavailableError(
            f"engine {engine!r} requires Numba, which is not installed; "
            f"install the optional extra (pip install .[{KERNEL_EXTRA}]) "
            "or use engine='auto', which falls back to the batched engine"
        )


def kernel_jit(function: Callable) -> Callable:
    """``numba.njit(cache=True)`` when available, else the function itself.

    ``cache=True`` persists the compiled machine code on disk so repeated
    processes (sweep workers, CLI invocations) skip recompilation;
    ``nogil=True`` releases the GIL inside the compiled loop.
    """
    if _numba is None:
        return function
    return _numba.njit(cache=True, nogil=True)(function)
