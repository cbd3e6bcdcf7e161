"""Whether Numba is importable, for ``perfbench/run.py`` only.

Only perfbench imports this module: its setup probe and the provenance
line of every run read :data:`NUMBA_AVAILABLE` and :func:`numba_version`.
Nothing in the package needs Numba.  The next change to the benchmark
drops that import, the ``fused_chunk`` tracing wrapper and the
``dri.fused.*`` metrics; this module and ``DRIICache.fused_chunk`` then
go too.
"""

from __future__ import annotations

from typing import Optional

try:  # pragma: no cover - depends on the host
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

NUMBA_AVAILABLE: bool = _numba is not None


def numba_version() -> Optional[str]:
    """The installed Numba version string, or ``None`` when absent."""
    return None if _numba is None else _numba.__version__
