"""CPU substrate: out-of-order timing accounting."""

from repro.cpu.pipeline import TimingBreakdown, TimingModel

__all__ = [
    "TimingBreakdown",
    "TimingModel",
]
