"""The paper's miss-bound policy, extracted verbatim from the controller."""

from __future__ import annotations

from repro.dri.policies.base import IntervalStats, ResizePolicy, ResizeRequest, register_policy


@register_policy
class MissBoundPolicy(ResizePolicy):
    """The paper's Figure 1 rule: compare interval misses to a fixed bound.

    Fewer misses than the bound mean the cache has miss-rate slack and is
    over-provisioned (downsize); more misses mean the working set does not
    fit (upsize); exactly the bound means hold.  The policy is stateless —
    the bound is its only knob — and the controller's shared mechanism
    (ladder stepping, size-bound clamp, oscillation throttle) supplies the
    rest of the paper's behaviour, so this policy is bit-identical to the
    pre-refactor hard-wired controller.
    """

    name = "miss-bound"

    def __init__(self, miss_bound: int = 500) -> None:
        if miss_bound < 0:
            raise ValueError("miss_bound cannot be negative")
        self.miss_bound = miss_bound

    def observe(self, stats: IntervalStats) -> ResizeRequest:
        if stats.misses < self.miss_bound:
            return ResizeRequest.downsize()
        if stats.misses > self.miss_bound:
            return ResizeRequest.upsize()
        return ResizeRequest.none()
