"""The adaptive resizing controller of the DRI i-cache (Section 2.1).

At the end of every sense interval the controller asks its
:class:`~repro.dri.policies.base.ResizePolicy` what to do with the
interval's statistics.  Under the default
:class:`~repro.dri.policies.miss_bound.MissBoundPolicy` this is the
paper's Figure 1 rule:

* fewer misses than the miss-bound -> the cache has miss-rate slack, so it
  is over-provisioned -> **downsize** to save leakage;
* more misses than the bound -> the working set does not fit at this
  size -> **upsize** to bring the miss rate back under the bound.

This is what gives the miss-bound its meaning: it is the miss count per
interval the cache is allowed to approach, so a *larger* miss-bound
permits more aggressive downsizing (the paper's "aggressive"
configuration) and a smaller one keeps the cache close to conventional
behaviour ("conservative").

The controller itself is the **shared mechanism** every policy runs on:
downsizing is limited by the size-bound and may be suppressed by the
oscillation throttle; both resizing directions step along the reachable
size ladder that :meth:`~repro.dri.mask.SizeMask.allowed_sizes` defines
for the configured divisibility — the ladder is built from the size-bound
up, so the controller and the mask always agree on the set of sizes the
cache can occupy.  A policy may request a jump toward a target size (e.g.
a phase-change reset back to the full size); the mechanism clamps every
request to the ladder and the bounds, so no policy can reach a size the
hardware could not.  The controller owns no cache state, only the current
size, and reports decisions that the DRI i-cache applies to its tag/data
arrays.

At each boundary :meth:`ResizeController.end_of_interval` runs the
mechanism on plain ints, in a fixed order: ask the policy, tick the
throttle, apply the size-bound and full-size clamps and the downsizing
hold, step along the ladder (clamping any target), then record the
decision with the throttle.  The scalar and batched engines both reach
it through :meth:`~repro.dri.dri_cache.DRIICache.end_interval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config.parameters import DRIParameters
from repro.dri.mask import SizeMask
from repro.dri.policies import IntervalStats, ResizePolicy, ResizeRequest, build_policy
from repro.dri.throttle import ResizeDecision, ResizeThrottle


@dataclass(frozen=True)
class ResizeOutcome:
    """What happened at one interval boundary."""

    decision: ResizeDecision
    previous_size: int
    new_size: int
    miss_count: int
    throttled: bool
    requested: ResizeDecision = ResizeDecision.NONE
    """What the policy asked for before the mechanism's clamps/throttle."""

    @property
    def changed(self) -> bool:
        """True if the cache size actually changed."""
        return self.new_size != self.previous_size


class ResizeController:
    """Applies a resize policy's decisions at each sense-interval boundary.

    ``policy`` defaults to whatever ``parameters.policy`` names in the
    policy registry (the paper's miss-bound rule unless configured
    otherwise); passing an instance overrides the spec.
    """

    def __init__(
        self,
        parameters: DRIParameters,
        mask: SizeMask,
        policy: Optional[ResizePolicy] = None,
    ) -> None:
        if parameters.size_bound != mask.size_bound:
            raise ValueError("parameters.size_bound must match the mask's size_bound")
        self.parameters = parameters
        self.mask = mask
        self.policy = policy if policy is not None else build_policy(parameters.policy, parameters)
        self.throttle = ResizeThrottle(parameters.throttle)
        self._current_size = mask.geometry.size_bytes
        self._interval_index = 0
        # The one reachable-size ladder shared with the mask: built from
        # the size-bound up by the divisibility factor, full size included.
        self._ladder = mask.allowed_sizes(parameters.divisibility)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def current_size(self) -> int:
        """The cache size currently in effect, in bytes."""
        return self._current_size

    @property
    def current_sets(self) -> int:
        """The number of active sets currently in effect."""
        return self.mask.sets_for_size(self._current_size)

    @property
    def full_size(self) -> int:
        """The maximum (conventional) cache size in bytes."""
        return self.mask.geometry.size_bytes

    @property
    def at_minimum(self) -> bool:
        """True when the cache is at the size-bound."""
        return self._current_size <= self.parameters.size_bound

    @property
    def at_maximum(self) -> bool:
        """True when the cache is at its full size."""
        return self._current_size >= self.full_size

    @property
    def reachable_sizes(self) -> List[int]:
        """The sizes the controller can step through, smallest to largest."""
        return list(self._ladder)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _downsized(self, target_size: Optional[int] = None) -> int:
        """The size one downsize reaches from the current size.

        No target: one rung down.  With a target: the smallest rung below
        the current size that is still >= the target, or the ladder
        bottom when the target sits below every such rung.
        """
        below = [size for size in self._ladder if size < self._current_size]
        if not below:
            return self._current_size
        if target_size is None:
            return below[-1]
        return next((size for size in below if size >= target_size), below[0])

    def _upsized(self, target_size: Optional[int] = None) -> int:
        """The size one upsize reaches (mirror of :meth:`_downsized`: no
        target means one rung up, a target means the largest rung above
        the current size but not above the target, else the next rung)."""
        above = [size for size in self._ladder if size > self._current_size]
        if not above:
            return self._current_size
        if target_size is None:
            return above[0]
        reachable = [size for size in above if size <= target_size]
        return reachable[-1] if reachable else above[0]

    def end_of_interval(
        self,
        miss_count: int,
        accesses: Optional[int] = None,
        instructions: Optional[int] = None,
    ) -> ResizeOutcome:
        """Consult the policy for one finished sense interval and apply it.

        ``accesses``/``instructions`` enrich the policy's observation when
        the caller tracks them (the replay paths do); miss-count-only
        calls keep working for policies that need nothing more.  A
        downsize is refused at the size-bound and during a throttle hold
        (reported as ``throttled``); an upsize is refused at full size.
        """
        if miss_count < 0:
            raise ValueError("miss count cannot be negative")
        previous = self._current_size
        stats = IntervalStats(
            index=self._interval_index,
            misses=miss_count,
            accesses=accesses if accesses is not None else 0,
            instructions=instructions if instructions is not None else 0,
            current_size=previous,
            full_size=self.full_size,
            min_size=self.parameters.size_bound,
            at_minimum=self.at_minimum,
            at_maximum=self.at_maximum,
        )
        request = ResizeRequest.coerce(self.policy.observe(stats))
        throttle = self.throttle
        throttle.interval_tick()
        decision = ResizeDecision.NONE
        throttled = False
        if request.direction is ResizeDecision.DOWNSIZE and previous > self._ladder[0]:
            if throttle.holding:
                throttled = True
            else:
                decision = ResizeDecision.DOWNSIZE
                self._current_size = self._downsized(request.target_size)
        elif request.direction is ResizeDecision.UPSIZE and previous < self._ladder[-1]:
            decision = ResizeDecision.UPSIZE
            self._current_size = self._upsized(request.target_size)
        throttle.record(decision)
        self._interval_index += 1
        return ResizeOutcome(
            decision=decision,
            previous_size=previous,
            new_size=self._current_size,
            miss_count=miss_count,
            throttled=throttled,
            requested=request.direction,
        )

    def force_size(self, size_bytes: int) -> None:
        """Set the size directly (used by tests and by warm-start scenarios)."""
        self.mask.sets_for_size(size_bytes)  # validates range and power of two
        self._current_size = size_bytes

    def reset(self) -> None:
        """Return to the full size and clear throttle and policy state."""
        self._current_size = self.full_size
        self._interval_index = 0
        self.throttle.reset()
        self.policy.reset()
