"""Resizing throttle (Section 2.1 / Section 5.3 of the paper).

If an application's ideal cache size sits between two adjacent DRI sizes,
the adaptive mechanism would otherwise bounce between them every interval:
too many misses at the small size (downsize was wrong, upsize), too few at
the large size (upsize looks wasteful, downsize), and so on.  The paper
suppresses this with a small saturating counter: when oscillation between
two adjacent sizes is detected repeatedly, **downsizing is blocked for a
fixed number of sense intervals** (ten in the paper) while upsizing
remains allowed.

The throttle's state lives in a three-slot int64 array (``state``) and
every update goes through the compiled step functions of
:mod:`repro.memory.kernels.dri_fused` — the *same* functions the fused
DRI kernel calls inside its interval loop.  The scalar oracle, the
batched engine, and the fused kernel therefore share one implementation
of the throttle semantics (and, on the fused path, one live array), so
they cannot drift.
"""

from __future__ import annotations

from enum import Enum

from repro.config.parameters import ThrottleConfig
from repro.memory.kernels.dri_fused import (
    DECIDE_DOWNSIZE,
    DECIDE_NONE,
    DECIDE_UPSIZE,
    THROTTLE_COUNTER,
    THROTTLE_ENGAGEMENTS,
    THROTTLE_HOLD,
    make_throttle_state,
    throttle_record_step,
    throttle_tick_step,
)


class ResizeDecision(Enum):
    """What the controller decided to do at an interval boundary."""

    NONE = "none"
    UPSIZE = "upsize"
    DOWNSIZE = "downsize"


DECISION_CODES = {
    ResizeDecision.NONE: DECIDE_NONE,
    ResizeDecision.UPSIZE: DECIDE_UPSIZE,
    ResizeDecision.DOWNSIZE: DECIDE_DOWNSIZE,
}
"""Enum -> kernel decision code (the kernel layer speaks int64 only)."""

CODE_DECISIONS = {code: decision for decision, code in DECISION_CODES.items()}
"""Kernel decision code -> enum."""


class ResizeThrottle:
    """Saturating-counter detector of repeated resizing.

    The counter tracks resizing *activity*: it increments on every
    interval that resizes (either direction) and decays by one on every
    interval that does not.  An application whose required size sits
    between two DRI sizes keeps resizing almost every interval — the
    counter climbs to saturation and the throttle blocks further
    downsizing for ``hold_intervals`` sense intervals (upsizing stays
    allowed, as the paper requires).  An application that resizes only at
    genuine phase transitions produces short bursts separated by long
    quiet stretches, so the counter decays back down and the throttle
    never engages.  When a hold expires the counter restarts from zero.
    """

    def __init__(self, config: ThrottleConfig | None = None) -> None:
        self.config = config if config is not None else ThrottleConfig()
        self.state = make_throttle_state()
        self._last_direction: ResizeDecision = ResizeDecision.NONE

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def counter(self) -> int:
        """Current saturating-counter value."""
        return int(self.state[THROTTLE_COUNTER])

    @property
    def holding(self) -> bool:
        """True while downsizing is being suppressed."""
        return int(self.state[THROTTLE_HOLD]) > 0

    @property
    def hold_remaining(self) -> int:
        """Intervals left in the current hold period."""
        return int(self.state[THROTTLE_HOLD])

    @property
    def engagements(self) -> int:
        """How many times the throttle has engaged a hold."""
        return int(self.state[THROTTLE_ENGAGEMENTS])

    def downsize_allowed(self) -> bool:
        """Whether the controller may downsize this interval."""
        return not self.holding

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def interval_tick(self) -> None:
        """Advance one sense interval (decrements an active hold)."""
        throttle_tick_step(self.state)

    def record(self, decision: ResizeDecision) -> None:
        """Record the controller's decision for this interval.

        A resize (either direction) bumps the counter; a quiet interval
        decays it by one.  Saturation engages a hold of ``hold_intervals``
        intervals during which downsizing is suppressed.
        """
        throttle_record_step(
            self.state,
            DECISION_CODES[decision],
            self.config.saturation_value,
            self.config.hold_intervals,
        )
        if decision is not ResizeDecision.NONE:
            self._last_direction = decision

    def reset(self) -> None:
        """Forget the counter and hold (``engagements`` is cumulative)."""
        self.state[THROTTLE_COUNTER] = 0
        self.state[THROTTLE_HOLD] = 0
        self._last_direction = ResizeDecision.NONE
