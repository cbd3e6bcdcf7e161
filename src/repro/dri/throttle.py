"""Resizing throttle (Section 2.1 / Section 5.3 of the paper).

If an application's ideal cache size sits between two adjacent DRI sizes,
the adaptive mechanism would otherwise bounce between them every interval:
too many misses at the small size (downsize was wrong, upsize), too few at
the large size (upsize looks wasteful, downsize), and so on.  The paper
suppresses this with a small saturating counter: when oscillation between
two adjacent sizes is detected repeatedly, **downsizing is blocked for a
fixed number of sense intervals** (ten in the paper) while upsizing
remains allowed.

The throttle is three plain ints (``counter``, ``hold_remaining``,
``engagements``) that the controller updates once per sense interval.
"""

from __future__ import annotations

from enum import Enum

from repro.config.parameters import ThrottleConfig


class ResizeDecision(Enum):
    """What the controller decided to do at an interval boundary."""

    NONE = "none"
    UPSIZE = "upsize"
    DOWNSIZE = "downsize"


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
        self.counter = 0
        """Current saturating-counter value."""
        self.hold_remaining = 0
        """Intervals left in the current hold period."""
        self.engagements = 0
        """How many times the throttle has engaged a hold."""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def holding(self) -> bool:
        """True while downsizing is being suppressed."""
        return self.hold_remaining > 0

    def downsize_allowed(self) -> bool:
        """Whether the controller may downsize this interval."""
        return not self.holding

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def interval_tick(self) -> None:
        """Advance one sense interval: decrement an active hold; a hold
        that expires restarts the counter from zero."""
        if self.hold_remaining > 0:
            self.hold_remaining -= 1
            if self.hold_remaining == 0:
                self.counter = 0

    def record(self, decision: ResizeDecision) -> None:
        """Record the controller's decision for this interval.

        A resize (either direction) bumps the counter; a quiet interval
        decays it by one.  Saturation while not already holding engages a
        hold of ``hold_intervals`` intervals during which downsizing is
        suppressed.
        """
        if decision is ResizeDecision.NONE:
            if self.counter > 0:
                self.counter -= 1
            return
        saturation = self.config.saturation_value
        self.counter = min(self.counter + 1, saturation)
        if self.counter >= saturation and self.hold_remaining == 0:
            self.hold_remaining = self.config.hold_intervals
            self.engagements += 1

    def reset(self) -> None:
        """Forget the counter and hold (``engagements`` is cumulative)."""
        self.counter = 0
        self.hold_remaining = 0
