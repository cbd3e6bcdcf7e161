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
decision with the throttle.  The scalar engine reaches it through
:meth:`~repro.dri.dri_cache.DRIICache.end_interval`; it is the reference
for :class:`ResizeGroup`, which runs the same steps in the same order as
one array pass over every DRI member of a batched replay.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config.parameters import DRIParameters
from repro.dri.mask import SizeMask
from repro.dri.policies import IntervalStats, MissBoundPolicy, ResizePolicy, ResizeRequest
from repro.dri.policies import build_policy
from repro.dri.stats import DRIStatistics
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
    def _downsized(self, current: int, target_size: Optional[int] = None) -> int:
        """The size one downsize reaches from size ``current``.

        No target: one rung down.  With a target: the smallest rung below
        the current size that is still >= the target, or the ladder
        bottom when the target sits below every such rung.
        """
        below = [size for size in self._ladder if size < current]
        if not below:
            return current
        if target_size is None:
            return below[-1]
        return next((size for size in below if size >= target_size), below[0])

    def _upsized(self, current: int, target_size: Optional[int] = None) -> int:
        """The size one upsize reaches (mirror of :meth:`_downsized`: no
        target means one rung up, a target means the largest rung above
        the current size but not above the target, else the next rung)."""
        above = [size for size in self._ladder if size > current]
        if not above:
            return current
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
        request = self._request(
            self._interval_index, miss_count, accesses or 0, instructions or 0, previous
        )
        throttle = self.throttle
        throttle.interval_tick()
        decision = ResizeDecision.NONE
        throttled = False
        if request.direction is ResizeDecision.DOWNSIZE and previous > self._ladder[0]:
            if throttle.holding:
                throttled = True
            else:
                decision = ResizeDecision.DOWNSIZE
                self._current_size = self._downsized(previous, request.target_size)
        elif request.direction is ResizeDecision.UPSIZE and previous < self._ladder[-1]:
            decision = ResizeDecision.UPSIZE
            self._current_size = self._upsized(previous, request.target_size)
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

    def _request(
        self, index: int, misses: int, accesses: int, instructions: int, current: int
    ) -> ResizeRequest:
        """Ask the policy about one finished interval run at size ``current``."""
        stats = IntervalStats(
            index=index,
            misses=misses,
            accesses=accesses,
            instructions=instructions,
            current_size=current,
            full_size=self.full_size,
            min_size=self.parameters.size_bound,
            at_minimum=current <= self.parameters.size_bound,
            at_maximum=current >= self.full_size,
        )
        return ResizeRequest.coerce(self.policy.observe(stats))

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


_STEPS = {ResizeDecision.DOWNSIZE: -1, ResizeDecision.NONE: 0, ResizeDecision.UPSIZE: 1}
"""A request's direction as a rung step."""


class ResizeGroup:
    """The controllers of a batched replay, closing a sense interval in one
    array pass.

    The DRI members of a lockstep group cross every boundary on the same
    access, so their mechanism state lives in length-K arrays: the size
    and rung of each in its own ladder (a row of a ``(K, L)`` matrix
    padded above the top), the throttle (counter, hold, engagements,
    saturation value, hold length) and the interval index.
    :meth:`end_of_interval` runs the steps of
    :meth:`ResizeController.end_of_interval`, in its order, on all K;
    :meth:`write_back` then leaves each controller, throttle and
    statistics object where K scalar calls per boundary would have.

    A size off the ladder (:meth:`ResizeController.force_size` can set
    one) lies strictly between two rungs, so both steps are open from it:
    the member keeps it, with the rung above it as its rung and one more
    rung of headroom, until its first resize, which the controller's own
    step takes.
    """

    def __init__(
        self, controllers: Sequence[ResizeController], statistics: Sequence[DRIStatistics]
    ) -> None:
        self.controllers = list(controllers)
        self.statistics = list(statistics)
        ladders = [controller._ladder for controller in self.controllers]
        sizes = [controller.current_size for controller in self.controllers]
        width = max(len(ladder) for ladder in ladders)
        matrix = np.full((len(ladders), width), np.iinfo(np.int64).max, dtype=np.int64)
        for row, ladder in enumerate(ladders):
            matrix[row, : len(ladder)] = ladder
        self._sizes = matrix.ravel()
        self._row_starts = np.arange(len(ladders)) * width
        # Row -> size, for the members off their ladder.
        self._off = {
            row: size
            for row, (size, ladder) in enumerate(zip(sizes, ladders))
            if size not in ladder
        }

        def column(values):
            return np.array(list(values), dtype=np.int64)

        throttles = [controller.throttle for controller in self.controllers]
        self._size = column(sizes)
        self._rung = column(bisect_left(ladder, size) for size, ladder in zip(sizes, ladders))
        # The highest rung the one-rung step may reach.  A member off its
        # ladder sits below its rung, so it may step one past the top; the
        # controller's own step then lands it on the rung above its size.
        self._top = column(
            len(ladder) - (row not in self._off) for row, ladder in enumerate(ladders)
        )
        self._set_bytes = column(controller.mask.size_for_sets(1) for controller in controllers)
        self._counter = column(throttle.counter for throttle in throttles)
        self._hold = column(throttle.hold_remaining for throttle in throttles)
        self._engagements = column(throttle.engagements for throttle in throttles)
        self._saturation = column(throttle.config.saturation_value for throttle in throttles)
        self._hold_length = column(throttle.config.hold_intervals for throttle in throttles)
        self._index = column(controller._interval_index for controller in controllers)
        # The stateless miss-bound rule is one comparison with each bound;
        # any other policy is asked per member.
        self._bounds = column(getattr(c.policy, "miss_bound", 0) for c in controllers)
        self._asking = [
            row for row, c in enumerate(controllers) if type(c.policy) is not MissBoundPolicy
        ]
        # Per closed interval: its instructions, and per member its
        # accesses, misses, size during and after, and throttling.
        self._log: List[tuple] = []

    @property
    def sets(self) -> np.ndarray:
        """Each member's active sets."""
        return self._size // self._set_bytes

    def end_of_interval(
        self, accesses: np.ndarray, misses: np.ndarray, instructions: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Close one interval of ``instructions`` for every member, given
        their interval ``accesses`` and ``misses``; returns the indices of
        the members that resized and of those that downsized."""
        rung, previous, hold, counter = self._rung, self._size, self._hold, self._counter
        # 1. Request, as a rung step: -1 downsize, +1 upsize, 0 none.
        wanted = np.sign(misses - self._bounds)
        targets = {}
        for row in self._asking:
            request = self.controllers[row]._request(
                int(self._index[row]), int(misses[row]), int(accesses[row]), instructions,
                int(previous[row]),
            )
            wanted[row] = _STEPS[request.direction]
            if request.target_size is not None:
                targets[row] = request.target_size
        # 2. Throttle tick: a hold counts down; one that expires resets the counter.
        counter *= hold != 1
        hold -= hold > 0
        # 3. Clamps: stay on the ladder; a downsize during a hold is
        # refused and counted as throttled.
        new = rung + wanted
        np.maximum(new, 0, out=new)
        np.minimum(new, self._top, out=new)
        throttled = (new < rung) & (hold > 0)
        new += throttled
        # 4. Ladder step: one rung, or as the controller steps toward a
        # target or from a size off the ladder.
        for row in targets.keys() | self._off.keys():
            if new[row] != rung[row]:
                controller = self.controllers[row]
                step = controller._upsized if new[row] > rung[row] else controller._downsized
                new[row] = controller._ladder.index(step(int(previous[row]), targets.get(row)))
                if self._off.pop(row, None) is not None:
                    self._top[row] -= 1
        size = self._sizes[self._row_starts + new]
        for row, off_size in self._off.items():
            size[row] = off_size
        # 5. Record: a change bumps the counter (saturating), a quiet
        # interval decays it; saturation (only a change reaches it)
        # engages a hold unless one runs.
        changed = size != previous
        counter += 2 * changed - 1
        np.maximum(counter, 0, out=counter)
        np.minimum(counter, self._saturation, out=counter)
        engage = (counter >= self._saturation) & (hold == 0)
        np.copyto(hold, self._hold_length, where=engage)
        self._engagements += engage
        self._index += 1
        self._rung, self._size = new, size
        self._log.append((instructions, accesses, misses, previous, size, throttled))
        return changed.nonzero()[0], (size < previous).nonzero()[0]

    def write_back(self) -> None:
        """Write each member's size, interval index, throttle state and
        closed intervals back to its controller and statistics."""
        state = zip(
            self.controllers,
            self._size.tolist(),
            self._index.tolist(),
            self._counter.tolist(),
            self._hold.tolist(),
            self._engagements.tolist(),
        )
        for controller, size, index, counter, hold, engagements in state:
            controller._current_size, controller._interval_index = size, index
            throttle = controller.throttle
            throttle.counter, throttle.hold_remaining = counter, hold
            throttle.engagements = engagements
        if not self._log:
            return
        instructions, *columns, throttled = zip(*self._log)
        accesses, misses, during, after = (np.stack(c, axis=1).tolist() for c in columns)
        throttled = np.sum(throttled, axis=0).tolist()
        for row, stats in enumerate(self.statistics):
            resized = [
                "upsize" if new > old else "downsize" if new < old else "none"
                for old, new in zip(during[row], after[row])
            ]
            stats.extend_intervals(
                instructions, accesses[row], misses[row], during[row], after[row], resized,
                throttled[row],
            )
        self._log.clear()
