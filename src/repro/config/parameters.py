"""DRI i-cache adaptivity parameters (Section 2.1 of the paper).

The DRI i-cache is controlled by four parameters:

* ``miss_bound`` — the miss count per sense interval the cache is allowed
  to approach: below it the cache downsizes (it has miss-rate slack),
  above it the cache upsizes (fine-grain control).  Larger miss-bounds
  therefore downsize more aggressively.
* ``size_bound`` — minimum size, in bytes, the cache may downsize to
  (coarse-grain control that prevents thrashing).
* ``sense_interval`` — interval length in **dynamic instructions** between
  resizing decisions.  The DRI i-cache converts it to an access count
  through its ``instructions_per_access`` factor, and both replay engines
  close intervals at that count.
* ``divisibility`` — factor by which the cache grows/shrinks at each
  resizing step (2 in the paper's base configuration).

The throttle parameters implement the 3-bit saturating counter that
suppresses repeated oscillation between two adjacent sizes and the
ten-interval downsizing hold the paper describes in Section 5.3.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class PolicySpec:
    """Which resize policy drives the controller, plus its keyword options.

    This is pure configuration data — a policy *name* as registered in
    :mod:`repro.dri.policies` and a canonically ordered tuple of
    ``(key, value)`` pairs — so it can live inside the frozen, hashable
    :class:`DRIParameters` (and therefore inside sweep memo keys and
    worker-pool task messages) without the config layer importing any
    policy code.  Resolution to an actual policy object happens in
    :func:`repro.dri.policies.build_policy`.
    """

    name: str = "miss-bound"
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("policy name must be a non-empty string")
        if any(len(pair) != 2 or not isinstance(pair[0], str) for pair in self.kwargs):
            raise ValueError("policy kwargs must be (name, value) pairs")
        # Canonical ordering so two specs with the same options compare
        # (and hash, and memoize) equal regardless of construction order.
        object.__setattr__(self, "kwargs", tuple(sorted(self.kwargs)))

    @classmethod
    def create(cls, name: str, **kwargs: Any) -> "PolicySpec":
        """Build a spec from plain keyword arguments."""
        return cls(name=name, kwargs=tuple(sorted(kwargs.items())))

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse a CLI-style spec: ``name`` or ``name:key=value,key=value``.

        Values are parsed as Python literals when possible (``0.5``,
        ``True``) and kept as strings otherwise.
        """
        text = text.strip()
        if not text:
            raise ValueError("empty policy spec")
        name, _, tail = text.partition(":")
        kwargs: Dict[str, Any] = {}
        if tail:
            for item in tail.split(","):
                key, sep, raw = item.partition("=")
                if not sep or not key.strip():
                    raise ValueError(f"malformed policy option {item!r} in {text!r}")
                try:
                    value: Any = ast.literal_eval(raw.strip())
                except (ValueError, SyntaxError):
                    value = raw.strip()
                kwargs[key.strip()] = value
        return cls.create(name.strip(), **kwargs)

    @property
    def options(self) -> Dict[str, Any]:
        """The keyword options as a plain dictionary."""
        return dict(self.kwargs)

    @property
    def label(self) -> str:
        """Human-readable form: ``name`` or ``name:key=value,...``."""
        if not self.kwargs:
            return self.name
        tail = ",".join(f"{key}={value}" for key, value in self.kwargs)
        return f"{self.name}:{tail}"


@dataclass(frozen=True)
class ThrottleConfig:
    """Configuration of the oscillation-suppression throttle (Section 2.1)."""

    counter_bits: int = 3
    hold_intervals: int = 10

    def __post_init__(self) -> None:
        if self.counter_bits < 1:
            raise ValueError("throttle counter must have at least one bit")
        if self.hold_intervals < 0:
            raise ValueError("hold_intervals cannot be negative")

    @property
    def saturation_value(self) -> int:
        """Counter value at which the throttle engages."""
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class DRIParameters:
    """Adaptivity parameters of a DRI i-cache.

    The defaults follow the paper's base configuration scaled to the
    reduced simulation lengths used by this reproduction (the mechanism is
    controlled by the *ratio* of miss-bound to sense-interval length, so the
    scaling preserves behaviour; see DESIGN.md section 5).
    """

    miss_bound: int = 500
    size_bound: int = 1024
    sense_interval: int = 50_000
    divisibility: int = 2
    throttle: ThrottleConfig = ThrottleConfig()
    policy: PolicySpec = field(default_factory=PolicySpec)

    def __post_init__(self) -> None:
        if self.miss_bound < 0:
            raise ValueError("miss_bound cannot be negative")
        if not _is_power_of_two(self.size_bound):
            raise ValueError(f"size_bound must be a power of two, got {self.size_bound}")
        if self.sense_interval < 1:
            raise ValueError("sense_interval must be at least one instruction")
        if self.divisibility < 2 or not _is_power_of_two(self.divisibility):
            raise ValueError("divisibility must be a power of two >= 2")

    @property
    def miss_rate_bound(self) -> float:
        """Miss-bound expressed as a miss rate over one sense interval."""
        return self.miss_bound / self.sense_interval

    def scaled_miss_bound(self, factor: float) -> "DRIParameters":
        """Return a copy with the miss-bound scaled by ``factor`` (Figure 4)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        new_bound = max(1, int(round(self.miss_bound * factor)))
        return replace(self, miss_bound=new_bound)

    def scaled_size_bound(self, factor: float) -> "DRIParameters":
        """Return a copy with the size-bound scaled by ``factor`` (Figure 5).

        The result is clamped to a power of two, as required by the index
        masking scheme.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        target = int(self.size_bound * factor)
        if target < 1:
            raise ValueError("scaled size_bound would be smaller than one byte")
        # Round to the nearest power of two (sizes are always powers of two).
        power = max(0, target.bit_length() - 1)
        lower = 1 << power
        upper = lower << 1
        new_bound = lower if (target - lower) <= (upper - target) else upper
        return replace(self, size_bound=new_bound)

    def with_interval(self, sense_interval: int) -> "DRIParameters":
        """Return a copy with a different sense-interval length (Section 5.6).

        The miss-bound is scaled proportionally so the targeted miss *rate*
        is unchanged, matching how the paper varies interval length.
        """
        if sense_interval < 1:
            raise ValueError("sense_interval must be at least one instruction")
        scale = sense_interval / self.sense_interval
        new_miss_bound = max(1, int(round(self.miss_bound * scale)))
        return replace(self, sense_interval=sense_interval, miss_bound=new_miss_bound)

    def with_divisibility(self, divisibility: int) -> "DRIParameters":
        """Return a copy with a different divisibility (Section 5.6)."""
        return replace(self, divisibility=divisibility)

    def with_policy(self, policy: "PolicySpec | str", **kwargs: Any) -> "DRIParameters":
        """Return a copy driven by a different resize policy.

        ``policy`` may be a :class:`PolicySpec`, a registered policy name,
        or a CLI-style ``name:key=value,...`` string; extra ``kwargs``
        are merged into the spec's options.
        """
        if isinstance(policy, PolicySpec):
            spec = policy
        else:
            spec = PolicySpec.parse(policy)
        if kwargs:
            spec = PolicySpec.create(spec.name, **{**spec.options, **kwargs})
        return replace(self, policy=spec)


AGGRESSIVE = DRIParameters(miss_bound=2000, size_bound=1024)
"""A configuration that aggressively downsizes (performance-unconstrained style)."""

CONSERVATIVE = DRIParameters(miss_bound=100, size_bound=8 * 1024)
"""A configuration that downsizes cautiously (performance-constrained style)."""
