"""The resize-policy protocol and registry.

The DRI controller is split into **mechanism** and **policy**:

* mechanism (:class:`~repro.dri.controller.ResizeController`) owns the
  reachable-size ladder, the size-bound/full-size clamps, and the
  oscillation throttle — everything the paper treats as fixed hardware;
* policy (:class:`ResizePolicy`) is the interval-boundary *decision rule*:
  given one finished sense interval's statistics, which direction should
  the cache move?  The paper's miss-bound rule is one such policy
  (:class:`~repro.dri.policies.miss_bound.MissBoundPolicy`); the rest of
  the zoo explores the surrounding policy space on identical mechanism.

A policy sees an :class:`IntervalStats` observation and answers with a
:class:`ResizeRequest` (or a bare
:class:`~repro.dri.throttle.ResizeDecision`, which the controller coerces).
The request is *advisory*: the controller still clamps it to the ladder,
refuses downsizing below the size-bound or during a throttle hold, and
refuses upsizing past the full size — so no policy can express a cache
state the hardware could not reach.

Policies register themselves by name (:func:`register_policy`), and
:func:`build_policy` turns a :class:`~repro.config.parameters.PolicySpec`
into a live instance, defaulting the policy's ``miss_bound`` from the
:class:`~repro.config.parameters.DRIParameters` it runs under.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Type, Union

from repro.config.parameters import DRIParameters, PolicySpec
from repro.dri.throttle import ResizeDecision


@dataclass(frozen=True)
class IntervalStats:
    """What one finished sense interval looked like to the controller.

    ``accesses`` and ``instructions`` are zero when the caller only knows
    the miss count (direct :meth:`ResizeController.end_of_interval` calls);
    the replay paths always supply them.
    """

    index: int
    misses: int
    accesses: int = 0
    instructions: int = 0
    current_size: int = 0
    full_size: int = 0
    min_size: int = 0
    at_minimum: bool = False
    at_maximum: bool = False

    @property
    def miss_rate(self) -> float:
        """Miss rate within the interval (0.0 when accesses are unknown)."""
        if self.accesses <= 0:
            return 0.0
        return self.misses / self.accesses


@dataclass(frozen=True)
class ResizeRequest:
    """A policy's answer for one interval boundary.

    ``target_size`` is optional: ``None`` means "one ladder rung" in the
    requested direction (the paper's behaviour); a byte size asks the
    controller to move as far along the ladder toward that size as the
    direction allows in a single decision (e.g. a phase-change reset
    jumping straight back to the full size).
    """

    direction: ResizeDecision
    target_size: Optional[int] = None

    @classmethod
    def none(cls) -> "ResizeRequest":
        return cls(ResizeDecision.NONE)

    @classmethod
    def downsize(cls, target_size: Optional[int] = None) -> "ResizeRequest":
        return cls(ResizeDecision.DOWNSIZE, target_size)

    @classmethod
    def upsize(cls, target_size: Optional[int] = None) -> "ResizeRequest":
        return cls(ResizeDecision.UPSIZE, target_size)

    @classmethod
    def coerce(cls, value: Union["ResizeRequest", ResizeDecision]) -> "ResizeRequest":
        """Accept a bare :class:`ResizeDecision` where a request is needed."""
        if isinstance(value, ResizeRequest):
            return value
        if isinstance(value, ResizeDecision):
            return cls(value)
        raise TypeError(
            f"a resize policy must return a ResizeRequest or ResizeDecision, got {type(value)!r}"
        )


class ResizePolicy(ABC):
    """The interval-boundary decision rule of a DRI i-cache.

    Subclasses implement :meth:`observe` (pure decision, may keep internal
    state across intervals) and :meth:`reset` (drop that state).  They are
    constructed with plain keyword arguments so a
    :class:`~repro.config.parameters.PolicySpec` can describe any instance.
    """

    name: str = "abstract"
    """Registry name (kebab-case); set by each concrete policy."""

    @abstractmethod
    def observe(self, stats: IntervalStats) -> Union[ResizeRequest, ResizeDecision]:
        """Decide the resize direction for one finished sense interval."""

    def reset(self) -> None:
        """Forget all cross-interval state (start of a fresh run)."""

    def describe(self) -> str:
        """One-line description (the docstring's first line by default)."""
        doc = (type(self).__doc__ or "").strip()
        return doc.splitlines()[0] if doc else type(self).__name__


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ResizePolicy]] = {}


def register_policy(cls: Type[ResizePolicy]) -> Type[ResizePolicy]:
    """Class decorator: register a policy under its ``name`` attribute."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"{cls.__name__} must define a registry name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"policy name {name!r} already registered by {existing.__name__}")
    _REGISTRY[name] = cls
    return cls


def policy_names() -> List[str]:
    """Registered policy names, sorted."""
    return sorted(_REGISTRY)


def get_policy_class(name: str) -> Type[ResizePolicy]:
    """Look up a registered policy class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(policy_names())
        raise KeyError(f"unknown resize policy {name!r}; registered: {known}") from None


def policy_catalog() -> Dict[str, Dict[str, Any]]:
    """Name -> {class, description, defaults} for every registered policy.

    ``defaults`` are the constructor keyword defaults (``miss_bound``
    shown as ``None`` because it is inherited from the run's
    :class:`DRIParameters` unless the spec overrides it).
    """
    catalog: Dict[str, Dict[str, Any]] = {}
    for name in policy_names():
        cls = _REGISTRY[name]
        defaults: Dict[str, Any] = {}
        for parameter in inspect.signature(cls.__init__).parameters.values():
            if parameter.name == "self":
                continue
            defaults[parameter.name] = (
                None if parameter.default is inspect.Parameter.empty else parameter.default
            )
        doc = (cls.__doc__ or "").strip()
        catalog[name] = {
            "class": cls.__name__,
            "description": doc.splitlines()[0] if doc else cls.__name__,
            "defaults": defaults,
        }
    return catalog


def build_policy(
    spec: Union[PolicySpec, str], parameters: Optional[DRIParameters] = None
) -> ResizePolicy:
    """Instantiate the policy a spec describes.

    Every zoo policy anchors its thresholds on a ``miss_bound``; when the
    spec does not override it, the value is inherited from ``parameters``
    so ``DRIParameters(miss_bound=80, policy=PolicySpec("hysteresis"))``
    means what it reads as.
    """
    if isinstance(spec, str):
        spec = PolicySpec.parse(spec)
    cls = get_policy_class(spec.name)
    options = spec.options
    if parameters is not None and "miss_bound" not in options:
        signature = inspect.signature(cls.__init__)
        if "miss_bound" in signature.parameters:
            options["miss_bound"] = parameters.miss_bound
    try:
        return cls(**options)
    except TypeError as error:
        raise ValueError(f"bad options for policy {spec.name!r}: {error}") from error
