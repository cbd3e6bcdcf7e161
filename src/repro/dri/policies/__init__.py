"""The resize-policy zoo: pluggable interval-boundary decision rules.

Importing this package registers every shipped policy:

================  ====================================================
``miss-bound``    The paper's fixed-threshold rule (the default).
``hysteresis``    Asymmetric thresholds with a hold band in between.
``pid``           PID tracking of the miss count around the bound.
``phase-detect``  Miss-bound plus spike-triggered phase-change resets.
``predictive``    Miss-bound plus derivative-triggered early upsizing.
================  ====================================================

See :mod:`repro.dri.policies.base` for the protocol and the
mechanism/policy split, and DESIGN.md §8 for how to add a policy.
"""

from repro.dri.policies.base import (
    IntervalStats,
    ResizePolicy,
    ResizeRequest,
    build_policy,
    get_policy_class,
    policy_catalog,
    policy_names,
    register_policy,
)
from repro.dri.policies.hysteresis import HysteresisPolicy
from repro.dri.policies.miss_bound import MissBoundPolicy
from repro.dri.policies.phase_detect import PhaseDetectPolicy
from repro.dri.policies.pid import PIDPolicy
from repro.dri.policies.predictive import PredictiveUpsizePolicy

__all__ = [
    "IntervalStats",
    "ResizePolicy",
    "ResizeRequest",
    "build_policy",
    "get_policy_class",
    "policy_catalog",
    "policy_names",
    "register_policy",
    "MissBoundPolicy",
    "HysteresisPolicy",
    "PIDPolicy",
    "PhaseDetectPolicy",
    "PredictiveUpsizePolicy",
]
