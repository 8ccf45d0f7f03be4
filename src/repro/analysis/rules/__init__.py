"""The six repo-specific determinism/concurrency/memory rules.

Each rule is scoped by default to the modules where its invariant is
load-bearing (see the ``default_scope`` on each class); self-tests run them
unscoped over fixtures.
"""

from __future__ import annotations

from repro.analysis.framework import Rule
from repro.analysis.rules.closurecycle import ClosureCycleRule
from repro.analysis.rules.floatred import FloatReductionRule
from repro.analysis.rules.hashseed import HashSeedHazardRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.refparity import ReferenceParityRule
from repro.analysis.rules.wallclock import WallClockRngRule

#: Registry order is alphabetical by rule name; the runner re-sorts anyway.
ALL_RULES: tuple[Rule, ...] = (
    ClosureCycleRule(),
    FloatReductionRule(),
    HashSeedHazardRule(),
    LockDisciplineRule(),
    ReferenceParityRule(),
    WallClockRngRule(),
)


__all__ = [
    "ALL_RULES",
    "ClosureCycleRule",
    "FloatReductionRule",
    "HashSeedHazardRule",
    "LockDisciplineRule",
    "ReferenceParityRule",
    "WallClockRngRule",
]
