"""The five repo-specific determinism/concurrency rules.

Each rule is scoped by default to the modules where its invariant is
load-bearing (see the ``default_scope`` on each class); self-tests run them
unscoped over fixtures.
"""

from __future__ import annotations

from repro.analysis.framework import Rule
from repro.analysis.rules.floatred import FloatReductionRule
from repro.analysis.rules.hashseed import HashSeedHazardRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.refparity import ReferenceParityRule
from repro.analysis.rules.wallclock import WallClockRngRule

#: Registry order is alphabetical by rule name; the runner re-sorts anyway.
ALL_RULES: tuple[Rule, ...] = (
    FloatReductionRule(),
    HashSeedHazardRule(),
    LockDisciplineRule(),
    ReferenceParityRule(),
    WallClockRngRule(),
)


__all__ = [
    "ALL_RULES",
    "FloatReductionRule",
    "HashSeedHazardRule",
    "LockDisciplineRule",
    "ReferenceParityRule",
    "WallClockRngRule",
]
