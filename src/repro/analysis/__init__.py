"""Determinism & concurrency invariant checker (``repro lint``).

Nine PRs of this reproduction rest on invariants that used to be enforced
only by reviewer memory: bitwise parity between batched and scalar paths,
PYTHONHASHSEED independence, no wall-clock/RNG in deterministic fault and
chaos decisions, and locks never held across model computation.  Two shipped
bugs (the PR 2 set-iteration plan flips, the PR 6 builtin-``hash`` ban in
routing) were exactly this class.  This package machine-checks those rules
with a self-contained AST lint pass:

* a visitor-based rule framework with per-rule severity and module scoping
  (:mod:`repro.analysis.framework`);
* inline ``# repro: allow(<rule>) -- <justification>`` pragmas for
  intentional, justified exceptions;
* a checked-in JSON baseline for grandfathered findings
  (:mod:`repro.analysis.baseline`);
* deterministic text and JSON reporters (:mod:`repro.analysis.reporters`)
  whose output is byte-identical across PYTHONHASHSEED values;
* six repo-specific rules (:mod:`repro.analysis.rules`): hashseed-hazard,
  wallclock-rng, float-reduction, lock-discipline, reference-parity,
  closure-cycle.

Run it as ``repro lint`` (or ``python scripts/lint.py``); CI fails on any
non-baselined finding.
"""

from repro.analysis.baseline import Baseline, apply_baseline
from repro.analysis.framework import (
    AnalysisConfig,
    AnalysisReport,
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    RuleConfig,
    Severity,
    run_analysis,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "AnalysisReport",
    "Baseline",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "RuleConfig",
    "Severity",
    "apply_baseline",
    "render_json",
    "render_text",
    "run_analysis",
]
