"""Guard: the Cascades rules exist once, and the bench tracer can bind.

``repro.optimizer.search`` holds the rule set; ``QueryPlanner`` and
``SkeletonPlanner`` are configurations of it.  A second definition of any
rule anywhere in the package is the hand-synchronised copy this layout
exists to prevent.  The second test is the contract of ``bench/trace.py``,
which binds its timing wrappers by ``vars(cls)[name]`` — a method moved to a
base class would fail in the next benchmark run; it fails here instead.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import repro.optimizer
from repro.core.cost_model import CleoCostModel
from repro.optimizer.planner import QueryPlanner
from repro.optimizer.replan import FleetReplanner
from repro.optimizer.skeleton import SkeletonPlanner

RULES = {
    "_optimize",
    "_implementations",
    "_enforce",
    "_exchange_for",
    "_align_partitions",
    "_local_aggregate_logical",
    "_jittered",
}


def _definitions() -> Counter:
    """``name -> count`` of every function defined in the optimizer package."""
    counts: Counter = Counter()
    for path in sorted(Path(repro.optimizer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                counts[node.name] += 1
    return counts


def test_every_rule_is_defined_exactly_once():
    counts = _definitions()
    rules = RULES | {name for name in counts if name.startswith("_impl_")}
    assert len(rules) >= len(RULES) + 8  # the _impl_* family is still there
    assert {name: counts[name] for name in rules} == dict.fromkeys(rules, 1)


def test_planner_module_defines_no_rules():
    source = Path(repro.optimizer.__file__).with_name("planner.py").read_text()
    defined = {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
    }
    assert not {name for name in defined if name.startswith("_impl_")}
    assert not defined & (RULES | {"_clone_tree"})


def test_tracer_targets_are_defined_on_the_classes_themselves():
    for cls, names in (
        (QueryPlanner, ["plan"]),
        (SkeletonPlanner, ["plan_job"]),
        (FleetReplanner, ["replan_jobs"]),
        (CleoCostModel, ["price_operators", "price_inputs", "price_plans"]),
    ):
        for name in names:
            assert callable(vars(cls)[name]), (cls.__name__, name)
