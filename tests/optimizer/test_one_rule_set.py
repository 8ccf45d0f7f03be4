"""Guard: the Cascades rules exist once, and the bench tracer can bind.

``repro.optimizer.search`` holds the rule set; ``QueryPlanner`` and
``SkeletonPlanner`` are configurations of it.  A second definition of any
rule anywhere in the package is the hand-synchronised copy this layout
exists to prevent.  The same holds for pricing: the serving tier prices
rows, and ``CleoCostModel`` is the one place an operator or plan becomes
rows, so the operator-level entry points must not reappear under
``repro.serving``.  The tracer test is the contract of ``bench/trace.py``,
which binds its timing wrappers by ``vars(cls)[name]`` — a method moved to a
base class would fail in the next benchmark run; it fails here instead.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import repro.optimizer
import repro.serving

RULES = {
    "_optimize",
    "_implementations",
    "_enforce",
    "_exchange_for",
    "_align_partitions",
    "_local_aggregate_logical",
    "_jittered",
}


def _definitions(package=repro.optimizer) -> Counter:
    """``name -> count`` of every function defined in a package."""
    counts: Counter = Counter()
    for path in sorted(Path(package.__file__).parent.rglob("*.py")):
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
    """Every binding the tracer installs, read off the tracer itself: a
    hand-kept copy of the list goes stale the first time a target is added."""
    from bench.trace import _targets

    targets = _targets()
    assert len(targets) > 30
    for target in targets:
        assert target.attribute in vars(target.owner), (target.owner, target.attribute)
        raw = vars(target.owner)[target.attribute]
        assert callable(getattr(raw, "__func__", raw)), (target.owner, target.attribute)


def _calls(path: Path, name: str) -> list[ast.Call]:
    """Every call of ``name`` (bare or as an attribute) in one source file."""
    return [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_the_partitioned_finale_is_one_grid_and_no_plan_cost():
    """One call site prices P-grids for the whole package, and the search
    asks for a ``plan_cost`` only where no partition strategy is configured
    (with one, the grid already holds every row a total reads)."""
    root = Path(repro.optimizer.__file__).parent
    sweeps = {
        path.name: len(_calls(path, "price_stage_sweep")) for path in sorted(root.rglob("*.py"))
    }
    assert {name: n for name, n in sweeps.items() if n} == {"partition.py": 1}
    tree = ast.parse((root / "search.py").read_text())
    guarded = [
        call
        for branch in ast.walk(tree)
        if isinstance(branch, ast.If) and ast.unparse(branch.test) == "strategy is None"
        for statement in branch.body
        for call in ast.walk(statement)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "plan_cost"
    ]
    assert len(guarded) == len(_calls(root / "search.py", "plan_cost")) == 1


def test_serving_tier_defines_no_operator_level_entry_points():
    counts = _definitions(repro.serving)
    # ``predict`` too: a single price is a one-row batch, not a scalar twin.
    gone = ("predict_operator", "predict_plan_batch", "explain_operator", "bundle_for", "predict")
    assert {name: counts[name] for name in gone} == dict.fromkeys(gone, 0)
    # Featurization happens once in the package, inside ``price_plan``.
    root = Path(repro.serving.__file__).parent

    def called(name: str) -> list[str]:
        return [
            path.name
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        ]

    assert called("operator_table") == ["service.py"] and counts["price_plan"] == 1
    assert called("operator_row") == called("feature_input_for") == []
    imported = {
        alias.name
        for node in ast.walk(ast.parse((root / "shard" / "router.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"operator_table", "operator_row", "feature_input_for"}
