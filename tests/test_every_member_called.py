"""Guard: no public function or method of ``repro`` goes uncalled.

Every public function and method defined anywhere under ``src/repro`` must
be referenced by name somewhere in ``src/``, ``tests/``, ``bench/``,
``scripts/``, ``examples/`` or ``benchmarks/`` — outside its own body.  A
reference is a name, an attribute or an identifier-shaped string (the bench
tracer binds its targets by string); imports and ``__all__`` lists do not
count, since re-exporting a function is not using it.  The check is by name,
so it cannot see a member shadowed by a same-named one elsewhere; it catches
the members nobody calls at all, which is how dead surface accumulates.
Members reached only through a computed name are listed in ``DISPATCHED``.

A member whose every reference lies under ``tests/`` is product code only
tests reach.  Outside ``repro/reference/`` (the retained twins, whose
callers are their parity tests by design) each such member must be listed
in ``TEST_ONLY``, and each listed one must still be test-only: the list can
only shrink, as members are deleted, moved into ``tests/`` or given a
product caller.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "bench", "scripts", "examples", "benchmarks")
#: Members called through a name built at run time, by module.
DISPATCHED = {
    # TpchQuerySet.query reaches every builder as getattr(builder, f"q{number}").
    "workload/tpch_queries.py": {f"q{number}" for number in range(1, 23)},
}

#: Product members only tests reach, by module (see the module docstring).
TEST_ONLY = {
    "applications/allocation.py": {"meets_deadline"},
    "applications/prediction.py": {"calibrate", "is_calibrated", "median_ratio"},
    "applications/scheduling.py": {"utilization"},
    "common/chaos.py": {"poison"},
    "common/rng.py": {"lognormal"},
    "core/learned_model.py": {"feature_weights"},
    "core/lifecycle.py": {"resume", "rolling_median_error"},
    "core/regression_control.py": {"clear_ledger", "total_removed"},
    "core/serialization.py": {
        "load_registry",
        "quarantine_from_dict",
        "quarantine_to_dict",
        "save_registry",
        "store_from_dict",
    },
    "data/catalog.py": {"scaled", "set_stats"},
    "features/featurizer.py": {"partition_feature_names"},
    "ml/linear.py": {"selected_features"},
    "ml/model_selection.py": {"cross_validate"},
    "ml/proximal.py": {"selected_features"},
    "optimizer/partition.py": {"optimize_partitions"},
    "plan/physical.py": {"validate_physical_plan"},
    "serving/cache.py": {"put"},
    "serving/shard/loadgen.py": {"build_load", "suggested_cache_capacity"},
    "serving/shard/router.py": {
        "export_health",
        "fault_stats",
        "hedge_stats",
        "resilience_stats",
        "restore_health",
        "service_for",
    },
}


def _scan(tree: ast.AST) -> tuple[list[tuple[str, ast.AST]], list[tuple[str, set[int]]]]:
    """``(public definitions, references)`` of one module; each reference
    carries the ids of the function definitions it sits inside."""
    definitions: list[tuple[str, ast.AST]] = []
    references: list[tuple[str, set[int]]] = []

    def visit(node: ast.AST, inside: frozenset[int], top_level: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if top_level and not node.name.startswith("_"):
                definitions.append((node.name, node))
            inside = inside | {id(node)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        elif isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            return
        elif isinstance(node, ast.Name):
            references.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            references.append((node.attr, inside))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                references.append((node.value, inside))
        for child in ast.iter_child_nodes(node):
            # Module-level functions and class-level methods are definitions;
            # functions nested inside functions are implementation detail.
            visit(child, inside, isinstance(node, (ast.Module, ast.ClassDef)))

    visit(tree, frozenset(), True)
    return definitions, references


def _members(root: Path) -> tuple[list[tuple[str, str, ast.AST]], dict[str, list]]:
    """``(public definitions under src/repro, references by name)``; each
    reference is ``(tree name, ids of the definitions it sits inside)``."""
    definitions: list[tuple[str, str, ast.AST]] = []
    callers: dict[str, list[tuple[str, set[int]]]] = {}
    for tree_name in TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            defined, referenced = _scan(ast.parse(path.read_text()))
            for name, inside in referenced:
                callers.setdefault(name, []).append((tree_name, inside))
            parts = path.relative_to(root).parts
            if parts[:2] == ("src", "repro"):
                module = "/".join(parts[2:])
                dispatched = DISPATCHED.get(module, set())
                definitions.extend(
                    (module, name, node) for name, node in defined if name not in dispatched
                )
    return definitions, callers


def _trees_referencing(node: ast.AST, name: str, callers: dict) -> set[str]:
    """The trees that reference ``name`` outside ``node``'s own body."""
    return {tree for tree, inside in callers.get(name, []) if id(node) not in inside}


def uncalled_members(root: Path = ROOT) -> list[str]:
    definitions, callers = _members(root)
    return sorted(
        f"{module}::{name}"
        for module, name, node in definitions
        if not _trees_referencing(node, name, callers)
    )


def members_only_tests_reach(root: Path = ROOT) -> list[str]:
    """Members outside ``repro/reference/`` that only ``tests/`` references."""
    definitions, callers = _members(root)
    return sorted(
        f"{module}::{name}"
        for module, name, node in definitions
        if not module.startswith("reference/")
        and _trees_referencing(node, name, callers) == {"tests"}
    )


def test_every_public_member_has_a_caller():
    assert uncalled_members() == []


def test_test_only_members_are_listed_and_the_list_is_current():
    found = set(members_only_tests_reach())
    listed = {f"{module}::{name}" for module, names in TEST_ONLY.items() for name in names}
    assert sorted(found - listed) == [], "only tests reach these: delete them or list them"
    assert sorted(listed - found) == [], "deleted or given a product caller: unlist them"


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def test_guard_sees_a_member_only_tests_reach(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "src/repro/mod.py": """
                def helper():
                    return 1

                def used():
                    return 2
            """,
            "src/repro/app.py": "def main():\n    return used()\n",
            "tests/test_mod.py": "def test_mod():\n    assert helper() + used() == 3\n",
            "scripts/run.py": "main()\n",
        },
    )
    assert uncalled_members(root) == []
    assert members_only_tests_reach(root) == ["mod.py::helper"]


def test_guard_exempts_the_reference_twins(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "src/repro/reference/__init__.py": "def twin():\n    return 1\n",
            "tests/test_twin.py": "def test_twin():\n    assert twin() == 1\n",
        },
    )
    assert uncalled_members(root) == []
    assert members_only_tests_reach(root) == []


@pytest.mark.parametrize("tree", [tree for tree in TREES if tree != "tests"])
def test_a_caller_in_any_product_tree_counts(tmp_path, tree):
    root = _write_tree(
        tmp_path,
        {
            "src/repro/mod.py": "def helper():\n    return 1\n",
            "tests/test_mod.py": "def test_mod():\n    assert helper() == 1\n",
            f"{tree}/caller.py": "VALUE = helper()\n",
        },
    )
    assert members_only_tests_reach(root) == []


def test_imports_exports_and_own_body_are_not_calls(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "src/repro/mod.py": """
                __all__ = ["recurse"]

                def recurse(n):
                    return recurse(n - 1) if n else 0
            """,
            "src/repro/app.py": "from repro.mod import recurse\n",
            "tests/test_mod.py": "import repro.mod\n",
        },
    )
    assert uncalled_members(root) == ["mod.py::recurse"]
    assert members_only_tests_reach(root) == []


def test_methods_are_members_nested_functions_are_not(tmp_path):
    root = _write_tree(
        tmp_path,
        {
            "src/repro/mod.py": """
                class Box:
                    def open(self):
                        def inner():
                            return 1
                        return 0

                    def _private(self):
                        return 2
            """,
        },
    )
    assert uncalled_members(root) == ["mod.py::open"]
