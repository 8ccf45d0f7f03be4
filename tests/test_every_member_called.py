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
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "bench", "scripts", "examples", "benchmarks")
#: Members called through a name built at run time, by module.
DISPATCHED = {
    # TpchQuerySet.query reaches every builder as getattr(builder, f"q{number}").
    "workload/tpch_queries.py": {f"q{number}" for number in range(1, 23)},
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


def uncalled_members(root: Path = ROOT) -> list[str]:
    definitions: list[tuple[str, str, ast.AST]] = []
    callers: dict[str, list[set[int]]] = {}
    for tree_name in TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            defined, referenced = _scan(ast.parse(path.read_text()))
            for name, inside in referenced:
                callers.setdefault(name, []).append(inside)
            parts = path.relative_to(root).parts
            if parts[:2] == ("src", "repro"):
                module = "/".join(parts[2:])
                dispatched = DISPATCHED.get(module, set())
                definitions.extend(
                    (module, name, node) for name, node in defined if name not in dispatched
                )
    return sorted(
        f"{module}::{name}"
        for module, name, node in definitions
        if not any(id(node) not in inside for inside in callers.get(name, []))
    )


def test_every_public_member_has_a_caller():
    assert uncalled_members() == []
