"""Guard: the stage rule has one home, and the applications featurize nothing.

``repro.execution.trace`` owns the stage rule — the start-up charge, the
per-stage sums, the finish-time recurrence, the critical-path walk and the
one ``Timeline`` / ``StageTiming`` pair — and the simulator, the batch
engine, traces and applications call it.  A second copy anywhere under
``src/repro`` is the hand-synchronised duplicate this layout exists to
prevent.  The applications price plans through ``CleoCostModel``, the one
place an operator becomes rows, so they must not featurize operators or
build serving requests themselves.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
TRACE = "execution/trace.py"


def _modules() -> dict[str, ast.Module]:
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


def _named(node: ast.AST) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """``id(node) -> name of the innermost function holding it``."""
    out: dict[int, str] = {}

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        out[id(node)] = function
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return out


def test_applications_do_not_featurize_operators():
    found = []
    for module, tree in _modules().items():
        if not module.startswith("applications/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [
                    (module, alias.name)
                    for alias in node.names
                    if alias.name in ("feature_input_for", "PredictionRequest")
                ]
            elif isinstance(node, ast.Call):
                name = _named(node.func)
                if name in ("feature_input_for", "PredictionRequest"):
                    found.append((module, name))
                elif name == "of" and _named(node.func.value) == "SignatureBundle":
                    found.append((module, "SignatureBundle.of"))
    assert found == []


def test_stage_startup_is_read_only_in_the_trace_module():
    readers = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if _named(node) == "STAGE_STARTUP_SECONDS"
        or isinstance(node, ast.ImportFrom)
        and "STAGE_STARTUP_SECONDS" in {alias.name for alias in node.names}
    }
    assert readers == {TRACE}


def test_recurrence_walk_and_timeline_types_exist_once():
    starts, walks, timing_types = [], [], []
    for module, tree in _modules().items():
        enclosing = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _named(node.func) == "max" and node.args:
                keywords = {k.arg for k in node.keywords}
                # A stage starts at its producers' latest finish.
                first = node.args[0]
                if (
                    "default" in keywords
                    and isinstance(first, ast.GeneratorExp)
                    and isinstance(first.elt, ast.Subscript)
                    and _named(first.elt.value) == "finish"
                ):
                    starts.append((module, enclosing[id(node)]))
                # The critical-path backtrack picks the latest producer.
                if "key" in keywords and _named(node.args[0]) == "upstream":
                    walks.append((module, enclosing[id(node)]))
            elif isinstance(node, ast.ClassDef):
                fields = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
                if {"start_seconds", "finish_seconds"} <= fields or "critical_path" in {
                    item.name for item in node.body if isinstance(item, ast.FunctionDef)
                }:
                    timing_types.append((module, node.name))
    assert starts == [(TRACE, "_start_time")]
    assert walks == [(TRACE, "timeline")]
    assert sorted(timing_types) == [(TRACE, "StageTiming"), (TRACE, "Timeline")]
