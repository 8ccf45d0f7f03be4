"""Guard: product code prices a trained model one way, through the tier index.

The store's packed tier index (``repro.core.packed``) prices every model
the store holds, and the tests pin it bit for bit to the per-model object
graph: ``LearnedCostModel.predict_one`` / ``resource_profile`` and
``CombinedModel.predict_one``.  That graph is the per-row reference, so
outside the two modules that define it, and the ``*_reference`` twins that
replay it, nothing under ``src/repro`` calls ``predict_one`` or
``resource_profile``.  A second, per-row pricing path in product code is
what this guard exists to prevent.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
#: The modules that define the object graph.
REFERENCE_MODULES = {"core/learned_model.py", "core/combined.py"}
PER_ROW = {"predict_one", "resource_profile"}


def _per_row_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every per-row pricing call outside
    a ``*_reference`` function."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in PER_ROW
            and not function.endswith("_reference")
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_guard_sees_a_per_row_call():
    tree = ast.parse(
        "def price(model, f):\n"
        "    return model.predict_one(f)\n"
        "def price_reference(model, f):\n"
        "    return model.resource_profile(f)\n"
    )
    assert _per_row_calls(tree) == [("price", 2)]


def test_product_code_never_prices_through_the_object_graph():
    found = {
        path.relative_to(SRC).as_posix(): calls
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in REFERENCE_MODULES
        and (calls := _per_row_calls(ast.parse(path.read_text())))
    }
    assert found == {}
