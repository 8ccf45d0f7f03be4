"""Guard: product code prices a trained model one way, through the tier index.

The store's packed tier index (``repro.core.packed``) prices every model
the store holds, and the tests pin it bit for bit to the per-model object
graph: ``LearnedCostModel.predict_one`` / ``resource_profile``.  That graph
is the per-row reference, so outside the module that defines it and the
``repro.reference`` package that replays it, nothing under ``src/repro``
calls ``predict_one`` or ``resource_profile``.  A second, per-row pricing
path in product code is what this guard exists to prevent.

The parity references themselves live in ``repro.reference``, which product
code does not import: the one exception is ``CleoTrainer.train_reference``,
a delegate for callers that hold a trainer, and the only public
``*_reference`` function a product module keeps.

A heuristic model is priced one way too: through its own
``operator_cost_from_stats``.  Outside ``repro.cost`` no module, the
references included, reads the formula's constants (``inflation``,
``row_cap``, ``DEFAULT_COEFFICIENTS``), so none keeps a hand-inlined copy
of a formula.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
#: The module that defines the object graph.
GRAPH_MODULES = {"core/learned_model.py"}
#: The package that replays it.
REFERENCE_PACKAGE = "reference/"
PER_ROW = {"predict_one", "resource_profile"}
#: The public ``*_reference`` defs a product module keeps, with the reason:
#: ``train_reference`` delegates into ``repro.reference``.
PRODUCT_REFERENCES = {("core/trainer.py", "train_reference")}
#: The package that defines the heuristic formulas, and their constants.
HEURISTIC_PACKAGE = "cost/"
FORMULA_CONSTANTS = {"inflation", "row_cap", "DEFAULT_COEFFICIENTS"}


def _product_modules() -> dict[str, ast.Module]:
    """Every module under ``src/repro`` outside ``repro.reference``, parsed."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if not name.startswith(REFERENCE_PACKAGE):
            modules[name] = ast.parse(path.read_text())
    return modules


def _per_row_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every per-row pricing call."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in PER_ROW
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _reference_imports(tree: ast.Module) -> list[str]:
    """The enclosing function of every import of ``repro.reference``."""
    found: list[str] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = []
        if any(name == "repro.reference" or name.startswith("repro.reference.") for name in names):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _constant_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every read or import of a formula constant."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend((name, node.lineno) for name in names if name in FORMULA_CONSTANTS)
    return found


def test_guard_sees_a_per_row_call():
    tree = ast.parse(
        "def price(model, f):\n"
        "    return model.predict_one(f)\n"
        "def price_reference(model, f):\n"
        "    return model.resource_profile(f)\n"
    )
    assert _per_row_calls(tree) == [("price", 2), ("price_reference", 4)]


def test_guard_sees_a_reference_import():
    tree = ast.parse(
        "import repro.reference.pricing\n"
        "def train():\n"
        "    from repro.reference import train_reference\n"
        "def plan():\n"
        "    from repro.referenced import nothing\n"
    )
    assert _reference_imports(tree) == ["<module>", "train"]


def test_product_code_never_prices_through_the_object_graph():
    found = {
        name: calls
        for name, tree in _product_modules().items()
        if name not in GRAPH_MODULES and (calls := _per_row_calls(tree))
    }
    assert found == {}


def test_product_code_keeps_only_the_trainer_reference():
    found = {
        (name, node.name)
        for name, tree in _product_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
        and not node.name.startswith("_")
    }
    assert found == PRODUCT_REFERENCES


def test_only_the_trainer_delegate_imports_the_references():
    found = {
        (name, function)
        for name, tree in _product_modules().items()
        for function in _reference_imports(tree)
    }
    assert found == {("core/trainer.py", "train_reference")}


def test_guard_sees_a_formula_constant():
    tree = ast.parse(
        "from repro.cost.default_model import DEFAULT_COEFFICIENTS\n"
        "def cost(model, rows):\n"
        "    return model.inflation * min(rows, model.row_cap)\n"
        "def partitions(model):\n"
        "    return model.partition_cap\n"
    )
    assert sorted(_constant_reads(tree)) == [
        ("DEFAULT_COEFFICIENTS", 1),
        ("inflation", 3),
        ("row_cap", 3),
    ]


def test_only_the_heuristic_models_read_their_constants():
    found = {
        name: reads
        for path in sorted(SRC.rglob("*.py"))
        if not (name := path.relative_to(SRC).as_posix()).startswith(HEURISTIC_PACKAGE)
        and (reads := _constant_reads(ast.parse(path.read_text())))
    }
    assert found == {}
