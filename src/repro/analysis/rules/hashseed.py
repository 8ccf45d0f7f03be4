"""hashseed-hazard: process-dependent values in ordering and keying decisions.

Three classes of hazard, all of which have already shipped bugs here:

* builtin ``hash()`` — salted per process, so anything derived from it
  (routing positions, tie-breaks, cache keys that leak into output) differs
  across processes.  PR 6 banned it from the routing path in favor of
  :func:`repro.common.hashing.stable_hash`.
* iterating a ``set``/``frozenset`` — iteration order follows the salted
  hash, so materializing a set into a sequence (``for``, comprehensions,
  ``list``/``tuple``/``iter``/``enumerate``/``join``) lets the hash seed
  pick plan shapes.  PR 2's plan flips came from exactly this: a planner
  held two requirement pairs in a set and the iteration order decided cost
  ties.  ``sorted(...)`` over a set is the blessed escape hatch.
* an ``id()`` key that outlives the call — a subscript, ``.get``, ``.setdefault``
  or ``in`` on a ``self.<attr>`` mapping.  A freed object's id is recycled, so the
  entry is served for another object (the estimator's memo did, until PR 18).

The rule tracks simple local and ``self.<attr>`` dataflow: a name assigned
only set-valued expressions is treated as a set wherever it is iterated in
the same scope (that is the PR 2 bug shape), and a name assigned an
expression containing ``id(...)`` carries it into every key built from it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import Finding, ModuleContext, Rule

#: Builtins that materialize their iterable argument in iteration order.
_ORDER_MATERIALIZERS = ("list", "tuple", "iter", "enumerate", "reversed")

_IDENTITY_KEY_MESSAGE = (
    "id() keys a self.<attr> mapping that outlives the call, but a freed object's "
    "id is recycled: keep the fact in a slot on the object"
)


def _is_set_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_self_attr(node: ast.AST | None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _id_calls(node: ast.AST) -> list[ast.Call]:
    calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
    return [n for n in calls if isinstance(n.func, ast.Name) and n.func.id == "id"]


def _lookup(node: ast.AST) -> tuple[ast.AST | None, ast.AST | None]:
    """``(mapping, key)`` of a subscript, ``.get`` / ``.setdefault`` or ``in``."""
    if isinstance(node, ast.Subscript):
        return node.value, node.slice
    if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
        return node.comparators[0], node.left
    func = getattr(node, "func", None)
    if isinstance(func, ast.Attribute) and func.attr in ("get", "setdefault") and node.args:
        return func.value, node.args[0]
    return None, None


class _SetNames:
    """Names (locals, ``self.<attr>``) that only ever hold sets, or hold an ``id()``."""

    def __init__(self) -> None:
        self._set_assigned: set[str] = set()
        self._other_assigned: set[str] = set()
        self._id_calls: dict[str, list[ast.Call]] = {}  # in a name's assigned values

    @staticmethod
    def _key(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if _is_self_attr(node):
            return f"self.{node.attr}"
        return None

    def record_assignment(self, target: ast.AST, value: ast.AST) -> None:
        key = self._key(target)
        if key is None:
            return
        self._id_calls.setdefault(key, []).extend(_id_calls(value))
        if _is_set_literal(value):
            self._set_assigned.add(key)
        else:
            self._other_assigned.add(key)

    def is_set(self, node: ast.AST) -> bool:
        key = self._key(node)
        if key is None:
            return False
        return key in self._set_assigned and key not in self._other_assigned

    def id_calls(self, expr: ast.AST) -> list[ast.Call]:
        """``id(...)`` calls in ``expr`` or in what its names were assigned."""
        found = _id_calls(expr)
        for node in ast.walk(expr):
            found.extend(self._id_calls.get(self._key(node) or "", ()))
        return found


class HashSeedHazardRule(Rule):
    name = "hashseed-hazard"
    description = (
        "builtin hash() or set-iteration feeding ordering decisions; both "
        "vary with PYTHONHASHSEED (use stable_hash / sorted(...)); or an id() "
        "key in a self.<attr> mapping (ids are recycled: use a slot on the object)"
    )
    default_scope = (
        "repro.optimizer",
        "repro.plan",
        "repro.serving",
        "repro.execution",
        "repro.features",
        "repro.cardinality",
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        names = self._collect_set_names(ctx.tree)

        def is_set_expr(node: ast.AST) -> bool:
            return _is_set_literal(node) or names.is_set(node)

        identity_keys: list[ast.Call] = []
        for node in ast.walk(ctx.tree):
            mapping, key = _lookup(node)
            if _is_self_attr(mapping):
                identity_keys.extend(names.id_calls(key))
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, node, is_set_expr))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_expr(node.iter):
                    findings.append(
                        ctx.finding(
                            node.iter,
                            self.name,
                            "iterating a set: order follows the salted hash "
                            "seed; iterate sorted(...) or keep an ordered "
                            "container",
                        )
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    if is_set_expr(gen.iter):
                        findings.append(
                            ctx.finding(
                                gen.iter,
                                self.name,
                                "comprehension over a set: order follows the "
                                "salted hash seed; iterate sorted(...) or "
                                "keep an ordered container",
                            )
                        )
        for call in dict.fromkeys(identity_keys):  # one key, several lookups
            findings.append(ctx.finding(call, self.name, _IDENTITY_KEY_MESSAGE))
        return findings

    # ------------------------------------------------------------------ #

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call, is_set_expr
    ) -> Iterable[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "hash":
                yield ctx.finding(
                    node,
                    self.name,
                    "builtin hash() is salted per process; use "
                    "repro.common.hashing.stable_hash",
                )
                return
            if func.id in _ORDER_MATERIALIZERS and node.args:
                if is_set_expr(node.args[0]):
                    yield ctx.finding(
                        node,
                        self.name,
                        f"{func.id}() materializes a set in hash-seed order; "
                        "wrap it in sorted(...)",
                    )
                return
            if func.id in ("min", "max") and node.args:
                # Value comparison alone is order-free; an explicit key can
                # collide and then the set's iteration order breaks the tie.
                has_key = any(kw.arg == "key" for kw in node.keywords)
                if has_key and any(is_set_expr(arg) for arg in node.args):
                    yield ctx.finding(
                        node,
                        self.name,
                        f"{func.id}(set, key=...) breaks key ties in "
                        "hash-seed order; sort the candidates first",
                    )
                return
        if isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            if is_set_expr(node.args[0]):
                yield ctx.finding(
                    node,
                    self.name,
                    "str.join over a set concatenates in hash-seed order; "
                    "join sorted(...) instead",
                )

    def _collect_set_names(self, tree: ast.Module) -> _SetNames:
        names = _SetNames()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    names.record_assignment(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                names.record_assignment(node.target, node.value)
            elif isinstance(node, ast.AugAssign):
                # ``x |= {...}`` keeps a set a set; anything else demotes it.
                if not isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
                    names.record_assignment(node.target, node.op)
        return names
