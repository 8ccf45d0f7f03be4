"""lock-discipline: model compute under a lock, shared state outside one.

PR 6's concurrency rule for the serving tier has three halves:

* **no compute under a lock** — the per-shard services serialize only
  counter bumps; holding a lock across a model-compute entry point
  (``predict*``, ``price*``, ``plan_cost``) turns the fan-out back into a
  sequential bottleneck and invites lock-ordering deadlocks between shards;
* **no unlocked mutation of guarded state** — an attribute that is mutated
  under a lock somewhere in a class is shared by definition, so a second,
  unlocked mutation site in the same class (outside ``__init__``) is a lost
  update waiting for a concurrency test to get lucky;
* **no foreign lock, no foreign guarded state** — the second half only sees
  ``self.<attr>`` inside one class, so code that reaches into *another*
  object (``with cache._lock:``, ``cache._entries[key] = value``) escapes
  it entirely.  Taking a ``_``-prefixed lock, or mutating a ``_``-prefixed
  attribute, through a receiver that is neither ``self``/``cls`` nor a
  module global is a finding: the owner's invariants can only be checked
  where they are kept, so give the owner a method instead.

The rule is heuristic by design: a "lock" is any context-manager expression
whose terminal name contains ``lock`` (``self._stats_lock``,
``_REPAIR_LOCK``, ...), which matches every lock in this repo.  Intentional
single-threaded mutation sites carry a pragma with the reasoning.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.framework import Finding, ModuleContext, Rule

_LOCK_NAME_RE = re.compile(r"lock", re.IGNORECASE)
_COMPUTE_PREFIXES = ("predict", "price")
_COMPUTE_EXACT = ("plan_cost",)
#: Methods on containers that mutate in place.
_MUTATING_METHODS = (
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
)
#: Methods where unlocked mutation is expected: construction and teardown.
_EXEMPT_METHODS = ("__init__", "__new__", "__enter__", "__exit__", "close")


def _terminal_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return None


def _is_lock_expr(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and bool(_LOCK_NAME_RE.search(name))


def _is_compute_call(node: ast.Call) -> bool:
    name = _terminal_name(node.func)
    if name is None:
        return False
    return name in _COMPUTE_EXACT or any(
        name.startswith(prefix) for prefix in _COMPUTE_PREFIXES
    )


def _self_attr(node: ast.AST) -> str | None:
    """``self.x`` -> ``x`` (also unwraps ``self.x[...]`` subscripts)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _module_globals(tree: ast.Module) -> set[str]:
    """Names bound at module level (imports, assignments, defs)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _foreign_private(node: ast.AST, own: set[str]) -> ast.Attribute | None:
    """The ``<receiver>._attr`` link of an expression whose receiver is not
    ``self``/``cls`` or a module global; ``None`` when there is none."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.startswith("__")
            receiver = node.value
            if private and not (isinstance(receiver, ast.Name) and receiver.id in own):
                return node
            node = receiver
        else:
            node = node.func if isinstance(node, ast.Call) else node.value
    return None


def _mutation_targets(node: ast.AST) -> list[ast.AST]:
    """The expressions a statement or call mutates in place (else empty)."""
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATING_METHODS
    ):
        return [node.func.value]
    return []


class _Mutation:
    __slots__ = ("attr", "method", "node", "locked")

    def __init__(self, attr: str, method: str, node: ast.AST, locked: bool) -> None:
        self.attr = attr
        self.method = method
        self.node = node
        self.locked = locked


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "model compute (predict*/price*/plan_cost) called while holding a "
        "lock, or lock-guarded shared state mutated outside any lock"
    )
    default_scope = (
        "repro.serving",
        "repro.common.chaos",
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        own = _module_globals(ctx.tree) | {"self", "cls"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                findings.extend(self._check_with(ctx, node))
            findings.extend(self._check_foreign(ctx, node, own))
        return findings

    # ------------------------------------------------------------------ #
    # (c) another object's lock or guarded state
    # ------------------------------------------------------------------ #

    def _check_foreign(
        self, ctx: ModuleContext, node: ast.AST, own: set[str]
    ) -> Iterable[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                lock = item.context_expr
                if _is_lock_expr(lock) and _foreign_private(lock, own) is not None:
                    yield ctx.finding(
                        lock,
                        self.name,
                        f"foreign lock: {ast.unparse(lock)} belongs to another "
                        "object; call a method of its owner instead of taking "
                        "its lock from outside",
                    )
            return
        for target in _mutation_targets(node):
            link = _foreign_private(target, own)
            if link is not None:
                yield ctx.finding(
                    target,
                    self.name,
                    f"foreign guarded state: {ast.unparse(link)} is private to "
                    "another object and is mutated from outside it; no lock "
                    "held here can be checked against its owner's",
                )

    # ------------------------------------------------------------------ #
    # (a) compute under a lock
    # ------------------------------------------------------------------ #

    def _check_with(
        self, ctx: ModuleContext, node: ast.With | ast.AsyncWith
    ) -> Iterable[Finding]:
        if not any(_is_lock_expr(item.context_expr) for item in node.items):
            return
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Call) and _is_compute_call(inner):
                    callee = _terminal_name(inner.func)
                    yield ctx.finding(
                        inner,
                        self.name,
                        f"{callee}() called while holding a lock; compute "
                        "outside the lock and only publish results under it "
                        "(PR 6 rule: locks never span model computation)",
                    )

    # ------------------------------------------------------------------ #
    # (b) unlocked mutation of lock-guarded attributes
    # ------------------------------------------------------------------ #

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        mutations: list[_Mutation] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._collect_mutations(method, mutations)

        guarded = sorted(
            {
                m.attr
                for m in mutations
                if m.locked and m.method not in _EXEMPT_METHODS
            }
        )
        for attr in guarded:
            for mutation in mutations:
                if (
                    mutation.attr == attr
                    and not mutation.locked
                    and mutation.method not in _EXEMPT_METHODS
                ):
                    yield ctx.finding(
                        mutation.node,
                        self.name,
                        f"self.{attr} is mutated under a lock elsewhere in "
                        f"{cls.name} but mutated without one here; guard "
                        "this site or justify why it cannot race",
                    )

    def _collect_mutations(
        self,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        out: list[_Mutation],
    ) -> None:
        _walk_mutations(method, False, method, out)


def _walk_mutations(
    node: ast.AST,
    locked: bool,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    out: list[_Mutation],
) -> None:
    """Append the ``self.<attr>`` mutations under ``node`` to ``out``,
    marking those inside a ``with <lock>:`` block."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        inside = locked or any(_is_lock_expr(item.context_expr) for item in node.items)
        for stmt in node.body:
            _walk_mutations(stmt, inside, method, out)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not method:
        return  # nested defs get their own pass
    for target in _mutation_targets(node):
        attr = _self_attr(target)
        if attr is not None:
            out.append(_Mutation(attr, method.name, target, locked))
    for child in ast.iter_child_nodes(node):
        _walk_mutations(child, locked, method, out)
