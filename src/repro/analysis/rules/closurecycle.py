"""closure-cycle: reference cycles that only the cyclic collector can free.

Two shapes make an object graph cyclic by construction, so every call (or
every instance) leaves garbage that plain reference counting never frees:

* a nested function that refers to its own name, directly or through
  another nested function of the same scope (``def visit(): ... visit()``).
  The function lives in a closure cell that its own ``__closure__`` holds,
  so the function, its cells and everything they capture (the walk's
  lists, dicts and plan nodes) stay alive until a collection;
* ``self.<attr> = self.<method>``: a bound method stored on its own
  instance (instance -> bound method -> instance).

On a long loop that garbage is what makes the collector's full passes
frequent and slow.  Write the walk iteratively or as a module-level
function with explicit state, and keep a dispatch as a plain function (or a
method that branches), not as a bound method on ``self``.  Properties,
static methods and class methods do not bind the instance and are not
flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import Finding, ModuleContext, ProjectContext, Rule

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
#: Decorators whose attribute access through ``self`` binds nothing to it.
_UNBOUND_DECORATORS = frozenset(
    {"property", "cached_property", "staticmethod", "classmethod"}
)


def _scope_children(node: ast.AST) -> Iterator[ast.AST]:
    """Nodes in ``node``'s own scope: nested scopes are yielded, not entered."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _scope_children(child)


def _nested_defs(function: ast.AST) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [child for child in _scope_children(function) if isinstance(child, _FUNCTIONS)]


def _loaded_names(function: ast.AST) -> set[str]:
    """Every name read anywhere in ``function``'s body, nested scopes included."""
    return {
        node.id
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _decorator_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _binding_methods(cls: ast.ClassDef) -> set[str]:
    """Names of ``cls``'s methods that bind the instance when read."""
    return {
        node.name
        for node in cls.body
        if isinstance(node, _FUNCTIONS)
        and not any(
            _decorator_name(decorator) in _UNBOUND_DECORATORS
            for decorator in node.decorator_list
        )
    }


class ClosureCycleRule(Rule):
    name = "closure-cycle"
    description = (
        "a recursive nested function or a bound method stored on its own "
        "instance: a reference cycle only the cyclic collector frees; use an "
        "iterative walk or a module-level function, and dispatch without "
        "storing self.<method> on self"
    )
    default_scope = None

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, _FUNCTIONS):
                findings.extend(self._recursive_closures(ctx, node))
        return findings

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        # Whole-project, so that a method inherited from a base class in
        # another analyzed module counts as the class's own.
        classes: dict[str, tuple[ModuleContext, ast.ClassDef]] = {}
        for ctx in project.modules:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    classes[f"{ctx.module}.{node.name}"] = (ctx, node)
        findings: list[Finding] = []
        for ctx, cls in classes.values():
            methods = _methods_with_bases(ctx, cls, classes, set())
            findings.extend(self._stored_bound_methods(ctx, cls, methods))
        return findings

    def _recursive_closures(
        self, ctx: ModuleContext, scope: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        nested = _nested_defs(scope)
        names = {function.name for function in nested}
        # Edges between the scope's nested functions: g -> h when g reads h.
        reads = {
            function.name: _loaded_names(function) & names for function in nested
        }
        for function in nested:
            # Is ``function`` reachable from itself?
            seen: set[str] = set()
            frontier = list(reads[function.name])
            while frontier:
                name = frontier.pop()
                if name in seen:
                    continue
                seen.add(name)
                frontier.extend(reads[name])
            if function.name in seen:
                yield ctx.finding(
                    function,
                    self.name,
                    f"nested function {function.name!r} in {scope.name!r} "
                    "refers to itself through its closure: a reference "
                    "cycle that keeps everything it captures alive until "
                    "the cyclic collector runs; make it an iterative walk "
                    "or a module-level function with explicit state",
                )

    def _stored_bound_methods(
        self, ctx: ModuleContext, cls: ast.ClassDef, methods: set[str]
    ) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, _FUNCTIONS) or not method.args.args:
                continue
            receiver = method.args.args[0].arg
            for node in _scope_children(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                else:
                    continue
                if not any(_is_attribute_of(target, receiver) for target in targets):
                    continue
                for bound in _bound_method_reads(node.value, receiver, methods):
                    yield ctx.finding(
                        bound,
                        self.name,
                        f"{receiver}.{bound.attr} is a bound method of "
                        f"{cls.name} stored on its own instance: a reference "
                        "cycle; dispatch through a method that branches or "
                        "keep the plain function",
                    )


def _methods_with_bases(
    ctx: ModuleContext,
    cls: ast.ClassDef,
    classes: dict[str, tuple[ModuleContext, ast.ClassDef]],
    seen: set[str],
) -> set[str]:
    """:func:`_binding_methods` of ``cls`` and of every base class defined
    in an analyzed module."""
    methods = _binding_methods(cls)
    for base in cls.bases:
        dotted = ctx.imports.resolve(base)
        if dotted is not None and dotted not in classes:
            dotted = f"{ctx.module}.{dotted}"
        if dotted in classes and dotted not in seen:
            seen.add(dotted)
            base_ctx, base_cls = classes[dotted]
            methods |= _methods_with_bases(base_ctx, base_cls, classes, seen)
    return methods


def _is_attribute_of(node: ast.AST, receiver: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == receiver
    )


def _bound_method_reads(
    value: ast.AST, receiver: str, methods: set[str]
) -> Iterator[ast.Attribute]:
    """``receiver.<method>`` reads in ``value`` that are not called on the
    spot (a call stores its result, not the bound method)."""
    called = {
        id(node.func) for node in ast.walk(value) if isinstance(node, ast.Call)
    }
    for node in ast.walk(value):
        if (
            _is_attribute_of(node, receiver)
            and node.attr in methods
            and id(node) not in called
        ):
            yield node
