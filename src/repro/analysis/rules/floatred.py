"""float-reduction: batch-variant float reductions in bitwise-parity modules.

PRs 2 and 4 pinned the batched train/predict paths bitwise-identical to
their scalar references by standardizing on two reduction primitives whose
grouping never depends on batch size: ``np.add.reduceat`` segment sums and
per-row multiply-sums (``(a * b).sum(axis=1)``).  BLAS-backed ``np.dot`` /
``@`` and whole-array ``np.sum``/``np.mean`` do not make that promise —
their accumulation order (pairwise blocking, SIMD lanes, thread count)
varies with shape, so a batched path that uses them drifts from the scalar
reference by last-bit ulps and the parity gates start failing "randomly".

Allowed without ceremony:

* ``np.add.reduceat(...)`` — the blessed segment reduction;
* ``.sum(axis=...)`` / ``.mean(axis=...)`` — per-row/column reductions over
  a fixed width reduce each lane independently of batch size;
* ``int(<x>.sum())`` — integer/boolean counting is exact, no float order.

Everything else (``np.sum``/``np.mean``/``np.dot``/``np.matmul``/
``np.einsum``/``np.inner``, the ``@`` operator, axis-less ``.sum()`` /
``.mean()``, ``.dot(...)``) is flagged and must be rewritten onto the
primitives or pragma-justified (e.g. a reduction shared verbatim by both
the scalar and batched paths).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import Finding, ModuleContext, Rule

_NUMPY_REDUCTIONS = (
    "numpy.sum",
    "numpy.mean",
    "numpy.dot",
    "numpy.matmul",
    "numpy.einsum",
    "numpy.inner",
)
_METHOD_REDUCTIONS = ("sum", "mean", "dot")


def _has_axis(node: ast.Call) -> bool:
    if node.args:
        return True
    return any(kw.arg == "axis" for kw in node.keywords)


class FloatReductionRule(Rule):
    name = "float-reduction"
    description = (
        "batch-variant float reduction (np.sum/np.mean/np.dot/@) in a module "
        "that pins bitwise parity; use np.add.reduceat or row multiply-sums"
    )
    default_scope = (
        "repro.core.packed",
        "repro.core.combined",
        "repro.ml.proximal",
        "repro.execution.batch",
        "repro.optimizer.skeleton",
        "repro.features",
        "repro.reference",
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        int_wrapped = self._int_wrapped_calls(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                findings.append(
                    ctx.finding(
                        node,
                        self.name,
                        "matrix-multiply (@) accumulates in a shape-dependent "
                        "order (BLAS); use the row multiply-sum primitive in "
                        "parity-pinned code",
                    )
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.resolve(node.func)
            if dotted in _NUMPY_REDUCTIONS:
                findings.append(
                    ctx.finding(
                        node,
                        self.name,
                        f"{dotted}() is a batch-variant reduction; use "
                        "np.add.reduceat / row multiply-sums (or justify a "
                        "reduction shared verbatim by both parity paths)",
                    )
                )
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _METHOD_REDUCTIONS:
                if func.attr == "dot":
                    findings.append(
                        ctx.finding(
                            node,
                            self.name,
                            ".dot() accumulates in a shape-dependent order "
                            "(BLAS); use the row multiply-sum primitive",
                        )
                    )
                elif not _has_axis(node) and id(node) not in int_wrapped:
                    findings.append(
                        ctx.finding(
                            node,
                            self.name,
                            f"axis-less .{func.attr}() reduces the whole "
                            "array in a size-dependent order; pass an "
                            "explicit axis, wrap counts in int(...), or "
                            "justify",
                        )
                    )
        return findings

    @staticmethod
    def _int_wrapped_calls(tree: ast.Module) -> set[int]:
        """ids of calls appearing directly as ``int(<call>)`` / ``bool(...)``."""
        wrapped: set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("int", "bool")
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
            ):
                wrapped.add(id(node.args[0]))
        return wrapped
