"""Logical query algebra.

A logical plan is an immutable tree of :class:`LogicalOp`.  Each node carries
the *semantic payload* that downstream components need:

* ``true_card`` — the true output cardinality of the (sub)expression, fixed
  at build time by the plan builder (from catalog statistics and predicate
  selectivities).  The execution simulator treats this as ground truth.
* ``sel_true`` — the node's local true selectivity/fan-out factor, used by
  the *estimated* cardinality engine, which corrupts it with deterministic
  per-template errors that compound up the plan (Section 2.4).
* ``template_tag`` — the parameter-independent identity of the node.  Two
  instances of the same recurring job share tags even though their dates,
  input sizes, and parameter values differ; all learned-model signatures
  derive from these tags.
* ``normalized_inputs`` — normalized names of the inputs feeding the
  subexpression (dates and numbers stripped), the paper's ``IN`` feature.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field


class LogicalOpType(enum.Enum):
    """Logical operator kinds."""

    GET = "Get"
    FILTER = "Filter"
    PROJECT = "Project"
    PROCESS = "Process"  # user-defined operator (black-box UDF)
    JOIN = "Join"
    AGGREGATE = "Aggregate"
    SORT = "Sort"
    TOP_K = "TopK"
    UNION = "Union"
    OUTPUT = "Output"


_DATE_NUM_RE = re.compile(r"\d+")


def normalize_input_name(name: str) -> str:
    """Strip dates and numbers from an input name (Section 3.3, ``IN``).

    ``clicks_2020_02_27`` and ``clicks_2020_02_28`` normalize to the same
    template, which is how recurring jobs over daily inputs are grouped.
    """
    return _DATE_NUM_RE.sub("#", name).lower()


@dataclass(frozen=True, slots=True)
class LogicalOp:
    """One node of a logical plan.

    Instances are immutable; plans are built bottom-up by the
    :class:`~repro.plan.builder.PlanBuilder`, which computes ``true_card``,
    ``row_bytes`` and ``normalized_inputs`` from the children.
    """

    op_type: LogicalOpType
    children: tuple["LogicalOp", ...]
    template_tag: str
    true_card: float
    row_bytes: float
    normalized_inputs: frozenset[str]
    sel_true: float = 1.0
    table: str | None = None
    keys: tuple[str, ...] = ()
    limit: int | None = None
    udf_name: str | None = None
    params: tuple[float, ...] = ()
    group_count: float | None = None

    def __post_init__(self) -> None:
        if self.true_card < 0:
            raise ValueError("true_card must be >= 0")
        if self.row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        expected_arity = _ARITY[self.op_type]
        if expected_arity is not None and len(self.children) != expected_arity:
            raise ValueError(
                f"{self.op_type.value} expects {expected_arity} children, "
                f"got {len(self.children)}"
            )

    # ------------------------------------------------------------------ #
    # Traversal helpers
    # ------------------------------------------------------------------ #

    def walk(self):
        """Yield every node of the subtree, children before parents."""
        for child in self.children:
            yield from child.walk()
        yield self

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    @property
    def depth(self) -> int:
        """Height of the subtree rooted here (leaf = 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth for child in self.children)

    @property
    def base_card(self) -> float:
        """Total input cardinality at the leaves (the paper's ``B`` feature)."""
        leaves = [node for node in self.walk() if not node.children]
        return float(sum(leaf.true_card for leaf in leaves))

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line plan description for debugging and examples."""
        pad = "  " * indent
        label = f"{pad}{self.op_type.value}[{self.template_tag}] card={self.true_card:,.0f}"
        lines = [label]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


# Arity per operator type; None means "one or more" (UNION).
_ARITY: dict[LogicalOpType, int | None] = {
    LogicalOpType.GET: 0,
    LogicalOpType.FILTER: 1,
    LogicalOpType.PROJECT: 1,
    LogicalOpType.PROCESS: 1,
    LogicalOpType.JOIN: 2,
    LogicalOpType.AGGREGATE: 1,
    LogicalOpType.SORT: 1,
    LogicalOpType.TOP_K: 1,
    LogicalOpType.UNION: None,
    LogicalOpType.OUTPUT: 1,
}
