"""Physical query plans.

A physical plan is an immutable tree of :class:`PhysicalOp`.  Physical
operators either implement a logical operator (and carry a reference to it)
or are *enforcers* inserted by the optimizer to satisfy required properties:
``Exchange`` (repartitioning, SCOPE's Shuffle) and enforcer ``Sort``.

Every operator records the partition count it runs with — the resource that
the paper's resource-aware planner optimizes (Section 5.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.errors import InvalidPlanError
from repro.plan.logical import LogicalOp, LogicalOpType
from repro.plan.properties import Partitioning, SortOrder
from repro.plan.summary import SubtreeSummary, summarize


class PhysOpType(enum.Enum):
    """Physical operator kinds (a subset of SCOPE's, sufficient for the paper)."""

    EXTRACT = "Extract"
    FILTER = "Filter"
    COMPUTE = "Compute"
    PROCESS = "Process"
    HASH_JOIN = "HashJoin"
    MERGE_JOIN = "MergeJoin"
    HASH_AGGREGATE = "HashAggregate"
    STREAM_AGGREGATE = "StreamAggregate"
    LOCAL_AGGREGATE = "LocalAggregate"
    SORT = "Sort"
    TOP_K = "TopK"
    EXCHANGE = "Exchange"
    UNION_ALL = "UnionAll"
    OUTPUT = "Output"


class ExchangeMode(enum.Enum):
    """How an Exchange redistributes rows."""

    HASH = "hash"  # hash repartition on columns
    GATHER = "gather"  # merge everything into one partition
    RANDOM = "random"  # round-robin rebalance


#: Operators that decide the partition count of their stage (Section 5.2):
#: Extract at the leaves and Exchange at stage boundaries.
PARTITIONING_OPS = frozenset({PhysOpType.EXTRACT, PhysOpType.EXCHANGE})

#: Operators that block the pipeline (consume all input before producing).
BLOCKING_OPS = frozenset(
    {
        PhysOpType.SORT,
        PhysOpType.HASH_AGGREGATE,
        PhysOpType.STREAM_AGGREGATE,
        PhysOpType.LOCAL_AGGREGATE,
        PhysOpType.TOP_K,
    }
)


def post_order(root) -> list:
    """Every node under ``root`` (anything with a ``children`` tuple), children
    left to right before their parent; a subtree shared by several parents
    appears once per occurrence, as in the tree it stands for.

    An explicit stack, not recursion: a node at depth d costs one push and
    one pop, not d generator resumptions, and no depth hits the recursion
    limit.  The stack yields the mirror pre-order (parent, then children
    right to left), whose reverse is exactly this post-order.
    """
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    nodes.reverse()
    return nodes


@dataclass(frozen=True, slots=True)
class PhysicalOp:
    """One node of a physical plan.

    Attributes:
        op_type: physical operator kind.
        children: input operators (tuple, possibly empty for EXTRACT).
        logical: the logical operator this node implements, or None for
            enforcers (Exchange, enforcer Sort).
        partition_count: degree of parallelism of this operator's stage.
        partitioning: the partitioning property this operator delivers.
        sorting: the intra-partition sort order this operator delivers.
        exchange_mode: set only for EXCHANGE nodes.
        sort_keys: set for SORT / TOP_K / MERGE_JOIN enforcer context.

    ``_summary`` caches :attr:`summary`, ``_estimate`` an estimator's ``(tag,
    output cardinality)`` for this subtree; neither is part of the node's value
    (no ``__init__`` argument, ignored by equality, hash and ``repr``).
    """

    op_type: PhysOpType
    children: tuple["PhysicalOp", ...]
    logical: LogicalOp | None
    partition_count: int
    partitioning: Partitioning
    sorting: SortOrder = SortOrder.none()
    exchange_mode: ExchangeMode | None = None
    sort_keys: tuple[str, ...] = ()
    _summary: SubtreeSummary | None = field(
        default=None, init=False, compare=False, repr=False
    )
    _estimate: tuple[object, float] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.partition_count < 1:
            raise InvalidPlanError(
                f"{self.op_type.value}: partition_count must be >= 1, "
                f"got {self.partition_count}"
            )
        if self.op_type is PhysOpType.EXCHANGE and self.exchange_mode is None:
            raise InvalidPlanError("Exchange requires an exchange_mode")
        if self.op_type is PhysOpType.EXTRACT and self.children:
            raise InvalidPlanError("Extract must be a leaf")
        if self.op_type is not PhysOpType.EXTRACT and not self.children:
            raise InvalidPlanError(f"{self.op_type.value} requires children")

    # ------------------------------------------------------------------ #
    # Semantic payload (delegated to the logical node or passed through)
    # ------------------------------------------------------------------ #

    @property
    def true_card(self) -> float:
        """True output cardinality: the logical node's, or pass-through."""
        if self.logical is not None:
            return self.logical.true_card
        return self.children[0].true_card

    @property
    def row_bytes(self) -> float:
        if self.logical is not None:
            return self.logical.row_bytes
        return self.children[0].row_bytes

    @property
    def template_tag(self) -> str:
        """Parameter-independent identity of this node (for signatures)."""
        if self.logical is not None:
            return self.logical.template_tag
        if self.op_type is PhysOpType.EXCHANGE:
            assert self.exchange_mode is not None
            return f"xchg:{self.exchange_mode.value}"
        return f"enf:{self.op_type.value.lower()}:{','.join(self.sort_keys)}"

    @property
    def summary(self) -> SubtreeSummary:
        """The P-independent subtree statistics, computed on first read."""
        summary = self._summary
        if summary is None:
            summary = summarize(self)
            object.__setattr__(self, "_summary", summary)
        return summary

    @property
    def normalized_inputs(self) -> frozenset[str]:
        return self.summary.inputs

    @property
    def params(self) -> tuple[float, ...]:
        return self.logical.params if self.logical is not None else ()

    @property
    def table(self) -> str | None:
        return self.logical.table if self.logical is not None else None

    @property
    def is_partitioning(self) -> bool:
        return self.op_type in PARTITIONING_OPS

    @property
    def is_blocking(self) -> bool:
        return self.op_type in BLOCKING_OPS

    @property
    def base_card(self) -> float:
        """Total true cardinality of leaf inputs (the ``B`` feature)."""
        return self.summary.base_card

    @property
    def input_card(self) -> float:
        """Total true input cardinality from children (the ``I`` feature)."""
        if not self.children:
            return self.true_card
        return float(sum(child.true_card for child in self.children))

    # ------------------------------------------------------------------ #
    # Traversal / structural helpers
    # ------------------------------------------------------------------ #

    def walk(self):
        """Iterate every node of the subtree, children before parents
        (:func:`post_order`)."""
        return iter(post_order(self))

    @property
    def node_count(self) -> int:
        return len(post_order(self))

    @property
    def depth(self) -> int:
        return self.summary.depth

    def child_context(self) -> tuple[str, ...]:
        """Immediate-children operator types, the pipelining context.

        The simulator conditions latency multipliers on this (a hash over a
        filter is cheaper than over a sort — Section 3.1), and so implicitly
        do the subgraph-template learned models.
        """
        if not self.children:
            return ("leaf",)
        return tuple(child.op_type.value for child in self.children)

    def with_partition_count(self, partition_count: int) -> "PhysicalOp":
        """A copy of this node (only) with a different partition count."""
        return replace(self, partition_count=partition_count)

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line physical plan, for examples and debugging."""
        pad = "  " * indent
        extras = [f"P={self.partition_count}", self.partitioning.describe()]
        if self.sorting.is_sorted:
            extras.append(self.sorting.describe())
        if self.exchange_mode is not None:
            extras.append(self.exchange_mode.value)
        line = (
            f"{pad}{self.op_type.value}[{self.template_tag}] "
            f"card={self.true_card:,.0f} ({', '.join(extras)})"
        )
        lines = [line]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


def validate_physical_plan(root: PhysicalOp) -> None:
    """Structural validation of a complete physical plan.

    Checks that non-partitioning operators inherit their children's partition
    count (SCOPE semantics: all operators of a stage run on the same set of
    machines) and that joins consume co-partitioned inputs.
    """
    for node in root.walk():
        if node.op_type in (PhysOpType.HASH_JOIN, PhysOpType.MERGE_JOIN):
            counts = {child.partition_count for child in node.children}
            if len(counts) != 1:
                raise InvalidPlanError(
                    f"{node.op_type.value} children disagree on partition "
                    f"count: {sorted(counts)}"
                )
        if not node.is_partitioning and node.children:
            child_counts = {child.partition_count for child in node.children}
            if node.partition_count not in child_counts:
                raise InvalidPlanError(
                    f"{node.op_type.value} (P={node.partition_count}) does not "
                    f"match its children's partition counts {sorted(child_counts)}"
                )
        if node.logical is not None and node.op_type is not PhysOpType.EXTRACT:
            if node.logical.op_type is LogicalOpType.GET:
                raise InvalidPlanError("GET must be implemented by Extract")
