"""Stage graph: grouping physical operators into SCOPE stages.

"The sequence of intermediate operators that operate over the same set of
input partitions are grouped into a stage — all operators in a stage run on
the same set of machines" (Section 2.1).  Stages begin at a partitioning
operator (Extract or Exchange) and extend upward until the next Exchange.

The stage graph drives the execution simulator: a job's end-to-end latency is
the critical path over stages, and its total processing time is the sum of
per-stage work across partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import InvalidPlanError
from repro.plan.physical import PhysicalOp


@dataclass
class Stage:
    """A set of operators running together on one set of partitions."""

    index: int
    operators: list[PhysicalOp] = field(default_factory=list)
    upstream: set[int] = field(default_factory=set)

    @property
    def partition_count(self) -> int:
        if not self.operators:
            raise InvalidPlanError("empty stage")
        return self.operators[0].partition_count

    def __contains__(self, op: PhysicalOp) -> bool:
        return any(member is op for member in self.operators)


@dataclass
class StageGraph:
    """Stages of one physical plan plus their dependency edges."""

    stages: list[Stage]
    stage_of: dict[int, int]  # id(PhysicalOp) -> stage index

    def __len__(self) -> int:
        return len(self.stages)

    def topological_order(self) -> list[Stage]:
        """Stages ordered so that producers precede consumers (a depth-first
        post-order over upstream edges, lowest index first)."""
        stages = self.stages
        order: list[Stage] = []
        seen: set[int] = set()
        for start in range(len(stages)):
            if start in seen:
                continue
            seen.add(start)
            stack = [(start, iter(sorted(stages[start].upstream)))]
            while stack:
                idx, upstream = stack[-1]
                for up in upstream:
                    if up not in seen:
                        seen.add(up)
                        stack.append((up, iter(sorted(stages[up].upstream))))
                        break
                else:
                    stack.pop()
                    order.append(stages[idx])
        return order


def build_stage_graph(root: PhysicalOp) -> StageGraph:
    """Partition a physical plan into stages.

    An Exchange starts a new stage (it is the partitioning operator of the
    stage that *consumes* the repartitioned data, per Figure 8b where Stage 2
    is ``[Exchange, Reduce, Output]``).  An Extract starts a leaf stage.
    Joins merge the stages of their children when no Exchange intervenes,
    which requires the children to agree on partition count — validated here.
    """
    stages: list[Stage] = []
    stage_of: dict[int, int] = {}
    merged_into: dict[int, int] = {}  # emptied stage -> the stage it joined

    _assign_stage(root, stages, stage_of, merged_into)

    # Drop stages emptied by join merges and compact indices.  An upstream
    # edge recorded before its producer was merged follows the merge.
    alive = [s for s in stages if s.operators]
    remap = {old.index: new_idx for new_idx, old in enumerate(alive)}
    for emptied in sorted(merged_into):  # ascending: each joined a lower index
        remap[emptied] = remap[merged_into[emptied]]
    for stage in alive:
        stage.index = remap[stage.index]
        stage.upstream = {remap[u] for u in stage.upstream}
        stage.upstream.discard(stage.index)
    compact_of = {op_id: remap[idx] for op_id, idx in stage_of.items() if stages[idx].operators}
    return StageGraph(stages=alive, stage_of=compact_of)


def _assign_stage(
    op: PhysicalOp,
    stages: list[Stage],
    stage_of: dict[int, int],
    merged_into: dict[int, int],
) -> int:
    """Put ``op``'s subtree into stages; returns the stage index of ``op``.

    A module-level function with its state passed in: a nested recursive
    closure would be a reference cycle, freed only by the cyclic collector.
    """
    seen = stage_of.get(id(op))
    if seen is not None:
        # Shared subexpression (DAG-shaped caller input): the operator
        # already has a stage; revisiting must neither duplicate its
        # membership nor re-walk the subtree (exponential on sharing).
        return seen
    child_stage_indices = [
        _assign_stage(child, stages, stage_of, merged_into) for child in op.children
    ]
    if len(child_stage_indices) > 1:
        # Re-read once every child is visited: a later sibling's join may
        # have merged (emptied) the stage an earlier one was first put in.
        child_stage_indices = [stage_of[id(child)] for child in op.children]

    if op.is_partitioning:
        stage = Stage(index=len(stages))
        stages.append(stage)
        stage.upstream.update(child_stage_indices)
    else:
        # Continue in the children's stage; joins merge both sides.
        distinct = sorted(set(child_stage_indices))
        if not distinct:
            raise InvalidPlanError(
                f"{op.op_type.value} has no children and is not a "
                "partitioning operator"
            )
        primary = distinct[0]
        stage = stages[primary]
        for other_idx in distinct[1:]:
            other = stages[other_idx]
            if other.partition_count != stage.partition_count:
                raise InvalidPlanError(
                    "cannot merge stages with partition counts "
                    f"{stage.partition_count} and {other.partition_count} "
                    f"under {op.op_type.value}"
                )
            for moved in other.operators:
                stage_of[id(moved)] = primary
                stage.operators.append(moved)
            stage.upstream |= other.upstream
            other.operators = []
            merged_into[other_idx] = primary
        if op.partition_count != stage.partition_count:
            raise InvalidPlanError(
                f"{op.op_type.value} partition count {op.partition_count} "
                f"differs from its stage's {stage.partition_count}"
            )
    stage.operators.append(op)
    stage_of[id(op)] = stage.index
    return stage.index
