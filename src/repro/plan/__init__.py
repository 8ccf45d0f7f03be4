"""Query plan layer: logical algebra, physical operators, stages, signatures.

The plan layer is deliberately self-contained: logical operators carry the
semantic payload (true cardinalities, row widths, template tags) that the
cardinality estimator, cost models, and execution simulator consume, so no
component needs to reach back into the catalog after a plan is built.
"""

from repro.plan.builder import PlanBuilder
from repro.plan.logical import LogicalOp, LogicalOpType
from repro.plan.physical import PhysicalOp, PhysOpType
from repro.plan.properties import Partitioning, PartitionScheme, SortOrder
from repro.plan.signatures import strict_signature
from repro.plan.stages import Stage, StageGraph, build_stage_graph

__all__ = [
    "LogicalOp",
    "LogicalOpType",
    "Partitioning",
    "PartitionScheme",
    "PhysOpType",
    "PhysicalOp",
    "PlanBuilder",
    "SortOrder",
    "Stage",
    "StageGraph",
    "build_stage_graph",
    "strict_signature",
]
