"""Query optimizer: Cascades-style planning with resource exploration.

The planner lowers logical plans to physical plans top-down with required
properties (partitioning, sorting) flowing down and delivered properties
flowing up, inserting Exchange/Sort enforcers where needed — the SCOPE
optimizer's structure (Section 2.3).  Cleo's extensions (Section 5.2) are the
resource context and the partition exploration/optimization steps, which
replace the default local partition-count heuristics with stage-global
optimization driven by the learned models.
"""

from repro.optimizer.partition import (
    AnalyticalStrategy,
    DefaultHeuristicStrategy,
    ExhaustiveStrategy,
    PartitionStrategy,
    SamplingStrategy,
    explore_partitions,
    optimize_partitions,
)
from repro.optimizer.planner import PlannedJob, PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob, replan_jobs
from repro.optimizer.skeleton import (
    SkeletonPlanner,
    SkeletonPlannerStats,
    materialize,
    supports_fast_path,
    supports_replay,
)

__all__ = [
    "AnalyticalStrategy",
    "DefaultHeuristicStrategy",
    "ExhaustiveStrategy",
    "FleetReplanner",
    "PartitionStrategy",
    "PlannedJob",
    "PlannerConfig",
    "QueryPlanner",
    "ReplanJob",
    "SamplingStrategy",
    "SkeletonPlanner",
    "SkeletonPlannerStats",
    "explore_partitions",
    "materialize",
    "optimize_partitions",
    "replan_jobs",
    "supports_fast_path",
    "supports_replay",
]
