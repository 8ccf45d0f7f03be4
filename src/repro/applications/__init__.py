"""Downstream applications of the learned cost models.

Section 6.7 of the paper lists cost-model use cases beyond physical plan
selection that "are relevant in cloud environments, where accuracy of
predicted costs is crucial": performance prediction, allocating resources
to queries, estimating task runtimes for scheduling, estimating the
progress of a query, and running what-if analysis for physical design
selection.  This package implements each of them — the paper's "future
work" made concrete on this reproduction's substrate — on two shared
pieces: a plan's operators are priced in one
:meth:`~repro.core.cost_model.CleoCostModel.price_operators` call (so
featurization stays in the cost model), and the learned seconds are rolled
up by :func:`repro.execution.trace.timeline` into the same
:class:`~repro.execution.trace.Timeline` the simulator's ground-truth traces
produce, under the one stage rule.  ``ext_applications`` measures
prediction, scheduling and progress; allocation, what-if and SKU advice
have no regression number yet.

* :mod:`repro.applications.prediction` — job-level latency / CPU-hour
  prediction with empirical confidence intervals;
* :mod:`repro.applications.allocation` — SLO-driven container allocation
  (find the fewest containers that still meet a deadline);
* :mod:`repro.applications.scheduling` — stage-task runtime estimation
  feeding a container-pool scheduler simulation;
* :mod:`repro.applications.progress` — work-weighted query progress
  estimation against the stage-count baseline;
* :mod:`repro.applications.whatif` — what-if analysis for physical design
  (materialized views, input growth) priced by the learned models;
* :mod:`repro.applications.sku` — machine-SKU advisor, the "VM instance
  types" extension Section 5.2 declares the resource abstractions general
  enough to support.
"""

from repro.applications.allocation import (
    AllocationDecision,
    AllocationPoint,
    ResourceAllocator,
)
from repro.applications.prediction import (
    CalibrationReport,
    JobPerformancePredictor,
    PredictionInterval,
)
from repro.applications.progress import (
    ProgressEstimator,
    ProgressReport,
    evaluate_stage_count_baseline,
    stage_count_progress,
)
from repro.applications.scheduling import (
    ClusterScheduler,
    ScheduleOutcome,
    SchedulingStudy,
    TaskSpec,
    job_to_tasks,
)
from repro.applications.sku import (
    MachineSku,
    SkuAdvisor,
    SkuEstimate,
    SkuRecommendation,
)
from repro.applications.whatif import (
    MaterializationCandidate,
    WhatIfAnalyzer,
    WhatIfOutcome,
    find_materialization_candidates,
    replace_subtree,
    scale_tables,
    subtree_key,
)

__all__ = [
    "AllocationDecision",
    "AllocationPoint",
    "CalibrationReport",
    "ClusterScheduler",
    "JobPerformancePredictor",
    "MachineSku",
    "MaterializationCandidate",
    "PredictionInterval",
    "ProgressEstimator",
    "ProgressReport",
    "ResourceAllocator",
    "ScheduleOutcome",
    "SchedulingStudy",
    "SkuAdvisor",
    "SkuEstimate",
    "SkuRecommendation",
    "TaskSpec",
    "WhatIfAnalyzer",
    "WhatIfOutcome",
    "evaluate_stage_count_baseline",
    "find_materialization_candidates",
    "job_to_tasks",
    "replace_subtree",
    "scale_tables",
    "stage_count_progress",
    "subtree_key",
]
