"""Workload analysis: the subexpression statistics behind Figure 9.

Production teams decide *whether* learned cost models are worth deploying by
measuring how repetitive their workload is; these helpers compute the
paper's workload-characterization numbers from any run log: recurring-job
share, subexpression commonality and per-template sample counts (the min-5
trainability threshold).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.execution.runtime_log import RunLog


@dataclass(frozen=True)
class WorkloadProfile:
    """Figure 9-style summary of one log slice."""

    total_jobs: int
    recurring_jobs: int
    recurring_templates: int
    total_subexpressions: int
    common_subexpressions: int
    trainable_subexpressions: int  # appearing >= min_samples times

    @property
    def recurring_fraction(self) -> float:
        return self.recurring_jobs / self.total_jobs if self.total_jobs else float("nan")

    @property
    def common_fraction(self) -> float:
        if not self.total_subexpressions:
            return float("nan")
        return self.common_subexpressions / self.total_subexpressions

    @property
    def trainable_fraction(self) -> float:
        if not self.total_subexpressions:
            return float("nan")
        return self.trainable_subexpressions / self.total_subexpressions


def profile_workload(log: RunLog, min_samples: int = 5) -> WorkloadProfile:
    """Compute the workload profile of a run log."""
    recurring = log.filter(adhoc=False)
    templates = {job.template_id for job in recurring if job.template_id}
    signature_counts: Counter = Counter()
    for record in log.operator_records():
        signature_counts[record.signatures.strict] += 1
    total = sum(signature_counts.values())
    common = sum(c for c in signature_counts.values() if c > 1)
    trainable = sum(c for c in signature_counts.values() if c >= min_samples)
    return WorkloadProfile(
        total_jobs=len(log),
        recurring_jobs=len(recurring),
        recurring_templates=len(templates),
        total_subexpressions=total,
        common_subexpressions=common,
        trainable_subexpressions=trainable,
    )
