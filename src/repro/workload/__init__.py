"""Workload layer: synthetic production workloads and TPC-H.

The synthetic generator reproduces the statistical structure of SCOPE's
production workloads (Section 2.2): mostly recurring jobs instantiated from
templates whose inputs arrive daily (with drifting sizes and parameters), a
large degree of subexpression sharing via per-cluster fragment pools, and a
7-20% slice of ad-hoc jobs that still overlap partially with the recurring
fragments.
"""

from repro.workload.generator import ClusterWorkloadConfig, WorkloadGenerator
from repro.workload.runner import WorkloadRunner
from repro.workload.templates import FragmentSpec, JobSpec, TemplateSpec

__all__ = [
    "ClusterWorkloadConfig",
    "FragmentSpec",
    "JobSpec",
    "TemplateSpec",
    "WorkloadGenerator",
    "WorkloadRunner",
]
