"""Deterministic request streams for serving tests.

Models the paper's serving traffic shape (Section 5.1): recurring jobs
arrive from several clusters at once, each job pricing all of its operators
(one batched predict call), with a fraction of jobs also asking for a full
plan cost through the optimizer path.  The stream is a pure function of the
workload bundles — same jobs, same order, same request objects in every
process — so what a replay observes comes from the serving tier, never
from the load.  The chaos matrix (``tests/serving/test_chaos_matrix.py``)
replays it under every fault scenario, and ``bench/`` builds its serving
traffic from the same request types.

A load is replayed for several **epochs**: recurring workloads re-price the
same operators day after day, so a replay's later epochs run on warm caches.
One epoch's working set is summarized per cluster (``unique_keys``) so
per-shard caches can be sized relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.predictor import CleoPredictor
from repro.serving.service import PredictionRequest, request_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.physical import PhysicalOp

#: Every ``DEFAULT_PLAN_EVERY``-th job of a cluster also issues a plan-cost request.
DEFAULT_PLAN_EVERY = 8


@dataclass(frozen=True)
class PredictJob:
    """One job's operators, priced with a single batched predict call."""

    cluster: str
    job_id: str
    requests: tuple[PredictionRequest, ...]


@dataclass(frozen=True)
class PlanJob:
    """A full plan-cost request (the optimizer's whole-plan path)."""

    cluster: str
    job_id: str
    root: "PhysicalOp"


@dataclass
class ServingLoad:
    """One epoch's deterministic request sequence plus its model banks."""

    requests: tuple["PredictJob | PlanJob", ...]
    predictors: dict[str, CleoPredictor]
    estimator_configs: dict[str, object]
    #: Per-cluster size of one epoch's unique (features, signatures) set.
    unique_keys: dict[str, int]

    def fresh_estimator(self, cluster: str) -> CardinalityEstimator:
        return CardinalityEstimator(self.estimator_configs[cluster])

    def suggested_cache_capacity(self) -> int:
        """A per-shard LRU capacity sized against the per-cluster working set.

        Half the *smallest* cluster's unique-request count: below every
        cluster's working set, so a single shard's LRU thrashes on a cyclic
        epoch replay, while a few shards' aggregate capacity (each shard
        node brings its own cache memory) holds the whole set, so later
        epochs still send some requests past the cache to a shard.
        """
        return max(16, round(min(self.unique_keys.values()) / 2))


def build_load(bundles: Mapping[str, object]) -> ServingLoad:
    """Build the request stream from per-cluster workload bundles.

    ``bundles`` maps cluster name to an :class:`~repro.experiments.shared.
    ClusterBundle`-shaped object (``predictor()``, ``test_log()``,
    ``runner.plans``, ``runner.estimator_config``).  Jobs interleave
    round-robin across clusters in sorted-name order — the multi-tenant
    arrival mix — and every :data:`DEFAULT_PLAN_EVERY`-th job of a cluster
    issues a plan-cost request right after its predict batch.
    """
    if not bundles:
        raise ValueError("build_load needs at least one cluster bundle")
    clusters = tuple(sorted(bundles))
    per_cluster: dict[str, list[list["PredictJob | PlanJob"]]] = {}
    predictors: dict[str, CleoPredictor] = {}
    estimator_configs: dict[str, object] = {}
    unique_keys: dict[str, int] = {}
    for cluster in clusters:
        bundle = bundles[cluster]
        predictors[cluster] = bundle.predictor()
        estimator_configs[cluster] = bundle.runner.estimator_config
        seen: set = set()
        steps: list[list[PredictJob | PlanJob]] = []
        for j, job in enumerate(bundle.test_log()):
            requests = tuple(
                PredictionRequest.for_record(record) for record in job.operators
            )
            seen.update(request_keys(requests))
            step: list[PredictJob | PlanJob] = [
                PredictJob(cluster=cluster, job_id=job.job_id, requests=requests)
            ]
            if j % DEFAULT_PLAN_EVERY == 0:
                step.append(
                    PlanJob(
                        cluster=cluster,
                        job_id=job.job_id,
                        root=bundle.runner.plans[job.job_id],
                    )
                )
            steps.append(step)
        if not steps:
            raise ValueError(f"cluster {cluster!r} contributed no jobs")
        unique_keys[cluster] = len(seen)
        per_cluster[cluster] = steps
    requests: list[PredictJob | PlanJob] = []
    depth = max(len(steps) for steps in per_cluster.values())
    for j in range(depth):
        for cluster in clusters:
            steps = per_cluster[cluster]
            if j < len(steps):
                requests.extend(steps[j])
    return ServingLoad(
        requests=tuple(requests),
        predictors=predictors,
        estimator_configs=estimator_configs,
        unique_keys=unique_keys,
    )
