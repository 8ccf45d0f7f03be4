"""Deterministic request streams for serving load tests.

Models the paper's serving traffic shape (Section 5.1): recurring jobs
arrive from several clusters at once, each job pricing all of its operators
(one batched predict call), with a fraction of jobs also asking for a full
plan cost through the optimizer path.  The stream is a pure function of the
workload bundles — same jobs, same order, same request objects in every
process — so measured throughput differences come from the serving tier,
never from the load.

A load is replayed for several **epochs**: recurring workloads re-price the
same operators day after day, and steady-state behaviour (cache hit rates,
shard balance) only shows up after the first pass.  One epoch's working set
is summarized per cluster (``unique_keys``) so harnesses can size per-shard
caches relative to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.predictor import CleoPredictor
from repro.serving.service import CleoService, PredictionRequest, request_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.physical import PhysicalOp

#: Every ``plan_every``-th job of a cluster also issues a plan-cost request.
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


class ServingBackend(Protocol):
    """What a load run needs from a serving tier."""

    def predict_batch(
        self, cluster: str, requests: Sequence[PredictionRequest]
    ) -> np.ndarray: ...

    def predict_plan(
        self, cluster: str, root: "PhysicalOp", estimator: CardinalityEstimator
    ) -> float: ...


class ServiceBackend:
    """The single-process baseline: one plain ``CleoService`` per cluster."""

    def __init__(self, services: Mapping[str, CleoService]) -> None:
        self.services = dict(services)

    def predict_batch(
        self, cluster: str, requests: Sequence[PredictionRequest]
    ) -> np.ndarray:
        return self.services[cluster].predict_batch(requests)

    def predict_plan(
        self, cluster: str, root: "PhysicalOp", estimator: CardinalityEstimator
    ) -> float:
        return self.services[cluster].predict_plan(root, estimator)


@dataclass
class ServingLoad:
    """One epoch's deterministic request sequence plus its model banks."""

    clusters: tuple[str, ...]
    requests: tuple["PredictJob | PlanJob", ...]
    predictors: dict[str, CleoPredictor]
    estimator_configs: dict[str, object]
    #: Per-cluster size of one epoch's unique (features, signatures) set.
    unique_keys: dict[str, int]
    #: Scalar predictions issued per epoch via the predict-batch requests.
    n_predictions: int

    def fresh_estimator(self, cluster: str) -> CardinalityEstimator:
        return CardinalityEstimator(self.estimator_configs[cluster])

    def suggested_cache_capacity(self, fraction: float = 0.5) -> int:
        """A per-shard LRU capacity sized against the per-cluster working set.

        ``fraction`` of the *smallest* cluster's unique-request count: below
        every cluster's working set, so a single shard's LRU thrashes on a
        cyclic epoch replay, while a few shards' aggregate capacity (each
        shard node brings its own cache memory) holds the whole set — the
        memory dimension of scale-out that the serving load test measures.
        """
        smallest = min(self.unique_keys.values())
        return max(16, int(round(smallest * fraction)))

    def describe(self) -> str:
        n_plans = sum(1 for r in self.requests if isinstance(r, PlanJob))
        return (
            f"ServingLoad({len(self.requests)} requests/epoch over "
            f"{sorted(self.clusters)}: {self.n_predictions} predictions, "
            f"{n_plans} plan costs)"
        )


def build_load(
    bundles: Mapping[str, object],
    plan_every: int = DEFAULT_PLAN_EVERY,
    max_jobs_per_cluster: int | None = None,
) -> ServingLoad:
    """Build the request stream from per-cluster workload bundles.

    ``bundles`` maps cluster name to an :class:`~repro.experiments.shared.
    ClusterBundle`-shaped object (``predictor()``, ``test_log()``,
    ``runner.plans``, ``runner.estimator_config``).  Jobs interleave
    round-robin across clusters in sorted-name order — the multi-tenant
    arrival mix — and every ``plan_every``-th job of a cluster issues a
    plan-cost request right after its predict batch.
    """
    if not bundles:
        raise ValueError("build_load needs at least one cluster bundle")
    if plan_every < 1:
        raise ValueError("plan_every must be >= 1")
    clusters = tuple(sorted(bundles))
    per_cluster: dict[str, list[list["PredictJob | PlanJob"]]] = {}
    predictors: dict[str, CleoPredictor] = {}
    estimator_configs: dict[str, object] = {}
    unique_keys: dict[str, int] = {}
    n_predictions = 0
    for cluster in clusters:
        bundle = bundles[cluster]
        predictors[cluster] = bundle.predictor()
        estimator_configs[cluster] = bundle.runner.estimator_config
        seen: set = set()
        steps: list[list[PredictJob | PlanJob]] = []
        for j, job in enumerate(bundle.test_log()):
            if max_jobs_per_cluster is not None and j >= max_jobs_per_cluster:
                break
            requests = tuple(
                PredictionRequest.for_record(record) for record in job.operators
            )
            seen.update(request_keys(requests))
            n_predictions += len(requests)
            step: list[PredictJob | PlanJob] = [
                PredictJob(cluster=cluster, job_id=job.job_id, requests=requests)
            ]
            if j % plan_every == 0:
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
        clusters=clusters,
        requests=tuple(requests),
        predictors=predictors,
        estimator_configs=estimator_configs,
        unique_keys=unique_keys,
        n_predictions=n_predictions,
    )


@dataclass
class LoadResult:
    """Timings and first-epoch outputs of one load replay."""

    #: Per-request wall seconds, in issue order, across every epoch.
    latencies: np.ndarray
    #: Wall seconds per epoch.
    epoch_seconds: list[float]
    #: Scalar predictions issued per epoch.
    predictions_per_epoch: int
    #: First-epoch per-request prediction arrays (the parity fingerprint).
    predictions: list[np.ndarray] = field(repr=False, default_factory=list)
    #: First-epoch plan totals (parity fingerprint for the plan path).
    plan_totals: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    @property
    def requests_per_epoch(self) -> int:
        return len(self.latencies) // max(1, len(self.epoch_seconds))

    @property
    def throughput(self) -> float:
        """Scalar predictions per second over the whole replay."""
        epochs = len(self.epoch_seconds)
        return self.predictions_per_epoch * epochs / self.total_seconds

    @property
    def steady_state_throughput(self) -> float:
        """Predictions per second in the final epoch (caches warm)."""
        return self.predictions_per_epoch / self.epoch_seconds[-1]

    def latency_quantile(self, q: float) -> float:
        return float(np.quantile(self.latencies, q))

    @property
    def p50_ms(self) -> float:
        return 1e3 * self.latency_quantile(0.50)

    @property
    def p99_ms(self) -> float:
        return 1e3 * self.latency_quantile(0.99)


def run_load(
    backend: ServingBackend, load: ServingLoad, epochs: int = 4
) -> LoadResult:
    """Replay the load against a serving backend, timing every request.

    Each plan request runs with a fresh cardinality estimator — a modelling
    choice (optimizer sessions share no estimator state), not a safety measure:
    a shared one would reply the same.  The first epoch's outputs are kept for
    bitwise parity checks between sharded and single-process serving.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    latencies: list[float] = []
    epoch_seconds: list[float] = []
    predictions: list[np.ndarray] = []
    plan_totals: list[float] = []
    for epoch in range(epochs):
        epoch_start = time.perf_counter()
        for request in load.requests:
            start = time.perf_counter()
            if isinstance(request, PlanJob):
                total = backend.predict_plan(
                    request.cluster,
                    request.root,
                    load.fresh_estimator(request.cluster),
                )
                if epoch == 0:
                    plan_totals.append(total)
            else:
                values = backend.predict_batch(
                    request.cluster, list(request.requests)
                )
                if epoch == 0:
                    predictions.append(values)
            latencies.append(time.perf_counter() - start)
        epoch_seconds.append(time.perf_counter() - epoch_start)
    return LoadResult(
        latencies=np.asarray(latencies, dtype=float),
        epoch_seconds=epoch_seconds,
        predictions_per_epoch=load.n_predictions,
        predictions=predictions,
        plan_totals=plan_totals,
    )
