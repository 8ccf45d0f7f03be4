"""Shared experiment infrastructure: cached workloads and trained predictors.

Building a multi-day workload and training Cleo is the expensive part of
most experiments, so bundles are cached per (cluster, scale, days, seed)
within the process — a benchmark session builds each workload once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.config import CleoConfig
from repro.core.predictor import CleoPredictor
from repro.core.trainer import CleoTrainer
from repro.execution.hardware import DEFAULT_CLUSTERS, ClusterSpec
from repro.execution.runtime_log import RunLog
from repro.features.table import FeatureTable
from repro.serving.service import CleoService
from repro.workload.generator import ClusterWorkloadConfig, WorkloadGenerator
from repro.workload.runner import WorkloadRunner

#: Scale presets: fraction of the reference workload size.
SCALES = {"tiny": 0.25, "small": 0.6, "full": 1.0}

#: Relative cluster sizes, mirroring Figure 9's load spread.
CLUSTER_SIZE = {"cluster1": 1.0, "cluster2": 0.75, "cluster3": 0.55, "cluster4": 0.4}

#: Per-cluster ad-hoc fractions within the paper's observed 7-20% band.
ADHOC_FRACTION = {"cluster1": 0.10, "cluster2": 0.17, "cluster3": 0.08, "cluster4": 0.14}


def cluster_spec(name: str) -> ClusterSpec:
    for spec in DEFAULT_CLUSTERS:
        if spec.name == name:
            return spec
    return ClusterSpec(name=name)


def workload_config(cluster_name: str, scale: str, seed: int) -> ClusterWorkloadConfig:
    size = CLUSTER_SIZE.get(cluster_name, 0.5) * SCALES[scale]
    return ClusterWorkloadConfig(
        cluster_name=cluster_name,
        n_tables=max(5, int(round(14 * size))),
        n_fragments=max(8, int(round(30 * size))),
        n_templates=max(10, int(round(60 * size))),
        adhoc_fraction=ADHOC_FRACTION.get(cluster_name, 0.12),
        seed=seed + sum(map(ord, cluster_name)),
    )


@dataclass
class ClusterBundle:
    """One cluster's workload run plus (lazily) trained Cleo."""

    cluster: ClusterSpec
    generator: WorkloadGenerator
    runner: WorkloadRunner
    log: RunLog
    _predictor: CleoPredictor | None = None
    _service: CleoService | None = None
    _train_days: tuple[int, ...] = ()
    _combined_days: tuple[int, ...] = ()
    _filtered_logs: dict[tuple[int, ...], RunLog] = field(default_factory=dict)

    def predictor(
        self,
        train_days: tuple[int, ...] = (1, 2),
        combined_days: tuple[int, ...] = (2,),
        config: CleoConfig | None = None,
    ) -> CleoPredictor:
        """Train (or reuse) Cleo on the given day split."""
        if (
            self._predictor is None
            or self._train_days != train_days
            or self._combined_days != combined_days
        ):
            trainer = CleoTrainer(config or CleoConfig())
            self._predictor = trainer.train(
                self.log,
                individual_days=list(train_days),
                combined_days=list(combined_days),
            )
            self._train_days = train_days
            self._combined_days = combined_days
            self._service = None
        return self._predictor

    def service(
        self,
        train_days: tuple[int, ...] = (1, 2),
        combined_days: tuple[int, ...] = (2,),
        config: CleoConfig | None = None,
    ) -> CleoService:
        """The serving façade over :meth:`predictor` (cached alongside it)."""
        predictor = self.predictor(train_days, combined_days, config)
        if self._service is None or self._service.predictor is not predictor:
            self._service = CleoService(predictor)
        return self._service

    def test_log(self, days: tuple[int, ...] = (3,)) -> RunLog:
        """Day-filtered log, cached so its columnar table is built once.

        Experiments hit the same test slice repeatedly; reusing the RunLog
        instance means ``to_table()`` materializes each slice's
        :class:`FeatureTable` a single time per bundle.
        """
        key = tuple(days)
        cached = self._filtered_logs.get(key)
        if cached is None:
            cached = self.log.filter(days=list(days))
            self._filtered_logs[key] = cached
        return cached

    def test_table(self, days: tuple[int, ...] = (3,)) -> FeatureTable:
        """Columnar view of the test slice (features, signatures, latencies)."""
        return self.test_log(days).to_table()

    def fresh_estimator(self) -> CardinalityEstimator:
        return CardinalityEstimator(self.runner.estimator_config)

    def baseline_costs(self, cost_model, days: tuple[int, ...] = (3,), estimator=None):
        """Cost-model estimates aligned with the test log's operator records.

        Requires ``keep_plans`` (always on for bundles): records are emitted
        in plan-walk order, so plans and records zip exactly.
        """
        estimator = estimator or self.fresh_estimator()
        costs: list[float] = []
        actuals: list[float] = []
        for job in self.test_log(days):
            plan = self.runner.plans[job.job_id]
            for op, record in zip(plan.walk(), job.operators):
                costs.append(cost_model.operator_cost(op, estimator))
                actuals.append(record.actual_latency)
        return np.asarray(costs), np.asarray(actuals)


_BUNDLES: dict[tuple, ClusterBundle] = {}


def get_bundle(
    cluster_name: str = "cluster1",
    scale: str = "small",
    days: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
) -> ClusterBundle:
    """Build (or fetch the cached) workload bundle for one cluster."""
    key = (cluster_name, scale, days, seed)
    bundle = _BUNDLES.get(key)
    if bundle is not None:
        return bundle
    spec = cluster_spec(cluster_name)
    generator = WorkloadGenerator(workload_config(cluster_name, scale, seed))
    runner = WorkloadRunner(cluster=spec, seed=seed, keep_plans=True)
    log = runner.run_days(generator, list(days))
    bundle = ClusterBundle(cluster=spec, generator=generator, runner=runner, log=log)
    _BUNDLES[key] = bundle
    return bundle


def get_all_cluster_bundles(
    scale: str = "small", days: tuple[int, ...] = (1, 2, 3), seed: int = 0
) -> dict[str, ClusterBundle]:
    return {
        spec.name: get_bundle(spec.name, scale=scale, days=days, seed=seed)
        for spec in DEFAULT_CLUSTERS
    }
