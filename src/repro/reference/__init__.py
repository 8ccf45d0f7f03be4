"""The parity references: per-row twins of the product's fast paths.

Product code executes, prices, trains and serves one way: the batched
execution engine, the packed tier index, the flat tree ensemble and the
columnar trainer.  This package keeps what those paths replaced, one
operator, model object, tree or record at a time, and the tests hold every
fast path to its reference bit for bit.  No product module imports it,
save the delegate :meth:`~repro.core.trainer.CleoTrainer.train_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.combined import CombinedModel, assemble_meta_rows, build_meta_matrix
from repro.core.config import SPECIFICITY_ORDER, CleoConfig, ModelKind
from repro.core.learned_model import LearnedCostModel, ResourceProfile
from repro.core.model_store import SIGNATURE_FIELDS, ModelStore, signature_for
from repro.core.predictor import CleoPredictor
from repro.execution.runtime_log import (
    JobRecord,
    OperatorBlock,
    OperatorRecord,
    OperatorRows,
    RunLog,
)
from repro.execution.simulator import ExecutionSimulator
from repro.features.extract import operator_row
from repro.features.featurizer import FeatureInput, expand_columns, feature_names
from repro.features.table import FeatureTable
from repro.ml.base import Regressor, check_predict_input
from repro.ml.gbm import FastTreeRegressor
from repro.plan.physical import PhysicalOp
from repro.plan.signatures import SignatureBundle
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner
from repro.workload.templates import instantiate

# Execution: operator by operator, one block per job.


@dataclass(frozen=True)
class JobResult:
    """Outcome of executing one job through :func:`run_job`."""

    record: JobRecord
    stage_latencies: tuple[float, ...]


def run_job(
    simulator: ExecutionSimulator,
    plan: PhysicalOp,
    job_id: str,
    template_id: str = "",
    day: int = 1,
    is_adhoc: bool = False,
    estimator: CardinalityEstimator | None = None,
    with_noise: bool = True,
) -> JobResult:
    """:meth:`~repro.execution.batch.BatchedExecutionEngine.add_plan` +
    ``finish`` for one job, walking ``plan`` operator by operator.

    Args:
        estimator: the cardinality estimator whose *estimates* are logged
            as features (default: a fresh one).  The actual latencies
            always use true cardinalities.
        with_noise: disable for the deterministic oracle.
    """
    estimator = estimator or CardinalityEstimator()
    ground_truth = simulator.ground_truth
    noise_rng = simulator._rngs.child("noise", job_id, day) if with_noise else None
    ops = list(plan.walk())
    latencies: dict[int, float] = {}
    op_latencies: list[float] = []
    cpus: list[float] = []
    cpu_total = 0.0
    for op in ops:
        latency = ground_truth.exclusive_latency(op, rng=noise_rng)
        cpu = ground_truth.cpu_seconds(op, latency)
        cpu_total += cpu
        latencies[id(op)] = latency
        op_latencies.append(latency)
        cpus.append(cpu)
    n = len(ops)
    features = FeatureTable.from_rows(
        [operator_row(op, estimator) for op in ops], [SignatureBundle.of(op) for op in ops]
    )
    block = OperatorBlock(
        table=FeatureTable(
            features=features.features,
            signatures=features.signatures,
            latency=np.array(op_latencies, dtype=float),
            day=np.full(n, day, dtype=np.int64),
            cluster=(simulator.cluster.name,) * n,
            is_adhoc=np.full(n, is_adhoc, dtype=bool),
        ),
        job_id=(job_id,) * n,
        op_type=tuple(op.op_type.value for op in ops),
        template_tag=tuple(op.template_tag for op in ops),
        actual_output_card=np.array([op.true_card for op in ops], dtype=float),
        actual_input_card=np.array([op.input_card for op in ops], dtype=float),
        cpu_seconds=np.array(cpus, dtype=float),
    )
    stage_latencies, job_latency = simulator._stage_critical_path(plan, latencies)
    record = JobRecord(
        job_id=job_id,
        template_id=template_id,
        cluster=simulator.cluster.name,
        day=day,
        is_adhoc=is_adhoc,
        latency_seconds=job_latency,
        cpu_seconds=cpu_total,
        input_bytes=sum(op.true_card * op.row_bytes for op in ops if not op.children),
        operators=OperatorRows(block, 0, n),
    )
    return JobResult(record=record, stage_latencies=tuple(stage_latencies))


def run_days_reference(
    runner: WorkloadRunner, generator: WorkloadGenerator, days: list[int] | range
) -> RunLog:
    """:meth:`~repro.workload.runner.WorkloadRunner.run_days`, every job
    planned through the runner's ``QueryPlanner`` and executed by
    :func:`run_job`, one record appended at a time."""
    log = RunLog()
    for day in days:
        catalog = generator.catalog_for_day(day)
        for job in generator.jobs_for_day(day):
            runner._planner.jitter_salt = job.job_id
            plan = runner._planner.plan(instantiate(job, catalog)).plan
            result = run_job(
                runner.simulator,
                plan,
                job_id=job.job_id,
                template_id=job.template.template_id,
                day=job.day,
                is_adhoc=job.is_adhoc,
                estimator=runner._estimator,
            )
            log.append(result.record)
            if runner.keep_plans:
                runner.plans[job.job_id] = plan
    return log


# Pricing: the per-model object graph.


def predict_covered_reference(
    store: ModelStore,
    table: FeatureTable,
    kind: ModelKind,
    full_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One kind's ``(mask, predictions)`` (its column of
    :func:`~repro.core.combined.covered_tiers`), one ``predict_matrix`` per
    covering ``(kind, signature)`` group."""
    if full_matrix is None:
        full_matrix = table.feature_matrix(include_context=True)
    return _covered_reference(store, table, kind, full_matrix)[:2]


def _covered_reference(
    store: ModelStore, table: FeatureTable, kind: ModelKind, full_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(mask, predictions, model calls made)`` of one kind, group by group."""
    width = len(feature_names(kind.uses_context_features))
    mask = np.zeros(len(table), dtype=bool)
    values = np.zeros(len(table), dtype=float)
    calls = 0
    uniques, order, starts, counts = table.group_by_signature(SIGNATURE_FIELDS[kind])
    for signature, start, count in zip(uniques, starts, counts):
        model = store.get(kind, int(signature))
        if model is None:
            continue
        indices = order[start : start + count]
        calls += 1
        values[indices] = model.predict_matrix(full_matrix[indices, :width])
        mask[indices] = True
    return mask, values, calls


def meta_matrix_and_calls_reference(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """:func:`~repro.core.combined.meta_matrix_and_calls`, every kind priced
    group by group and the rows assembled by the product's
    :func:`~repro.core.combined.assemble_meta_rows`.  Without a
    ``full_matrix`` the derived features are expanded for this batch, not
    read from the table's memo."""
    if full_matrix is None:
        full_matrix = expand_columns(table.features, include_context=True)
    masks = np.empty((len(table), len(SPECIFICITY_ORDER)), dtype=bool)
    predictions = np.empty(masks.shape, dtype=float)
    calls = 0
    for k, kind in enumerate(SPECIFICITY_ORDER):
        masks[:, k], predictions[:, k], kind_calls = _covered_reference(
            store, table, kind, full_matrix
        )
        calls += kind_calls
    return assemble_meta_rows(table, masks, predictions), calls


def build_meta_matrix_reference(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> np.ndarray:
    """:func:`~repro.core.combined.build_meta_matrix` through the object graph."""
    return meta_matrix_and_calls_reference(store, table, full_matrix)[0]


def build_meta_row(
    store: ModelStore, features: FeatureInput, bundle: SignatureBundle
) -> np.ndarray:
    """One operator's meta row: a one-row :func:`~repro.core.combined.
    build_meta_matrix`."""
    return build_meta_matrix(store, FeatureTable.from_inputs([features], [bundle]))[0]


def combined_predict_one(
    combined: CombinedModel, features: FeatureInput, bundle: SignatureBundle
) -> float:
    """The combined model's price of one operator, from its own meta row."""
    row = build_meta_row(combined.store, features, bundle)
    return combined.predict_rows(row.reshape(1, -1))[0]


def predict_reference(forest: FastTreeRegressor, features: np.ndarray) -> np.ndarray:
    """:meth:`~repro.ml.gbm.FastTreeRegressor.predict`, tree at a time."""
    features = check_predict_input(features, bool(forest.trees_))
    out = np.full(features.shape[0], forest.base_prediction_)
    for tree in forest.trees_:
        out += forest.learning_rate * tree.predict(features)
    return forest._inverse(out)


def predict_rows_reference(combined: CombinedModel, rows: np.ndarray) -> np.ndarray:
    """:meth:`~repro.core.combined.CombinedModel.predict_rows`, its FastTree
    walked by :func:`predict_reference`."""
    if not combined.is_fitted:
        raise RuntimeError("combined model used before fit")
    return np.clip(predict_reference(combined.regressor, rows), 0.0, None)


def predict_most_specific_reference(
    store: ModelStore,
    inputs: Sequence[FeatureInput],
    bundles: Sequence[SignatureBundle],
    fallback_cost: float,
) -> np.ndarray:
    """:func:`~repro.core.packed.predict_most_specific`, row by row: the most
    specific covering model, else ``fallback_cost``."""
    values = []
    for features, bundle in zip(inputs, bundles):
        best = store.most_specific(bundle)
        values.append(best[1].predict_one(features) if best is not None else fallback_cost)
    return np.array(values)


def resource_profiles_reference(
    store: ModelStore, inputs: Sequence[FeatureInput], bundles: Sequence[SignatureBundle]
) -> list[ResourceProfile | None]:
    """:func:`~repro.core.packed.resource_profiles_most_specific`, row by
    row: the most specific covering model's profile, else ``None``."""
    profiles: list[ResourceProfile | None] = []
    for features, bundle in zip(inputs, bundles):
        best = store.most_specific(bundle)
        profiles.append(None if best is None else best[1].resource_profile(features))
    return profiles


def predict_records_reference(
    predictor: CleoPredictor, records: Iterable[OperatorRecord]
) -> np.ndarray:
    """The pre-packed pipeline behind :meth:`~repro.serving.service.
    CleoService.predict_records` for a predictor with a combined model: a
    fresh table of the records, the object-graph meta builder, then the
    tree-at-a-time forest."""
    table = FeatureTable.from_records(list(records))
    rows = build_meta_matrix_reference(predictor.store, table)
    return predict_rows_reference(predictor.combined, rows)


# Training: record by record, unsanitized (the pre-gate baseline).


def train_individual_reference(log: RunLog, config: CleoConfig) -> ModelStore:
    """:meth:`~repro.core.trainer.CleoTrainer.train_individual`: groups with
    dict appends, one model fitted at a time."""
    groups: dict[tuple[ModelKind, int], tuple[list[FeatureInput], list[float]]] = {}
    for record in log.operator_records():
        for kind in ModelKind:
            key = (kind, signature_for(kind, record.signatures))
            inputs, latencies = groups.setdefault(key, ([], []))
            inputs.append(record.features)
            latencies.append(record.actual_latency)

    store = ModelStore()
    for (kind, signature), (inputs, latencies) in groups.items():
        if len(inputs) < config.min_samples:
            continue
        model = LearnedCostModel(include_context=kind.uses_context_features, config=config)
        model.fit(inputs, np.asarray(latencies))
        store.add(kind, signature, model)
    return store


def train_combined_reference(
    store: ModelStore, log: RunLog, config: CleoConfig, regressor: Regressor | None = None
) -> CombinedModel:
    """:meth:`~repro.core.trainer.CleoTrainer.train_combined`, one
    :func:`build_meta_row` per record."""
    combined = CombinedModel(store, config=config, regressor=regressor)
    records = list(log.operator_records())
    if not records:
        raise ValueError("no operator records to train the combined model on")
    matrix = np.vstack([build_meta_row(store, r.features, r.signatures) for r in records])
    target_arr = np.asarray([r.actual_latency for r in records])
    if len(records) > config.max_meta_samples:
        # repro: allow(wallclock-rng) -- mirrors CleoTrainer.train_combined exactly: both paths replay the same raw-seed stream so the subsample (and therefore the fitted combined model) stays bitwise-identical
        rng = np.random.default_rng(config.seed)
        take = rng.choice(len(records), size=config.max_meta_samples, replace=False)
        matrix, target_arr = matrix[take], target_arr[take]
    combined.fit_rows(matrix, target_arr)
    return combined


def train_reference(
    log: RunLog, individual_days: list[int], combined_days: list[int], config: CleoConfig
) -> CleoPredictor:
    """:meth:`~repro.core.trainer.CleoTrainer.train` over the references."""
    store = train_individual_reference(log.filter(days=individual_days), config)
    combined = train_combined_reference(store, log.filter(days=combined_days), config)
    return CleoPredictor(store=store, combined=combined)
