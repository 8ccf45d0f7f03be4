"""The parity references: per-row twins of the product's fast paths.

Product code prices, trains and serves one way: the packed tier index, the
flat tree ensemble and the columnar trainer.  This package keeps what those
paths replaced, one model object, tree or record at a time, and the tests
hold every fast path to its reference bit for bit.  No product module
imports it, save the delegate :meth:`~repro.core.trainer.CleoTrainer.
train_reference`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.combined import CombinedModel, assemble_meta_rows, build_meta_matrix
from repro.core.config import SPECIFICITY_ORDER, CleoConfig, ModelKind
from repro.core.learned_model import LearnedCostModel, ResourceProfile
from repro.core.model_store import SIGNATURE_FIELDS, ModelStore, signature_for
from repro.core.predictor import CleoPredictor
from repro.execution.runtime_log import OperatorRecord, RunLog
from repro.features.featurizer import FeatureInput, expand_columns, feature_names
from repro.features.table import FeatureTable
from repro.ml.base import Regressor, check_predict_input
from repro.ml.gbm import FastTreeRegressor
from repro.plan.signatures import SignatureBundle

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
