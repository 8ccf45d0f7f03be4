"""The combined model: a meta-ensemble over the individual predictions.

Section 4.3: a FastTree (gradient-boosted trees) regressor consumes the
predictions of the four individual models as meta-features, together with
cardinalities, per-partition cardinalities, and the partition count, and
outputs a corrected cost.  It characterizes where each individual model is
reliable, covers every operator (the operator model always predicts), and
degrades gracefully where specialized models are missing.

Meta rows are built **columnar**: :func:`build_meta_matrix` fills all
four prediction columns of a :class:`~repro.features.table.FeatureTable`
from one pass over the store's tier index (:func:`covered_tiers`: one
signature resolution, then gathers and one row multiply-sum over every
covered ``(row, kind)`` pair at once), then imputes and appends the extras with array ops.
The scalar :func:`build_meta_row` is a one-row call into the same code, so
the two can never drift.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SPECIFICITY_ORDER, CleoConfig, ModelKind
from repro.core.model_store import SIGNATURE_FIELDS, ModelStore
from repro.features.featurizer import FeatureInput, expand_columns, feature_names
from repro.features.table import FeatureTable
from repro.ml.base import Regressor
from repro.ml.gbm import FastTreeRegressor
from repro.plan.signatures import SignatureBundle

#: Meta-feature layout: 4 predictions, 4 coverage flags, then the extra
#: features of Section 4.3 — cardinalities (I, B, C), per-partition
#: cardinalities (I/P, B/P, C/P), and the partition count P.
META_FEATURE_NAMES: tuple[str, ...] = (
    "pred_op_subgraph",
    "pred_op_subgraph_approx",
    "pred_op_input",
    "pred_operator",
    "has_op_subgraph",
    "has_op_subgraph_approx",
    "has_op_input",
    "has_operator",
    "I",
    "B",
    "C",
    "I/P",
    "B/P",
    "C/P",
    "P",
)

def predict_covered(
    store: ModelStore,
    table: FeatureTable,
    kind: ModelKind,
    full_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One kind's ``(mask, predictions)``: its column of :func:`covered_tiers`.

    ``predictions[i]`` is 0.0 (and meaningless) where ``mask[i]`` is False.
    Bitwise identical to the retained :func:`predict_covered_reference`.
    """
    masks, predictions, _ = covered_tiers(store, table, full_matrix)
    k = SPECIFICITY_ORDER.index(kind)
    return masks[:, k], predictions[:, k]


def covered_tiers(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every tier's ``(n, 4)`` coverage and predictions, plus model calls.

    The one covered-prediction primitive shared by meta-row construction,
    the robustness evaluators, the quarantine audit and the serving layer.
    The store's **tier index** (:mod:`repro.core.packed`), which holds every
    model the store does, resolves all four signature columns in one
    ``np.searchsorted`` and prices every covered ``(row, kind)`` pair in one
    gather + row multiply-sum pass over all kinds — bitwise identical to the
    per-kind object-graph groups of :func:`predict_covered_reference`, the
    reference the tests hold it to.  Columns follow
    :data:`~repro.core.config.SPECIFICITY_ORDER`; uncovered predictions are
    0.0.  The call count is one per distinct covering ``(kind, signature)``
    model, read once from one ledger.

    ``full_matrix`` may pass a precomputed ``table.feature_matrix(
    include_context=True)`` to avoid a second expansion.
    """
    if full_matrix is None:
        full_matrix = table.feature_matrix(include_context=True)
    bank = store.packed_bank()
    slot = bank.resolve(table.signatures)
    masks = slot >= 0
    predictions = np.zeros(slot.shape, dtype=float)
    pairs = masks.ravel().nonzero()[0]
    models = slot.ravel()[pairs]
    predictions.ravel()[pairs] = bank.price(full_matrix, pairs // len(SPECIFICITY_ORDER), models)
    return masks, predictions, bank.answered(models)


def predict_covered_reference(
    store: ModelStore,
    table: FeatureTable,
    kind: ModelKind,
    full_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The retained object-graph path: one ``predict_matrix`` per group.

    Groups rows by the kind's signature column and prices each covered
    ``(kind, signature)`` group with a single model call.  The packed
    :func:`predict_covered` must match this bit for bit — it is the
    benchmark baseline and the parity-test reference.
    """
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


def build_meta_matrix(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Meta-feature rows for every table row, built with grouped model calls.

    ``full_matrix`` may pass a precomputed ``table.feature_matrix(
    include_context=True)`` so callers that already expanded the table
    (the trainer) avoid a second pass.

    Missing individual predictions are imputed with the most general
    available prediction; the coverage flags let the trees learn where each
    model's prediction is real versus imputed.
    """
    return meta_matrix_and_calls(store, table, full_matrix)[0]


def build_meta_matrix_reference(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> np.ndarray:
    """:func:`build_meta_matrix` through the retained object-graph path
    (one model call per covering group) — the benchmark/parity baseline."""
    return meta_matrix_and_calls(store, table, full_matrix, reference=True)[0]


def meta_matrix_and_calls(
    store: ModelStore,
    table: FeatureTable,
    full_matrix: np.ndarray | None = None,
    reference: bool = False,
) -> tuple[np.ndarray, int]:
    """The meta rows plus how many individual models answered.

    The count is the serving layer's vectorized-call accounting: one per
    distinct covering ``(kind, signature)`` model (:func:`covered_tiers`).
    ``reference`` takes the retained object-graph path for every kind and
    is faithful to the pre-packed pipeline including its per-batch feature
    expansion: without a ``full_matrix`` the derived matrix is recomputed
    rather than read from the table's memo.

    Coverage and predictions arrive as one ``(n, 4)`` block; flags,
    imputation and the extras are then whole-block passes over it and the
    feature rows.  The copies move exact values and each divide is the one
    the scalar row made, so assembly order cannot affect bits.
    """
    n = len(table)
    kinds = len(SPECIFICITY_ORDER)
    if not reference:
        masks, predictions, calls = covered_tiers(store, table, full_matrix)
    else:
        if full_matrix is None:
            full_matrix = expand_columns(table.features, include_context=True)
        masks = np.empty((n, kinds), dtype=bool)
        predictions = np.empty((n, kinds), dtype=float)
        calls = 0
        for k, kind in enumerate(SPECIFICITY_ORDER):
            masks[:, k], predictions[:, k], kind_calls = _covered_reference(
                store, table, kind, full_matrix
            )
            calls += kind_calls

    out = np.empty((n, len(META_FEATURE_NAMES)), dtype=float)
    # The most general available prediction — the last covered kind in
    # specificity order — imputes the missing ones.  Uncovered predictions
    # are 0.0, so a row no kind covers imputes 0.0.
    last = kinds - 1 - masks[:, ::-1].argmax(axis=1)
    impute = predictions[np.arange(n), last]
    out[:, :kinds] = np.where(masks, predictions, impute[:, None])
    out[:, kinds : 2 * kinds] = masks

    # Extras: I, B, C, then each over P, then P (feature columns 0-2 and 4).
    features = table.features
    extras = out[:, 2 * kinds :]
    extras[:, :3] = features[:, :3]
    np.divide(features[:, :3], features[:, 4:5], out=extras[:, 3:6])
    extras[:, 6] = features[:, 4]
    return out, calls


def build_meta_row(
    store: ModelStore, features: FeatureInput, bundle: SignatureBundle
) -> np.ndarray:
    """One meta-feature row: a single-row :func:`build_meta_matrix` call,
    so scalar and batched meta-row construction share one implementation."""
    return build_meta_matrix(store, FeatureTable.from_inputs([features], [bundle]))[0]


class CombinedModel:
    """The trained meta-ensemble (FastTree by default, pluggable for Table 6)."""

    def __init__(
        self, store: ModelStore, config: CleoConfig | None = None, regressor: Regressor | None = None
    ) -> None:
        self.store = store
        self.config = config or CleoConfig()
        if regressor is None:
            regressor = FastTreeRegressor(
                n_estimators=self.config.meta_trees,
                max_depth=self.config.meta_depth,
                subsample=self.config.meta_subsample,
                learning_rate=self.config.meta_learning_rate,
                log_target=True,
                seed=self.config.seed,
            )
        self.regressor = regressor
        self._fitted = False

    def fit_rows(self, rows: np.ndarray, latencies: np.ndarray) -> "CombinedModel":
        """Fit on pre-built meta rows (the trainer builds them in bulk)."""
        self.regressor.fit(rows, np.asarray(latencies, dtype=float))
        self._fitted = True
        return self

    def predict_one(self, features: FeatureInput, bundle: SignatureBundle) -> float:
        row = build_meta_row(self.store, features, bundle)
        return self.predict_rows(row.reshape(1, -1))[0]

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("combined model used before fit")
        return np.clip(np.asarray(self.regressor.predict(rows), dtype=float), 0.0, None)

    def predict_rows_reference(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`predict_rows` through the regressor's retained reference
        path (tree-at-a-time for FastTree) — the benchmark baseline."""
        if not self._fitted:
            raise RuntimeError("combined model used before fit")
        predict = getattr(self.regressor, "predict_reference", self.regressor.predict)
        return np.clip(np.asarray(predict(rows), dtype=float), 0.0, None)

    @property
    def is_fitted(self) -> bool:
        return self._fitted
