"""The combined model: a meta-ensemble over the individual predictions.

Section 4.3: a FastTree (gradient-boosted trees) regressor consumes the
predictions of the four individual models as meta-features, together with
cardinalities, per-partition cardinalities, and the partition count, and
outputs a corrected cost.  It characterizes where each individual model is
reliable, covers every operator (the operator model always predicts), and
degrades gracefully where specialized models are missing.

Meta rows are built **columnar**: one pass over the store's tier index
prices all four prediction columns of a table (:func:`covered_tiers`), and
:func:`assemble_meta_rows` imputes and appends the extras with array ops.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SPECIFICITY_ORDER, CleoConfig
from repro.core.model_store import ModelStore
from repro.features.table import FeatureTable
from repro.ml.base import Regressor
from repro.ml.gbm import FastTreeRegressor

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


def covered_tiers(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every tier's ``(n, 4)`` coverage and predictions, plus model calls.

    The one covered-prediction primitive shared by meta-row construction,
    the robustness evaluators, the quarantine audit and the serving layer.
    The store's **tier index** (:mod:`repro.core.packed`), which holds every
    model the store does, resolves all four signature columns in one
    ``np.searchsorted`` and prices every covered ``(row, kind)`` pair in one
    gather + row multiply-sum pass over all kinds.  Columns follow
    :data:`~repro.core.config.SPECIFICITY_ORDER`; uncovered predictions are
    0.0.  The call count is one per distinct covering ``(kind, signature)``
    model, read once from one ledger.  ``full_matrix`` may pass a
    precomputed ``table.feature_matrix(include_context=True)``.
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


def build_meta_matrix(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Meta-feature rows for every table row (:func:`meta_matrix_and_calls`).

    Missing individual predictions are imputed with the most general
    available prediction; the coverage flags let the trees learn where each
    model's prediction is real versus imputed.
    """
    return meta_matrix_and_calls(store, table, full_matrix)[0]


def meta_matrix_and_calls(
    store: ModelStore, table: FeatureTable, full_matrix: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """The meta rows plus how many individual models answered.

    The count is the serving layer's vectorized-call accounting: one per
    distinct covering ``(kind, signature)`` model (:func:`covered_tiers`).
    """
    masks, predictions, calls = covered_tiers(store, table, full_matrix)
    return assemble_meta_rows(table, masks, predictions), calls


def assemble_meta_rows(
    table: FeatureTable, masks: np.ndarray, predictions: np.ndarray
) -> np.ndarray:
    """Meta rows from every tier's ``(n, 4)`` coverage and predictions.

    Flags, imputation and the extras are whole-block passes over the tiers
    and the feature rows.  The copies move exact values and each divide is
    elementwise, so assembly order cannot affect bits.
    """
    n, kinds = masks.shape
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
    return out


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

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("combined model used before fit")
        return np.clip(np.asarray(self.regressor.predict(rows), dtype=float), 0.0, None)

    @property
    def is_fitted(self) -> bool:
        return self._fitted
