"""Cleo's prediction front-end with the specificity fallback chain.

The combined model is the primary predictor (it covers every operator since
the operator model always contributes a meta-feature).  When the combined
model is absent — e.g. when experimenting with individual models only — the
most specific covering individual model answers, and a trained global mean
is the final fallback, so the predictor is total over any workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.combined import CombinedModel, build_meta_matrix
from repro.core.config import ModelKind
from repro.core.learned_model import ResourceProfile
from repro.core.model_store import ModelStore
from repro.core.packed import predict_most_specific
from repro.execution.runtime_log import OperatorRecord
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.plan.signatures import SignatureBundle


@dataclass
class CleoPredictor:
    """Trained Cleo: the model store plus the combined meta-model."""

    store: ModelStore
    combined: CombinedModel | None = None
    fallback_cost: float = 1.0
    lookup_count: int = field(default=0, repr=False)

    #: Individual model kinds consulted per prediction (4) plus the combined
    #: model (1) — the paper's "each sample leads to five learned cost model
    #: predictions" accounting (Section 6.5).
    LOOKUPS_PER_PREDICTION = 5

    def predict(self, features: FeatureInput, signatures: SignatureBundle) -> float:
        """Predicted exclusive cost (seconds) of one operator instance."""
        self.lookup_count += self.LOOKUPS_PER_PREDICTION
        if self.combined is not None and self.combined.is_fitted:
            return self.combined.predict_one(features, signatures)
        best = self.store.most_specific(signatures)
        if best is not None:
            return best[1].predict_one(features)
        return self.fallback_cost

    def predict_record(self, record: OperatorRecord) -> float:
        return self.predict(record.features, record.signatures)

    # ------------------------------------------------------------------ #
    # Resource profiles (Section 5.3)
    # ------------------------------------------------------------------ #

    def resource_profile(
        self, features: FeatureInput, signatures: SignatureBundle
    ) -> ResourceProfile | None:
        """The most specific covering model's (theta_p, theta_c, theta_0)."""
        best = self.store.most_specific(signatures)
        if best is None:
            return None
        self.lookup_count += self.LOOKUPS_PER_PREDICTION
        return best[1].resource_profile(features)

    # ------------------------------------------------------------------ #
    # Coverage
    # ------------------------------------------------------------------ #

    def coverage_fraction(self, kind: ModelKind, records: list[OperatorRecord]) -> float:
        """Fraction of records whose signature has a model of ``kind``."""
        if not records:
            return float("nan")
        covered = sum(1 for r in records if self.store.covers(kind, r.signatures))
        return covered / len(records)

    def reset_lookup_count(self) -> None:
        self.lookup_count = 0

    @property
    def model_count(self) -> int:
        return self.store.count()

    @property
    def memory_bytes(self) -> int:
        return self.store.memory_bytes

    def predict_records(
        self, records: list[OperatorRecord], table: FeatureTable | None = None
    ) -> np.ndarray:
        """Batched predictions for logged operators, in record order.

        Both branches run on the packed inference bank: the combined path
        through the packed meta-row builder + flat tree ensemble, the
        store-only path through the packed fallback chain
        (:func:`~repro.core.packed.predict_most_specific`) — each bitwise
        identical to per-record :meth:`predict_record`, with the same
        lookup accounting.  Callers that already materialized the records'
        columns (``log.to_table()``) can pass ``table`` to skip re-packing
        them.
        """
        records = list(records)
        if not records:
            return np.empty(0, dtype=float)
        if table is None:
            table = FeatureTable.from_records(records)
        elif len(table) != len(records):
            raise ValueError("table and records must align")
        self.lookup_count += len(records) * self.LOOKUPS_PER_PREDICTION
        if self.combined is not None and self.combined.is_fitted:
            return self.combined.predict_rows(build_meta_matrix(self.store, table))
        values, _, _ = predict_most_specific(self.store, table, self.fallback_cost)
        return values

