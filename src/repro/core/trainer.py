"""The training pipeline: from run logs to a ready predictor.

Mirrors Section 5.1's feedback loop: individual models are trained
independently per template signature (in SCOPE, in parallel on SCOPE
itself), then the combined model is trained on a *later* slice of the
workload so that the meta-features reflect the individual models'
generalization rather than their training fit.

The hot path is **columnar**: the run log becomes one
:class:`~repro.features.table.FeatureTable`, groups are formed with
``argsort``/``unique`` over its signature columns, each kind's elastic nets
are fitted in one batched Adam loop straight into the store's parameter
block, and the meta rows are priced as the serving layer prices.  The
per-record baseline (:mod:`repro.reference`) trains bitwise the same
models (``tests/core/test_trainer_columnar.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import DataQualityError
from repro.core.combined import CombinedModel, build_meta_matrix
from repro.core.config import CleoConfig, ModelKind
from repro.core.learned_model import fit_columns
from repro.core.model_store import SIGNATURE_FIELDS, ModelStore, ParameterBlock
from repro.core.predictor import CleoPredictor
from repro.execution.runtime_log import RunLog
from repro.features.featurizer import feature_names
from repro.features.table import FeatureTable
from repro.ml.base import Regressor


@dataclass(frozen=True)
class TrainingAudit:
    """What the trainer's data-quality gate saw and excised.

    One audit accumulates across the sanitization passes of a full
    :meth:`CleoTrainer.train` run (individual + combined slices); counts
    are raw per-rule tallies, so a row failing several rules appears in
    each of its rules but only once in ``rows_dropped``.
    """

    rows_seen: int = 0
    rows_kept: int = 0
    nonfinite_features: int = 0
    invalid_latency: int = 0
    duplicate_rows: int = 0

    @property
    def rows_dropped(self) -> int:
        return self.rows_seen - self.rows_kept

    def merge(self, other: "TrainingAudit") -> "TrainingAudit":
        return TrainingAudit(
            rows_seen=self.rows_seen + other.rows_seen,
            rows_kept=self.rows_kept + other.rows_kept,
            nonfinite_features=self.nonfinite_features + other.nonfinite_features,
            invalid_latency=self.invalid_latency + other.invalid_latency,
            duplicate_rows=self.duplicate_rows + other.duplicate_rows,
        )

    def describe(self) -> str:
        return (
            f"TrainingAudit({self.rows_kept}/{self.rows_seen} rows kept; "
            f"{self.nonfinite_features} non-finite features, "
            f"{self.invalid_latency} invalid latencies, "
            f"{self.duplicate_rows} duplicates)"
        )


class CleoTrainer:
    """Trains the model store and the combined meta-model from run logs.

    ``sanitize`` (default on) runs every training table through the
    data-quality gate (:meth:`~repro.features.table.FeatureTable.
    sanitize_mask`): rows with non-finite features, NaN / negative / absurd
    latencies, or double-appended adjacency duplicates are excised before
    fitting, with per-rule counts accumulated in :attr:`last_audit`.  Clean
    tables short-circuit to the original object, so sanitized training is
    bitwise-identical to unsanitized training on healthy data.  A table
    that sanitizes to *zero* rows raises :class:`~repro.common.errors.
    DataQualityError` — the typed signal that an ingestion day is rotten,
    never a silent fit to garbage.  :meth:`train_reference` stays
    unsanitized: it is the pinned pre-gate baseline.
    """

    def __init__(self, config: CleoConfig | None = None, sanitize: bool = True) -> None:
        self.config = config or CleoConfig()
        self.sanitize = sanitize
        #: Merged audit of every sanitization pass since ``reset_audit``
        #: (``train`` / ``train_reference`` reset it on entry).
        self.last_audit: TrainingAudit | None = None

    # ------------------------------------------------------------------ #
    # Data-quality gate
    # ------------------------------------------------------------------ #

    def reset_audit(self) -> None:
        self.last_audit = None

    def _record_audit(self, audit: TrainingAudit) -> None:
        self.last_audit = (
            audit if self.last_audit is None else self.last_audit.merge(audit)
        )

    def _sanitized(self, table: FeatureTable) -> FeatureTable:
        """The gated view of a training table (the table itself when clean)."""
        if not self.sanitize or len(table) == 0 or not len(table.latency):
            return table
        keep, counts = table.sanitize_mask()
        kept = int(keep.sum())
        self._record_audit(
            TrainingAudit(
                rows_seen=len(table),
                rows_kept=kept,
                nonfinite_features=counts["nonfinite_features"],
                invalid_latency=counts["invalid_latency"],
                duplicate_rows=counts["duplicate_rows"],
            )
        )
        if kept == len(table):
            return table
        if kept == 0:
            raise DataQualityError(
                f"all {len(table)} training rows failed sanitization "
                f"({counts['nonfinite_features']} non-finite features, "
                f"{counts['invalid_latency']} invalid latencies, "
                f"{counts['duplicate_rows']} duplicates)"
            )
        return table.take(np.flatnonzero(keep))

    # ------------------------------------------------------------------ #
    # Individual models
    # ------------------------------------------------------------------ #

    def train_individual(self, log: RunLog) -> ModelStore:
        """One elastic net per (model kind, template signature).

        Only templates with at least ``config.min_samples`` occurrences get a
        model (the paper requires 5 occurrences per subgraph).  Groups are
        formed with array ops over the log's feature table and each kind's
        models are fitted in one batched optimization pass — bitwise
        identical to the per-record reference.
        """
        table = self._sanitized(log.to_table())
        if len(table) == 0:
            return ModelStore()
        full_matrix = table.feature_matrix(include_context=True)
        latencies = table.latency

        kinds = {}
        for kind in ModelKind:
            uniques, order, starts, counts = table.group_by_signature(
                SIGNATURE_FIELDS[kind]
            )
            keep = counts >= self.config.min_samples
            if not keep.any():
                continue
            # Compact the kept groups into one contiguous stack (original
            # record order preserved within each group by the stable sort).
            kept_rows = order[np.repeat(keep, counts)]
            kept_counts = counts[keep]
            kept_starts = np.concatenate(([0], np.cumsum(kept_counts)[:-1]))
            width = len(feature_names(kind.uses_context_features))
            kinds[kind] = fit_columns(
                uniques[keep],
                full_matrix[kept_rows, :width],
                latencies[kept_rows],
                kept_starts,
                kept_counts,
                kind.uses_context_features,
                self.config,
            )
        return ModelStore(ParameterBlock.build(kinds))

    # ------------------------------------------------------------------ #
    # Combined model
    # ------------------------------------------------------------------ #

    def train_combined(
        self,
        store: ModelStore,
        log: RunLog,
        regressor: Regressor | None = None,
    ) -> CombinedModel:
        """Fit the meta-ensemble on the individual models' predictions.

        Meta rows are built in bulk through the serving layer's grouped
        vectorized prediction (:func:`~repro.core.combined.build_meta_matrix`)
        instead of one scalar meta row per record.
        """
        table = self._sanitized(log.to_table())
        if len(table) == 0:
            raise ValueError("no operator records to train the combined model on")
        combined = CombinedModel(store, config=self.config, regressor=regressor)
        matrix = build_meta_matrix(store, table)
        target_arr = np.asarray(table.latency)
        if len(matrix) > self.config.max_meta_samples:
            # repro: allow(wallclock-rng) -- raw config seed is intentional: the batched and scalar-reference trainers must draw the *identical* meta subsample, which sharing the explicit int seed guarantees (derive_rng would salt the two call sites apart)
            rng = np.random.default_rng(self.config.seed)
            take = rng.choice(
                len(matrix), size=self.config.max_meta_samples, replace=False
            )
            matrix, target_arr = matrix[take], target_arr[take]
        combined.fit_rows(matrix, target_arr)
        return combined

    # ------------------------------------------------------------------ #
    # End-to-end
    # ------------------------------------------------------------------ #

    def _day_split(
        self,
        log: RunLog,
        individual_days: list[int] | None,
        combined_days: list[int] | None,
    ) -> tuple[list[int], list[int]]:
        """Default day split: "all but last / last".

        The paper's cadence: two days of training data for the individual
        models, the following day for the combined model.
        """
        days = log.days
        if individual_days is None or combined_days is None:
            if len(days) >= 2:
                individual_days = individual_days or days[:-1]
                combined_days = combined_days or [days[-1]]
            else:
                individual_days = individual_days or days
                combined_days = combined_days or days
        return individual_days, combined_days

    def train(
        self,
        log: RunLog,
        individual_days: list[int] | None = None,
        combined_days: list[int] | None = None,
    ) -> CleoPredictor:
        """Full pipeline over the columnar path."""
        self.reset_audit()
        individual_days, combined_days = self._day_split(
            log, individual_days, combined_days
        )
        store = self.train_individual(log.filter(days=individual_days))
        combined = self.train_combined(store, log.filter(days=combined_days))
        return CleoPredictor(store=store, combined=combined)

    def train_reference(
        self,
        log: RunLog,
        individual_days: list[int] | None = None,
        combined_days: list[int] | None = None,
    ) -> CleoPredictor:
        """:meth:`train` over the per-record scalar reference (the parity
        oracle): :func:`repro.reference.train_reference` on this trainer's
        day split and config.  A method because the closed-loop benchmark's
        retrain check calls it on a trainer."""
        from repro.reference import train_reference

        self.reset_audit()
        days = self._day_split(log, individual_days, combined_days)
        return train_reference(log, *days, self.config)
