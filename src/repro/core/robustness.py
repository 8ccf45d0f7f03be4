"""Robustness evaluation: accuracy, coverage, and retention metrics.

The paper defines a robust cost model by three properties (Section 1): high
accuracy, high coverage, and high retention (stable accuracy long after
training).  These helpers compute the per-model metrics behind Tables 5/7/8
and the retention curves of Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bound as a module, not by name: ``serving.service`` imports ``repro.core``,
# whose package init imports this file, so names resolve at call time.
import repro.serving.service as serving
from repro.common.stats import median_error_pct, pearson, percentile_error_pct
from repro.core.combined import covered_tiers
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.model_store import ModelStore
from repro.core.predictor import CleoPredictor
from repro.execution.runtime_log import RunLog
from repro.features.table import FeatureTable


@dataclass(frozen=True)
class ModelQuality:
    """The paper's metric bundle for one model on one test set."""

    name: str
    n_total: int
    n_covered: int
    pearson: float
    median_error_pct: float
    p95_error_pct: float

    @property
    def coverage_pct(self) -> float:
        if self.n_total == 0:
            return float("nan")
        return 100.0 * self.n_covered / self.n_total

    def row(self) -> dict[str, float | str | int]:
        return {
            "model": self.name,
            "correlation": round(self.pearson, 3),
            "median_error_pct": round(self.median_error_pct, 1),
            "p95_error_pct": round(self.p95_error_pct, 1),
            "coverage_pct": round(self.coverage_pct, 1),
            "n": self.n_total,
        }


def _quality(
    name: str, predicted: list[float], actual: list[float], n_total: int
) -> ModelQuality:
    pred = np.asarray(predicted)
    act = np.asarray(actual)
    return ModelQuality(
        name=name,
        n_total=n_total,
        n_covered=len(pred),
        pearson=pearson(pred, act) if len(pred) > 1 else float("nan"),
        median_error_pct=median_error_pct(pred, act),
        p95_error_pct=percentile_error_pct(pred, act, 95.0),
    )


def store_predictions_by_kind(
    store: ModelStore, log: RunLog, kinds: tuple[ModelKind, ...] = tuple(ModelKind)
) -> dict[ModelKind, tuple[np.ndarray, np.ndarray]]:
    """Per-kind ``(covered mask, predictions)`` aligned with record order.

    One :func:`~repro.core.combined.covered_tiers` pass over the log's
    feature table resolves and prices every kind at once; each kind's entry
    is its column.  ``predictions[i]`` is only meaningful where ``mask[i]``
    is True.
    """
    masks, predictions, _ = covered_tiers(store, log.to_table())
    columns = {kind: k for k, kind in enumerate(SPECIFICITY_ORDER)}
    return {kind: (masks[:, columns[kind]], predictions[:, columns[kind]]) for kind in kinds}


def evaluate_store_on_log(
    store: ModelStore, log: RunLog, kinds: tuple[ModelKind, ...] = tuple(ModelKind)
) -> dict[ModelKind, ModelQuality]:
    """Per-kind accuracy over *covered* records plus coverage fraction."""
    table = log.to_table()
    by_kind = store_predictions_by_kind(store, log, kinds)
    out: dict[ModelKind, ModelQuality] = {}
    for kind in kinds:
        mask, predictions = by_kind[kind]
        out[kind] = _quality(
            kind.value,
            predictions[mask],
            table.latency[mask],
            len(table),
        )
    return out


def score_table(predictor: CleoPredictor, table: FeatureTable) -> np.ndarray:
    """The combined model's price of every row of ``table``, as scored.

    The one evaluation policy: the serving tier's table core with the cache
    and the boundary checks off, so an evaluation scores the models as they
    are, garbage included, and never quarantines one.
    """
    service = serving.CleoService(
        predictor,
        prediction_cache_size=0,
        validate_inputs=False,
        validate_outputs=False,
    )
    return service.predict_table(table)


def evaluate_predictor_on_log(
    predictor: CleoPredictor, log: RunLog, name: str = "combined"
) -> ModelQuality:
    """Combined-model accuracy over every record (always 100% coverage),
    priced by :func:`score_table`."""
    table = log.to_table()
    return _quality(name, score_table(predictor, table), table.latency, len(table))
