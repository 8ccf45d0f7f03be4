"""Cleo core: the paper's contribution — robust learned cost models.

The package implements the full Section 3-5 pipeline:

* :class:`~repro.core.learned_model.LearnedCostModel` — one elastic-net cost
  model per template (log-space for accuracy, raw-space twin for the
  analytical resource profile), the per-model reference;
* :class:`~repro.core.model_store.ModelStore` — the signature-keyed hash map
  the optimizer loads at startup, every model one row of one parameter
  block;
* :class:`~repro.core.combined.CombinedModel` — the FastTree meta-ensemble
  that corrects and combines the individual predictions;
* :class:`~repro.core.trainer.CleoTrainer` — the periodic training pipeline
  over run logs (the feedback loop);
* :class:`~repro.core.predictor.CleoPredictor` — the model bank behind the
  specificity-ordered fallback chain (the serving tier prices with it);
* :class:`~repro.core.cost_model.CleoCostModel` — the optimizer-facing cost
  model (implements the same protocol as the default model).

Consumers should reach these through :class:`~repro.serving.service.
CleoService`, the serving façade that owns batching, caching, persistence,
and versioned deployment.
"""

from repro.core.combined import CombinedModel
from repro.core.config import CleoConfig, ModelKind
from repro.core.cost_model import CleoCostModel
from repro.core.learned_model import LearnedCostModel, ResourceProfile
from repro.core.lifecycle import (
    DayOutcome,
    LifecycleManager,
    ModelRegistry,
    ModelVersion,
    RetrainPolicy,
)
from repro.core.model_store import ModelStore
from repro.core.predictor import CleoPredictor
from repro.core.regression_control import DualPlanner, ModelQuarantine
from repro.core.robustness import ModelQuality, evaluate_predictor_on_log, evaluate_store_on_log
from repro.core.trainer import CleoTrainer

__all__ = [
    "CleoConfig",
    "CleoCostModel",
    "CleoPredictor",
    "CleoTrainer",
    "CombinedModel",
    "DayOutcome",
    "DualPlanner",
    "LearnedCostModel",
    "LifecycleManager",
    "ModelKind",
    "ModelQuality",
    "ModelQuarantine",
    "ModelRegistry",
    "ModelStore",
    "ModelVersion",
    "ResourceProfile",
    "RetrainPolicy",
    "evaluate_predictor_on_log",
    "evaluate_store_on_log",
]
