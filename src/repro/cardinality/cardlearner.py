"""CardLearner: the learned-cardinality baseline (Section 6.4).

Wu et al. (PVLDB 2018) learn a Poisson regression model per recurring
subgraph template that predicts the template's output cardinality.  We
reproduce that: one Poisson GLM (log link) per operator template tag, fitted
by iteratively reweighted least squares on logged (features, actual rows)
pairs.  Predictions replace the default estimates for covered templates; the
*cost* model remains the default one — which is exactly the configuration the
paper compares against to show that fixing cardinalities alone does not fix
cost estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.plan.logical import LogicalOpType
from repro.plan.physical import PhysicalOp


def _features(input_card: float, base_card: float) -> np.ndarray:
    """Feature map for the Poisson GLM: intercept + log-scale sizes."""
    return np.array([1.0, np.log1p(input_card), np.log1p(base_card)])


@dataclass
class _TemplateSamples:
    rows: list[np.ndarray]
    targets: list[float]


class _PoissonModel:
    """Poisson regression with log link, fitted by IRLS with L2 damping."""

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights

    @classmethod
    def fit(
        cls, features: np.ndarray, targets: np.ndarray, iterations: int = 25, ridge: float = 1e-3
    ) -> "_PoissonModel":
        n_features = features.shape[1]
        # Work against log-scaled targets for a stable start.
        weights = np.zeros(n_features)
        weights[0] = float(np.log1p(targets).mean())
        eye = np.eye(n_features) * ridge
        for _ in range(iterations):
            eta = np.clip(features @ weights, -30.0, 30.0)
            mu = np.exp(eta)
            # IRLS update: (X' W X + ridge) dw = X' (y - mu)
            gradient = features.T @ (targets - mu)
            hessian = (features * mu[:, None]).T @ features + eye
            try:
                step = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                break
            weights = weights + np.clip(step, -5.0, 5.0)
            if float(np.abs(step).max()) < 1e-8:
                break
        return cls(weights)

    def predict(self, features: np.ndarray) -> float:
        eta = float(np.clip(features @ self.weights, -30.0, 30.0))
        return float(np.exp(eta))


class CardLearner:
    """Per-template learned cardinality models layered over a base estimator.

    Train with :meth:`observe` + :meth:`fit`, then use as a drop-in
    cardinality estimator: covered templates get learned predictions, the
    rest fall back to the wrapped default estimator.
    """

    #: Minimum observations of a template before a model is trained for it.
    min_samples: int = 5

    def __init__(self, base: CardinalityEstimator | None = None) -> None:
        self.base = base or CardinalityEstimator()
        self._samples: dict[str, _TemplateSamples] = {}
        self._models: dict[str, _PoissonModel] = {}
        #: Marks the node entries of the current models; renewed by :meth:`fit`.
        self._tag = object()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def observe(self, op: PhysicalOp) -> None:
        """Log one executed operator instance (features + actual rows)."""
        if op.logical is None or op.logical.op_type is LogicalOpType.GET:
            return
        tag = op.template_tag
        bucket = self._samples.setdefault(tag, _TemplateSamples(rows=[], targets=[]))
        bucket.rows.append(_features(op.input_card, op.base_card))
        bucket.targets.append(op.true_card)

    def observe_plan(self, root: PhysicalOp) -> None:
        for node in root.walk():
            self.observe(node)

    def fit(self) -> int:
        """Train one Poisson model per sufficiently observed template.

        Returns the number of trained models.
        """
        self._models.clear()
        self._tag = object()
        for tag, bucket in self._samples.items():
            if len(bucket.targets) < self.min_samples:
                continue
            features = np.vstack(bucket.rows)
            targets = np.asarray(bucket.targets, dtype=float)
            self._models[tag] = _PoissonModel.fit(features, targets)
        return len(self._models)

    # ------------------------------------------------------------------ #
    # Estimation (drop-in CardinalityEstimator interface)
    # ------------------------------------------------------------------ #

    def estimate(self, op: PhysicalOp) -> float:
        if op.logical is None:
            return self.estimate(op.children[0])
        model = self._models.get(op.template_tag)
        if model is None:
            return self.base.estimate(op)
        cached = op._estimate
        if cached is None or cached[0] is not self._tag:
            input_estimate = sum(self.estimate(child) for child in op.children) or op.true_card
            value = max(0.0, model.predict(_features(input_estimate, op.base_card)))
            cached = (self._tag, value)
            object.__setattr__(op, "_estimate", cached)
        return cached[1]

    estimate_input = CardinalityEstimator.estimate_input  # it only calls self.estimate
