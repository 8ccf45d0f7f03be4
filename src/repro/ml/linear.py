"""Linear models: elastic net (coordinate descent), ridge, and robust fits.

Elastic net is the workhorse of the paper's individual cost models
(Section 3.4): an L1+L2-regularized linear regression that performs automatic
feature selection per subgraph template, resists over-fitting on the many
templates with <30 training samples, and stays interpretable (weighted sums
of statistics, like hand-written cost models).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fit_inputs, check_predict_input
from repro.ml.preprocessing import StandardScaler


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


class ElasticNet:
    """L1+L2 regularized linear regression fitted by coordinate descent.

    Follows the sklearn objective::

        1/(2n) ||y - Xw - b||^2 + alpha * l1_ratio * ||w||_1
            + 0.5 * alpha * (1 - l1_ratio) * ||w||^2

    Features are standardized internally; ``coefficients_raw`` maps weights
    back to the raw feature space (needed by the resource-exploration
    analytics, Section 5.3).
    """

    def __init__(
        self,
        alpha: float = 1.0,
        l1_ratio: float = 0.5,
        fit_intercept: bool = True,
        max_iter: int = 300,
        tol: float = 1e-6,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self._scaler = StandardScaler()

    def reset(self) -> None:
        self.coef_ = None
        self.intercept_ = 0.0
        self.n_iter_ = 0
        self._scaler.reset()

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ElasticNet":
        features, targets = check_fit_inputs(features, targets)
        x = self._scaler.fit_transform(features)
        n_samples, n_features = x.shape

        y_mean = float(targets.mean()) if self.fit_intercept else 0.0
        y = targets - y_mean

        weights = np.zeros(n_features)
        residual = y.copy()
        l1_penalty = self.alpha * self.l1_ratio
        l2_penalty = self.alpha * (1.0 - self.l1_ratio)
        col_sq = (x * x).sum(axis=0) / n_samples + l2_penalty

        for iteration in range(self.max_iter):
            max_delta = 0.0
            for j in range(n_features):
                if col_sq[j] < 1e-15:
                    continue
                old = weights[j]
                if old != 0.0:
                    residual += x[:, j] * old
                rho = float(x[:, j] @ residual) / n_samples
                new = _soft_threshold(rho, l1_penalty) / col_sq[j]
                if new != 0.0:
                    residual -= x[:, j] * new
                weights[j] = new
                max_delta = max(max_delta, abs(new - old))
            self.n_iter_ = iteration + 1
            if max_delta < self.tol:
                break

        self.coef_ = weights
        self.intercept_ = y_mean
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.coef_ is not None)
        x = self._scaler.transform(features)
        assert self.coef_ is not None
        return x @ self.coef_ + self.intercept_

    def coefficients_raw(self) -> tuple[np.ndarray, float]:
        """(weights, intercept) expressed over raw (unstandardized) features.

        ``predict(X) == X @ weights + intercept`` for any raw X.
        """
        if self.coef_ is None:
            raise RuntimeError("coefficients_raw() before fit()")
        scale = self._scaler.scale_
        mean = self._scaler.mean_
        assert scale is not None and mean is not None
        raw = self.coef_ / scale
        intercept = self.intercept_ - float((self.coef_ * mean / scale).sum())
        return raw, intercept


class LinearRegressor:
    """Ridge regression via the normal equations (used as a building block)."""

    def __init__(self, ridge: float = 1e-6, fit_intercept: bool = True) -> None:
        self.ridge = ridge
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._scaler = StandardScaler()

    def reset(self) -> None:
        self.coef_ = None
        self.intercept_ = 0.0
        self._scaler.reset()

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "LinearRegressor":
        features, targets = check_fit_inputs(features, targets)
        x = self._scaler.fit_transform(features)
        if self.fit_intercept:
            x = np.hstack([x, np.ones((x.shape[0], 1))])
        if sample_weight is not None:
            sw = np.sqrt(np.asarray(sample_weight, dtype=float))
            x = x * sw[:, None]
            targets = targets * sw
        gram = x.T @ x + self.ridge * np.eye(x.shape[1])
        coef = np.linalg.solve(gram, x.T @ targets)
        if self.fit_intercept:
            self.coef_, self.intercept_ = coef[:-1], float(coef[-1])
        else:
            self.coef_, self.intercept_ = coef, 0.0
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.coef_ is not None)
        x = self._scaler.transform(features)
        assert self.coef_ is not None
        return x @ self.coef_ + self.intercept_


class LeastAbsoluteRegressor:
    """Linear fit minimizing mean absolute error, via IRLS.

    Reweighted ridge solves with weights ``1 / max(|residual|, delta)`` — the
    classic iteratively-reweighted scheme for the L1 loss.
    """

    def __init__(self, iterations: int = 30, delta: float = 1e-6, ridge: float = 1e-6) -> None:
        self.iterations = iterations
        self.delta = delta
        self.ridge = ridge
        self._inner = LinearRegressor(ridge=ridge)

    def reset(self) -> None:
        self._inner.reset()

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LeastAbsoluteRegressor":
        features, targets = check_fit_inputs(features, targets)
        self._inner.fit(features, targets)
        for _ in range(self.iterations):
            residual = np.abs(targets - self._inner.predict(features))
            weights = 1.0 / np.maximum(residual, self.delta)
            weights /= weights.mean()
            self._inner.fit(features, targets, sample_weight=weights)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self._inner.predict(features)


class MedianAbsoluteRegressor:
    """Approximate minimizer of *median* absolute error (least trimmed fit).

    Repeatedly refits on the half of the samples with the smallest current
    residuals.  This is the honest reproduction of the paper's "median
    absolute error" loss row in Table 1 — an estimator that concentrates on
    the central samples and generalizes poorly under multiplicative noise.
    """

    def __init__(self, iterations: int = 10, keep_fraction: float = 0.55) -> None:
        if not 0.1 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0.1, 1]")
        self.iterations = iterations
        self.keep_fraction = keep_fraction
        self._inner = LinearRegressor()

    def reset(self) -> None:
        self._inner.reset()

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "MedianAbsoluteRegressor":
        features, targets = check_fit_inputs(features, targets)
        self._inner.fit(features, targets)
        keep = max(3, int(len(targets) * self.keep_fraction))
        for _ in range(self.iterations):
            residual = np.abs(targets - self._inner.predict(features))
            order = np.argsort(residual)[:keep]
            if len(order) < 2:
                break
            self._inner.fit(features[order], targets[order])
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self._inner.predict(features)
