"""One learned cost model: an elastic net over the derived features.

Each template (subgraph / approx / input / operator) gets an instance.  The
underlying model is the paper's configuration exactly: a linear model over
the derived features (Tables 2-3) trained with mean-squared log error
(Section 3.2) and L1+L2 regularization (Section 3.4).  Because the model is
linear in *raw* feature space, the resource-exploration coefficients
``(theta_p, theta_c, theta_0)`` of Section 5.3 are direct reads of the
fitted weights — the same model serves both cost prediction and analytical
partition optimization, as in the paper.

A trained store keeps no :class:`LearnedCostModel`: :func:`fit_columns`
fits a kind's models straight to :class:`ParameterColumns`, the rows of the
store's parameter block.  The class is the per-model reference (``fit``,
``predict_one``, ``resource_profile``) the packed runtime is held to, and
the on-demand view :meth:`~repro.core.model_store.ModelStore.get` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CleoConfig
from repro.features.featurizer import (
    INVERSE_P_FEATURES,
    FeatureInput,
    feature_matrix,
    feature_names,
    feature_vector,
)
from repro.ml.proximal import ElasticNetMSLE, fit_elastic_nets

_MAX_PREDICT_SECONDS = 1e7  # clamp: a single operator below ~116 days

#: include_context -> indices of the partition-dependent features (the
#: ``1/P`` family and ``P``) in that layout.
_PARTITION_FEATURE_INDICES = {
    include_context: tuple(
        j
        for j, name in enumerate(feature_names(include_context))
        if name in INVERSE_P_FEATURES or name == "P"
    )
    for include_context in (False, True)
}


@dataclass(frozen=True)
class ResourceProfile:
    """Operator cost as a function of its stage's partition count.

    ``cost(P) = theta_p / P + theta_c * P + theta_0``.
    """

    theta_p: float
    theta_c: float
    theta_0: float

    def cost_at(self, partitions: float) -> float:
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        return self.theta_p / partitions + self.theta_c * partitions + self.theta_0

    def optimal_partitions(self, max_partitions: int) -> int:
        """Minimize over [1, max_partitions], the paper's three sign cases.

        (i) theta_p > 0, theta_c < 0: more partitions always help -> max.
        (ii) theta_p < 0, theta_c > 0: partitions only hurt -> min.
        (iii) same sign: interior stationary point sqrt(theta_p/theta_c);
        for the negative-negative case that point is a cost *maximum*, so
        the better boundary wins.  All candidates are evaluated and the
        cheapest taken, which subsumes the case analysis safely.
        """
        candidates = {1, max_partitions}
        if self.theta_c != 0 and self.theta_p / self.theta_c > 0:
            ratio = self.theta_p / self.theta_c
            if np.isfinite(ratio):
                stationary = int(round(float(np.sqrt(ratio))))
            else:  # degenerate near-zero theta_c: stationary point beyond range
                stationary = max_partitions
            candidates.add(min(max(stationary, 1), max_partitions))
        return min(sorted(candidates), key=self.cost_at)


class LearnedCostModel:
    """Elastic-net (MSLE) cost model for a single template."""

    def __init__(self, include_context: bool, config: CleoConfig | None = None) -> None:
        self.include_context = include_context
        self.config = config or CleoConfig()
        # Partition-dependent features are physically monotone cost
        # contributors (parallel work shrinks with P, scheduling overhead
        # grows with P); constraining their weights non-negative keeps the
        # model sane when partition exploration extrapolates far outside the
        # logged range of P.
        if self.config.constrain_partition_weights:
            nonneg = _PARTITION_FEATURE_INDICES[bool(include_context)]
        else:
            nonneg = ()
        self._net = ElasticNetMSLE(
            alpha=self.config.elastic_alpha,
            l1_ratio=self.config.elastic_l1_ratio,
            max_iter=self.config.elastic_max_iter,
            tol=self.config.elastic_tol,
            nonneg_indices=nonneg,
        )
        self.n_samples = 0
        self._fitted = False

    @classmethod
    def view(cls, columns: ParameterColumns, row: int, include_context: bool) -> LearnedCostModel:
        """Model ``row`` of ``columns`` as a fitted model whose arrays are
        row views of the columns (nothing is copied)."""
        model = cls(include_context)
        net = model._net
        net._scaler.mean_, net._scaler.scale_ = columns.mean[row], columns.scale[row]
        net.coef_, net.nonneg_indices = columns.coef[row], columns.nonneg_indices
        net.intercept_, net._y_scale = float(columns.intercept[row]), float(columns.y_scale[row])
        model.n_samples, model._fitted = int(columns.n_samples[row]), True
        return model

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def fit(self, inputs: list[FeatureInput], latencies: np.ndarray) -> "LearnedCostModel":
        latencies = np.asarray(latencies, dtype=float).ravel()
        if len(inputs) != len(latencies):
            raise ValueError("inputs and latencies must align")
        matrix = feature_matrix(inputs, include_context=self.include_context)
        return self.fit_matrix(matrix, latencies)

    def fit_matrix(self, matrix: np.ndarray, latencies: np.ndarray) -> "LearnedCostModel":
        """Fit directly on a pre-built feature matrix (column slice).

        The columnar trainer expands the full feature table once and hands
        each model its rows — same values as per-record featurization.
        """
        latencies = np.asarray(latencies, dtype=float).ravel()
        if matrix.shape[0] != len(latencies):
            raise ValueError("matrix rows and latencies must align")
        self._check_width(matrix)
        self._net.fit(matrix, np.clip(latencies, 0.0, None))
        self.n_samples = matrix.shape[0]
        self._fitted = True
        return self

    def _check_width(self, matrix: np.ndarray) -> None:
        expected = len(feature_names(self.include_context))
        if matrix.ndim != 2 or matrix.shape[1] != expected:
            raise ValueError(
                f"expected a (n, {expected}) feature matrix, got {matrix.shape}"
            )

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict_one(self, features: FeatureInput) -> float:
        vec = feature_vector(features, include_context=self.include_context)
        raw = float(self._net.predict(vec.reshape(1, -1))[0])
        return float(min(raw, _MAX_PREDICT_SECONDS))

    def predict_many(self, inputs: list[FeatureInput]) -> np.ndarray:
        matrix = feature_matrix(inputs, include_context=self.include_context)
        return self.predict_matrix(matrix)

    def predict_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Predict directly from pre-built feature rows (bitwise identical
        to :meth:`predict_many` — the regressor is batch-size-invariant)."""
        self._check_width(matrix)
        return np.minimum(self._net.predict(matrix), _MAX_PREDICT_SECONDS)

    # ------------------------------------------------------------------ #
    # Resource profile (Section 5.3)
    # ------------------------------------------------------------------ #

    def resource_profile(self, features: FeatureInput) -> ResourceProfile:
        """Extract (theta_p, theta_c, theta_0) from the fitted weights.

        Only partition-dependent features move with P; evaluating every
        feature at P=1 turns each 1/P-family feature into its numerator, so
        the thetas are exact linear-algebra reads of the fit.
        """
        weights, intercept = self._net.coefficients_raw()
        names = feature_names(self.include_context)
        at_one = feature_vector(
            features.with_partition_count(1.0), include_context=self.include_context
        )
        theta_p = 0.0
        theta_c = 0.0
        theta_0 = intercept
        for j, name in enumerate(names):
            if name in INVERSE_P_FEATURES:
                theta_p += weights[j] * at_one[j]
            elif name == "P":
                theta_c += weights[j]
            else:
                theta_0 += weights[j] * at_one[j]
        return ResourceProfile(theta_p=theta_p, theta_c=theta_c, theta_0=theta_0)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def feature_weights(self) -> dict[str, float]:
        """Standardized weights per feature name (Figures 5-6, 16)."""
        if not self._fitted:
            raise RuntimeError("feature_weights before fit()")
        assert self._net.coef_ is not None
        names = feature_names(self.include_context)
        return {name: float(w) for name, w in zip(names, self._net.coef_)}


@dataclass(frozen=True)
class ParameterColumns:
    """One model kind's fitted models as columns: row ``g`` is model ``g``'s.

    What the trainer fits and a model file holds for one kind, in the
    order the kind's models are kept; the model store
    (:class:`~repro.core.model_store.ParameterBlock`) widens every kind's
    columns into its one block.
    """

    signatures: np.ndarray  # (count,) uint64
    nonneg_indices: tuple[int, ...]  # the kind's non-negative features
    mean: np.ndarray  # (count, width) scaler mean
    scale: np.ndarray  # (count, width) scaler scale
    coef: np.ndarray  # (count, width) standardized coefficients
    intercept: np.ndarray  # (count,)
    y_scale: np.ndarray  # (count,) target scale
    n_samples: np.ndarray  # (count,) int64 training rows

    @classmethod
    def empty(cls, width: int) -> ParameterColumns:
        """No model, ``width`` features wide."""
        planes, scalars = np.empty((0, width)), np.empty(0)
        signatures, n_samples = np.empty(0, np.uint64), np.empty(0, np.int64)
        return cls(signatures, (), planes, planes, planes, scalars, scalars, n_samples)


def fit_columns(
    signatures: np.ndarray,
    matrix: np.ndarray,
    latencies: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    include_context: bool,
    config: CleoConfig,
) -> ParameterColumns:
    """Fit one kind's per-signature models in a single Adam loop, as columns.

    Model ``g``, keyed by ``signatures[g]``, owns ``matrix`` rows
    ``starts[g] : starts[g] + lengths[g]``; its row of the result is bitwise
    what :meth:`LearnedCostModel.fit_matrix` on that slice leaves on a model
    (:func:`repro.ml.proximal.fit_elastic_nets`).  One unfitted model holds
    the kind's hyperparameters; none is built per signature.
    """
    template = LearnedCostModel(include_context, config)
    template._check_width(matrix)
    net = template._net
    latencies = np.clip(np.asarray(latencies, dtype=float).ravel(), 0.0, None)
    mean, scale, coef, intercept, y_scale, _ = fit_elastic_nets(
        net, matrix, latencies, starts, lengths
    )
    n_samples = np.asarray(lengths, dtype=np.int64)
    signatures = np.asarray(signatures, dtype=np.uint64)
    return ParameterColumns(
        signatures, net.nonneg_indices, mean, scale, coef, intercept, y_scale, n_samples
    )
