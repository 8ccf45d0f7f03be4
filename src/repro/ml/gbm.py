"""FastTree regression: gradient-boosted regression trees (MART).

The paper's combined model uses Microsoft.ML's FastTree — "a variant of the
gradient boosted regression trees that uses an efficient implementation of
the MART gradient boosting algorithm.  It builds a series of regression
trees, with each successive tree fitting on the residual of trees that
precede it" (Section 4.3) — configured with at most 20 trees, mean-squared
log error, and a 0.9 sub-sampling rate.

We reproduce that: least-squares MART on log-transformed targets (equivalent
to the MSLE objective), stochastic row subsampling per tree, and shrinkage.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fit_inputs, check_predict_input
from repro.ml.tree import _NO_FEATURE, DecisionTreeRegressor, SortedColumns


#: Rows up to which the ``(1 + n_trees, n)`` stage stack of
#: :meth:`FastTreeRegressor.predict` stays cache-resident (measured crossover
#: between 4096 and 8192 rows at 20 trees).
_STACK_MAX_ROWS = 4096


class _FlatForest:
    """All trees' node arrays concatenated, traversed simultaneously.

    Child indices are rebased onto the concatenated layout and **leaves
    point at themselves**, so stepping needs no leaf mask: every (tree, row)
    pair advances every level, with finished pairs orbiting in place.  The
    walk runs over an ``(n_trees, n)`` node-index matrix for
    ``max(actual tree depth) - 1`` levels — exactly the steps after which
    every per-tree walk has reached its leaf.  Routing decisions and leaf
    values are the exact scalars the per-tree walk computes, so prediction
    through the flat layout is bitwise identical to looping over the trees —
    only the Python/numpy dispatch count changes (one pass per *depth
    level* instead of per tree per level).
    """

    __slots__ = ("children", "safe_feature", "threshold", "value", "roots", "steps")

    def __init__(self, trees: list[DecisionTreeRegressor]) -> None:
        safe_features, thresholds, values, children = [], [], [], []
        roots: list[int] = []
        offset = 0
        steps = 0
        for tree in trees:
            feature, threshold, left, right, value = tree.node_arrays()
            count = feature.size
            roots.append(offset)
            is_leaf = feature == _NO_FEATURE
            # Leaves compare feature 0 against threshold 0.0 and then step
            # to themselves either way, so no masking is needed.
            safe_features.append(np.maximum(feature, 0))
            thresholds.append(threshold)
            values.append(value)
            own = np.arange(offset, offset + count, dtype=np.int64)
            rebased_left = np.where(is_leaf, own, left + offset)
            rebased_right = np.where(is_leaf, own, right + offset)
            # Interleaved (right, left) pairs: child = pairs[2*node + go_left],
            # so the routing bool indexes the pair directly (no inversion).
            children.append(
                np.stack([rebased_right, rebased_left], axis=1).reshape(-1)
            )
            offset += count
            steps = max(steps, tree.tree_depth - 1)
        # All index arrays stay intp-sized: numpy silently converts narrower
        # index dtypes on every fancy index, which would dominate the walk.
        self.safe_feature = np.concatenate(safe_features).astype(np.int64)
        self.threshold = np.concatenate(thresholds)
        self.value = np.concatenate(values)
        self.children = np.concatenate(children).astype(np.int64)
        self.roots = np.asarray(roots, dtype=np.int64)
        self.steps = steps

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    def leaf_values(self, features: np.ndarray) -> np.ndarray:
        """Each row's leaf value in each tree, as an ``(n_trees, n)`` matrix."""
        n, width = features.shape
        flat = np.ascontiguousarray(features).ravel()
        column_base = np.arange(n, dtype=np.int64) * width
        nodes = np.repeat(self.roots[:, None], n, axis=1)  # (n_trees, n)
        for _ in range(self.steps):
            # Same per-node comparison as DecisionTreeRegressor.predict:
            # raw value strictly below the bin edge routes left.
            go_left = (
                flat[self.safe_feature[nodes] + column_base] < self.threshold[nodes]
            )
            nodes = self.children[2 * nodes + go_left]
        return self.value[nodes]


class FastTreeRegressor:
    """MART: stagewise least-squares boosting of shallow CART trees.

    Args:
        n_estimators: number of boosting stages (paper: 20).
        max_depth: depth of each tree (paper: 5).
        learning_rate: shrinkage applied to each stage.
        subsample: row sampling rate per stage (paper: 0.9).
        log_target: fit in log1p space so squared error becomes MSLE —
            the paper's loss; predictions are mapped back with expm1.
        seed: RNG seed for subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 5,
        learning_rate: float = 0.3,
        subsample: float = 0.9,
        min_samples_leaf: int = 2,
        log_target: bool = True,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.log_target = log_target
        self.seed = seed
        self.base_prediction_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []
        self._flat: _FlatForest | None = None

    def reset(self) -> None:
        self.trees_ = []
        self.base_prediction_ = 0.0
        self._flat = None

    def _transform(self, targets: np.ndarray) -> np.ndarray:
        if not self.log_target:
            return targets
        if (targets < 0).any():
            raise ValueError("log_target requires non-negative targets")
        return np.log1p(targets)

    def _inverse(self, predictions: np.ndarray) -> np.ndarray:
        if not self.log_target:
            return predictions
        return np.expm1(np.clip(predictions, None, 60.0))

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "FastTreeRegressor":
        features, targets = check_fit_inputs(features, targets)
        y = self._transform(targets)
        # repro: allow(wallclock-rng) -- self.seed is an explicit int hyperparameter; subsample draws must replay the historical stream so saved FastTree stages stay bitwise-reproducible
        rng = np.random.default_rng(self.seed)
        n_samples = features.shape[0]

        self.base_prediction_ = float(y.mean())
        current = np.full(n_samples, self.base_prediction_)
        self.trees_ = []
        # Every stage bins a sample of the same matrix: sort it once.
        columns = SortedColumns(features)
        for stage in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                take = max(2, int(round(n_samples * self.subsample)))
                idx = rng.choice(n_samples, size=take, replace=False)
            else:
                idx = np.arange(n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=self.seed * 7_919 + stage,
            )
            codes, edges = columns.bin(idx, tree.max_bins)
            # The grower hands back each sampled row's leaf value, so only
            # the rows left out of the sample are routed through the tree.
            update = np.empty(n_samples)
            update[idx] = tree._fit_binned(codes, edges, residual[idx])
            unsampled = np.ones(n_samples, dtype=bool)
            unsampled[idx] = False
            if unsampled.any():
                update[unsampled] = tree.predict(features[unsampled])
            current = current + self.learning_rate * update
            self.trees_.append(tree)
        self._flat = None  # ensemble changed: flat layout recompiles lazily
        return self

    def _flat_forest(self) -> _FlatForest:
        """The packed node layout, compiled lazily after each (re)fit."""
        if self._flat is None or self._flat.n_trees != len(self.trees_):
            self._flat = _FlatForest(self.trees_)
        return self._flat

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predictions via the flat ensemble: all trees walked at once.

        Bitwise identical to the tree-at-a-time walk
        (:func:`repro.reference.predict_reference`): the same leaf scalars,
        accumulated in stage order by one axis-0 reduction over the
        ``(1 + n_trees, n)`` stack of the base and the shrunken stages.  A
        single sample is stacked as two identical columns (with one, numpy
        would sum the contiguous axis pairwise), and tables too long for the
        stack to stay in cache take the explicit loop to the same bits.
        """
        features = check_predict_input(features, bool(self.trees_))
        leaves = self._flat_forest().leaf_values(features)
        n_trees, n = leaves.shape
        if n > _STACK_MAX_ROWS:
            out = np.full(n, self.base_prediction_)
            for stage in range(n_trees):
                out += self.learning_rate * leaves[stage]
            return self._inverse(out)
        stack = np.empty((n_trees + 1, max(n, 2)))
        stack[0] = self.base_prediction_
        np.multiply(leaves, self.learning_rate, out=stack[1:, :n])
        stack[1:, n:] = stack[1:, :1]
        return self._inverse(np.add.reduce(stack, axis=0)[:n])
