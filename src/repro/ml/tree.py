"""Decision tree regression (CART with histogram split finding).

Features are quantile-binned once per fit (:class:`SortedColumns`: one
argsort per matrix, every sample of its rows binned from the ranks); split
search per node is a vectorized bincount over the binned codes, giving
near-C performance in numpy.  Prediction routes all rows through the node
arrays iteratively, so it is vectorized as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import check_fit_inputs, check_predict_input

_NO_FEATURE = -1


@dataclass
class _Nodes:
    """Flat array representation of a fitted tree."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add(self) -> int:
        self.feature.append(_NO_FEATURE)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1


class SortedColumns:
    """A feature matrix sorted once, quantile-binned for any sample of its rows.

    Holds each column sorted (stable argsort, so ties — ``-0.0`` and ``0.0``
    included — stand in row order), the permutation, and every row's rank in
    every column.  :meth:`bin` then needs no further sort: a sample's sorted
    column is the sorted column filtered by membership, its cuts are order
    statistics of that, and a row's code is a lookup at its rank.
    """

    __slots__ = ("values", "order", "rank")

    def __init__(self, features: np.ndarray) -> None:
        n_samples, n_features = features.shape
        columns = np.ascontiguousarray(features.T)
        #: ``(n_features, n_samples)`` permutation sorting each column.
        self.order = np.argsort(columns, axis=1, kind="stable")
        #: ``(n_features, n_samples)`` sorted columns.
        self.values = np.take_along_axis(columns, self.order, axis=1)
        #: ``(n_samples, n_features)``: row ``i``'s position in sorted column
        #: ``j``, offset by ``j * n_samples`` (an index into ``values.ravel()``).
        self.rank = np.empty((n_samples, n_features), dtype=np.intp)
        at = np.arange(n_features * n_samples).reshape(n_features, n_samples)
        np.put_along_axis(self.rank.T, self.order, at, axis=1)

    def bin(self, rows: np.ndarray, max_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(codes, edges)`` of ``features[rows]``; ``rows`` must be distinct.

        ``edges[j]`` are the distinct ``k / max_bins`` quantiles of the
        sample's column ``j`` (linear interpolation between the two
        neighbouring order statistics, the arithmetic ``np.quantile`` does);
        ``codes[i, j]`` counts the edges ``<= features[rows[i], j]``.
        """
        n_features, n_samples = self.values.shape
        take = len(rows)
        member = np.zeros(n_samples, dtype=bool)
        member[rows] = True
        # Distinct rows: every column keeps exactly ``take`` values.
        sample = self.values[member[self.order]].reshape(n_features, take)

        # Order statistics at ``(take - 1) * q``, interpolated with the
        # two-sided lerp ``np.quantile`` uses, so the cuts are its bits.
        virtual = (take - 1) * np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        below = np.floor(virtual).astype(np.intp)
        g = virtual - below
        lo, hi = sample[:, below], sample[:, np.minimum(below + 1, take - 1)]
        cuts = np.where(g >= 0.5, hi - (hi - lo) * (1 - g), lo + (hi - lo) * g)

        # Cuts ascend along a column, so equal ones are neighbours.
        fresh = np.ones(cuts.shape, dtype=bool)
        fresh[:, 1:] = cuts[:, 1:] != cuts[:, :-1]
        edges = np.split(cuts[fresh], np.cumsum(fresh.sum(axis=1))[:-1])

        # A value is >= a cut exactly when its rank is >= the number of
        # values below the cut, so the code at rank r is the count of cuts
        # placed at or before r.
        placed = np.concatenate(
            [
                np.searchsorted(self.values[j], edges[j]) + j * n_samples
                for j in range(n_features)
            ]
        )
        steps = np.bincount(placed, minlength=n_features * n_samples)
        code_at_rank = np.cumsum(steps.reshape(n_features, n_samples), axis=1)
        return code_at_rank.ravel()[self.rank[rows]], edges


class DecisionTreeRegressor:
    """CART regressor minimizing within-node variance.

    Args:
        max_depth: maximum tree depth (paper: 15 standalone, 5 in ensembles).
        min_samples_leaf: minimum samples on each side of a split.
        min_samples_split: minimum samples in a node to consider splitting.
        max_bins: histogram resolution for split finding.
        max_features: number of features considered per split (None = all);
            used by the random forest.
        seed: RNG seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 15,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_bins: int = 64,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.min_samples_split = max(2, min_samples_split)
        self.max_bins = max_bins
        self.max_features = max_features
        self.seed = seed
        self._arrays: tuple[np.ndarray, ...] | None = None
        self.n_features_: int = 0

    def reset(self) -> None:
        self._arrays = None
        self.n_features_ = 0

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        features, targets = check_fit_inputs(features, targets)
        codes, edges = self._bin_features(features)
        return self._fit_binned(codes, edges, targets)

    def _bin_features(self, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Quantile-bin each column; returns (codes matrix, bin edges)."""
        return SortedColumns(features).bin(np.arange(features.shape[0]), self.max_bins)

    def _fit_binned(
        self, codes: np.ndarray, edges: list[np.ndarray], targets: np.ndarray
    ) -> "DecisionTreeRegressor":
        """Grow the tree on pre-binned rows (what :meth:`fit` runs after binning).

        Nothing built here may stay on the tree: a night's predictors hold
        thousands of fitted trees.
        """
        n_samples, n_features = codes.shape
        self.n_features_ = n_features
        # repro: allow(wallclock-rng) -- self.seed is an explicit int hyperparameter (set per tree by the forest as seed*1_000_003+t); rerouting through derive_rng would change every trained tree bitwise and break continuity with checked-in benchmarks
        rng = np.random.default_rng(self.seed)

        # The split search's layout, once per tree: every feature gets
        # ``width`` histogram slots and codes are pre-offset into them.
        width = max(len(cuts) for cuts in edges) + 1
        slots = codes + np.arange(n_features) * width
        # The growth buffer: five Python lists, dropped once ``_arrays``
        # holds their values.
        nodes = _Nodes()

        # Explicit stack of (node_id, sample_indices, depth).
        root = nodes.add()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n_samples), 1)]
        while stack:
            node_id, idx, depth = stack.pop()
            y_node = targets[idx]
            # The mean, as ``ndarray.mean`` divides it; the split search
            # needs the same sum.
            total = float(y_node.sum())
            nodes.value[node_id] = total / len(idx)
            if depth >= self.max_depth or len(idx) < self.min_samples_split:
                continue
            split = self._best_split(slots, width, y_node, total, idx, rng)
            if split is None:
                continue
            feature_idx, bin_idx = split
            go_left = slots[idx, feature_idx] <= bin_idx + feature_idx * width
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
                continue
            nodes.feature[node_id] = feature_idx
            nodes.threshold[node_id] = float(edges[feature_idx][bin_idx])
            left_id = nodes.add()
            right_id = nodes.add()
            nodes.left[node_id] = left_id
            nodes.right[node_id] = right_id
            stack.append((left_id, left_idx, depth + 1))
            stack.append((right_id, right_idx, depth + 1))

        self._arrays = (
            np.asarray(nodes.feature, dtype=np.int64),
            np.asarray(nodes.threshold, dtype=float),
            np.asarray(nodes.left, dtype=np.int64),
            np.asarray(nodes.right, dtype=np.int64),
            np.asarray(nodes.value, dtype=float),
        )
        return self

    def _best_split(
        self,
        slots: np.ndarray,
        width: int,
        y: np.ndarray,
        total_sum: float,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, int] | None:
        """Best (feature, bin) by SSE reduction over rows ``idx``, or None.

        ``slots`` is the tree's layout (``code + feature * width``), ``y``
        the node's targets in ``idx`` order and ``total_sum`` their sum.
        """
        n = len(idx)
        total_sq = float((y * y).sum())
        total_sse = total_sq - total_sum * total_sum / n

        n_features = slots.shape[1]
        # All candidate features are scanned at once: one flat bincount for
        # counts and weighted sums, prefix sums along the bin axis, then the
        # same argmax cascade a feature-at-a-time loop would run (first-max
        # within a feature, first strictly-better feature across features),
        # so the chosen split is identical to the scalar scan's.
        if self.max_features is not None and self.max_features < n_features:
            candidates = rng.choice(n_features, size=self.max_features, replace=False)
            flat = slots[np.ix_(idx, candidates)].ravel()
        else:
            candidates = None
            flat = slots[idx].ravel()
        if width < 2:  # no feature has any cut
            return None
        m = n_features if candidates is None else len(candidates)
        size = n_features * width
        counts = np.bincount(flat, minlength=size).reshape(n_features, width)
        # Row-major ravel keeps each bucket's accumulation in sample order,
        # so the weighted sums match per-feature bincounts bit for bit.
        sums = np.bincount(flat, weights=np.repeat(y, m), minlength=size)
        sums = sums.reshape(n_features, width)
        if candidates is not None:
            counts, sums = counts[candidates], sums[candidates]
        # Prefix sums over bins: split after bin b sends bins <= b left.
        left_counts = np.cumsum(counts, axis=1)[:, :-1]
        left_sums = np.cumsum(sums, axis=1)[:, :-1]
        right_counts = n - left_counts
        right_sums = total_sum - left_sums
        # Bins past a feature's real width have zero counts, so their
        # right_counts hit 0 and validity masks them out automatically.
        min_leaf = self.min_samples_leaf
        valid = (left_counts >= min_leaf) & (right_counts >= min_leaf)
        gain = np.where(
            valid,
            left_sums**2 / np.maximum(left_counts, 1)
            + right_sums**2 / np.maximum(right_counts, 1),
            -np.inf,
        )
        scores = gain.max(axis=1) - total_sum * total_sum / n
        pick = int(np.argmax(scores))  # first strictly-better feature wins
        if not np.isfinite(scores[pick]) or scores[pick] <= 1e-12 or total_sse <= 0:
            return None
        feature_idx = pick if candidates is None else int(candidates[pick])
        return feature_idx, int(gain[pick].argmax())  # first max within the feature

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self._arrays is not None)
        assert self._arrays is not None
        feat, thr, left, right, value = self._arrays
        node = np.zeros(features.shape[0], dtype=np.int64)
        # Route all rows down the tree simultaneously.
        for _ in range(self.max_depth + 1):
            is_internal = feat[node] != _NO_FEATURE
            if not is_internal.any():
                break
            active = np.flatnonzero(is_internal)
            current = node[active]
            # Training routes bin-code <= b left, i.e. raw value strictly
            # below the bin edge; mirror that exactly here.
            go_left = features[active, feat[current]] < thr[current]
            node[active] = np.where(go_left, left[current], right[current])
        return value[node]

    def node_arrays(self) -> tuple[np.ndarray, ...]:
        """The fitted ``(feature, threshold, left, right, value)`` arrays.

        The flat node representation consumed by the packed ensemble —
        leaves carry ``feature == -1`` and child index ``-1``.
        """
        if self._arrays is None:
            raise RuntimeError("node_arrays() before fit()")
        return self._arrays

    @property
    def node_count(self) -> int:
        if self._arrays is None:
            return 0
        return len(self._arrays[0])

    @property
    def tree_depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._arrays is None:
            return 0
        feat, _, left, right, _ = self._arrays
        depth = 0
        stack = [(0, 1)]
        while stack:
            i, level = stack.pop()
            if feat[i] == _NO_FEATURE:
                depth = max(depth, level)
            else:
                stack.append((int(left[i]), level + 1))
                stack.append((int(right[i]), level + 1))
        return depth
