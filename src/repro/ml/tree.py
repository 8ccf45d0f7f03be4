"""Decision tree regression (CART with histogram split finding).

Features are quantile-binned once per fit (:class:`SortedColumns`: one
argsort per matrix, every sample of its rows binned from the ranks).  A
tree grows one level per split search: every node of the level is searched
in one vectorized bincount over node-offset histogram slots, and node ids
are then handed out in depth-first order, so the trees are those a
node-at-a-time grower makes.  Prediction routes all rows through the node
arrays iteratively, so it is vectorized as well.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fit_inputs, check_predict_input

_NO_FEATURE = -1


def _depth_first_ids(left: np.ndarray) -> np.ndarray:
    """Each node's id in depth-first order, from ``left`` in making order.

    ``left[p]`` is node ``p``'s left child (its right is ``left[p] + 1``)
    or -1.  The depth-first grower pops its stack's top, gives a node that
    splits the next two ids (left, then right) and pushes both, so the
    right subtree is numbered before the left one's children.
    """
    first = left.tolist()
    ids = [0] * len(first)
    given = 1
    walk = [0]
    while walk:
        child = first[walk.pop()]
        if child >= 0:
            ids[child], ids[child + 1] = given, given + 1
            given += 2
            walk += (child, child + 1)
    return np.asarray(ids, dtype=np.int64)


class SortedColumns:
    """A feature matrix sorted once, quantile-binned for any sample of its rows.

    Holds each column sorted (stable argsort, so ties — ``-0.0`` and ``0.0``
    included — stand in row order), the permutation, and every row's rank in
    every column.  :meth:`bin` then needs no further sort: a sample's sorted
    column is the sorted column filtered by membership, its cuts are order
    statistics of that, and a row's code is a lookup at its rank.
    """

    __slots__ = ("values", "order", "rank", "keyed")

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
        #: ``(n_features, n_samples)`` complex ``j + 1j * values[j]``: numpy
        #: orders complex numbers by real part, then imaginary part, so the
        #: flat array ascends, column by column, and one ``searchsorted``
        #: places cuts of every column.
        self.keyed = np.empty((n_features, n_samples), dtype=complex)
        self.keyed.real = np.arange(n_features)[:, None]
        self.keyed.imag = self.values

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
        kept = cuts[fresh]
        per_column = fresh.sum(axis=1)
        ends = np.cumsum(per_column).tolist()
        edges = [kept[end - count : end] for end, count in zip(ends, per_column.tolist())]

        # A value is >= a cut exactly when its rank is >= the number of
        # values below the cut, so the code at rank r is the count of cuts
        # placed at or before r.  One search places every cut: ``(j, cut)``
        # lands in :attr:`keyed` at ``j * n_samples`` plus the count of
        # column ``j``'s values below the cut.
        probes = np.empty(kept.size, dtype=complex)
        probes.real = np.repeat(np.arange(n_features), per_column)
        probes.imag = kept
        placed = np.searchsorted(self.keyed.ravel(), probes)
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
        self._fit_binned(codes, edges, targets)
        return self

    def _bin_features(self, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Quantile-bin each column; returns (codes matrix, bin edges)."""
        return SortedColumns(features).bin(np.arange(features.shape[0]), self.max_bins)

    def _fit_binned(
        self, codes: np.ndarray, edges: list[np.ndarray], targets: np.ndarray
    ) -> np.ndarray:
        """Grow the tree on pre-binned rows (what :meth:`fit` runs after
        binning); returns each row's leaf value — what :meth:`predict` gives
        the row's raw features, since a code ``<= b`` is a value below cut
        ``b``.

        Each pass pops one frontier of pending nodes off a stack and
        searches all of them at once (:meth:`_best_splits`).  A tree that
        draws features per split must draw them in depth-first order, so it
        pushes each child as a frontier of its own, the right one on top;
        any other tree pushes a level's children as one frontier.  Node ids
        are then handed out as the depth-first grower handed them out
        (:func:`_depth_first_ids`), so the node arrays are its bits.
        Nothing built here may stay on the tree: a night's predictors hold
        thousands of fitted trees.
        """
        n_samples, n_features = codes.shape
        self.n_features_ = n_features
        draws = self.max_features is not None and self.max_features < n_features
        # repro: allow(wallclock-rng) -- self.seed is an explicit int hyperparameter (set per tree by the forest as seed*1_000_003+t); rerouting through derive_rng would change every trained tree bitwise and break continuity with checked-in benchmarks
        rng = np.random.default_rng(self.seed) if draws else None

        # The split search's layout, once per tree: every feature gets
        # ``width`` histogram slots and codes are pre-offset into them.
        width = max(len(cuts) for cuts in edges) + 1
        slots = codes + np.arange(n_features) * width
        # Nodes in the order they are made: the root, then children in
        # (left, right) pairs, so a split node's right child is ``left + 1``.
        capacity = 2 * n_samples - 1
        feature = np.full(capacity, _NO_FEATURE, dtype=np.int64)
        threshold = np.zeros(capacity)
        left = np.full(capacity, -1, dtype=np.int64)
        value = np.zeros(capacity)
        made = 1
        # Each row's value at the deepest node it has reached: its leaf's,
        # once the tree is grown.
        row_values = np.empty(n_samples)

        # Pending frontiers, each (node ids, depth, row counts, rows back to
        # back), a node's rows in its parent's order.
        root = np.zeros(1, dtype=np.int64)
        stack = [(root, 1, np.full(1, n_samples), np.arange(n_samples))]
        while stack:
            here, depth, counts, rows = stack.pop()
            y = targets[rows]
            # Each node's mean as ``ndarray.mean`` divides it: the pairwise
            # sum of the node's own rows, in their order.
            ends = np.cumsum(counts)
            runs = list(zip((ends - counts).tolist(), ends.tolist()))
            totals = np.array([y[begin:end].sum() for begin, end in runs])
            value[here] = means = totals / counts
            row_values[rows] = np.repeat(means, counts)

            searched = counts >= self.min_samples_split
            if depth >= self.max_depth or not searched.any():
                continue
            squares = y * y
            total_sq = np.array([squares[begin:end].sum() for begin, end in runs])
            # A drawing tree's frontier is one node: it draws only when that
            # node is searched, as the depth-first grower did.
            found, split_feature, split_bin = self._best_splits(
                slots, width, rows, y, counts, totals, total_sq - totals * totals / counts, rng
            )
            splits = found & searched
            if not splits.any():
                continue

            # Each parent's rows go to its children, in order.
            parents = here[splits]
            parent_feature, parent_bin = split_feature[splits], split_bin[splits]
            parent_sizes = counts[splits]
            parent_of = np.repeat(np.arange(parents.size), parent_sizes)
            parent_rows = rows[np.repeat(splits, counts)]
            go_left = (
                slots[parent_rows, parent_feature[parent_of]]
                <= (parent_bin + parent_feature * width)[parent_of]
            )
            lefts = np.bincount(parent_of[go_left], minlength=parents.size)
            feature[parents] = parent_feature
            threshold[parents] = [
                edges[f][b] for f, b in zip(parent_feature.tolist(), parent_bin.tolist())
            ]
            children = made + 2 * np.arange(parents.size)
            left[parents] = children
            made += 2 * parents.size
            left_rows, right_rows = parent_rows[go_left], parent_rows[~go_left]
            if draws:
                # Each child alone, the right one on top: the next frontier
                # is the node the depth-first grower would pop.
                stack.append((children, depth + 1, lefts, left_rows))
                stack.append((children + 1, depth + 1, parent_sizes - lefts, right_rows))
            else:
                # The next level as one frontier.
                stack.append(
                    (
                        np.concatenate((children, children + 1)),
                        depth + 1,
                        np.concatenate((lefts, parent_sizes - lefts)),
                        np.concatenate((left_rows, right_rows)),
                    )
                )

        ids = _depth_first_ids(left[:made])
        order = np.empty(made, dtype=np.intp)
        order[ids] = np.arange(made)
        first = left[order]
        split_node = first >= 0
        new_left = np.where(split_node, ids[first], -1)
        self._arrays = (
            feature[order],
            threshold[order],
            new_left,
            np.where(split_node, new_left + 1, -1),
            value[order],
        )
        return row_values

    def _best_splits(
        self,
        slots: np.ndarray,
        width: int,
        rows: np.ndarray,
        y: np.ndarray,
        sizes: np.ndarray,
        totals: np.ndarray,
        total_sse: np.ndarray,
        rng: np.random.Generator | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(found, feature, bin)``: each node's best split by SSE reduction.

        The nodes' rows run back to back in ``rows`` (``sizes`` of them per
        node), ``y`` holds their targets, ``totals`` and ``total_sse`` each
        node's target sum and squared error; ``slots`` is the tree's layout
        (``code + feature * width``), and ``rng`` draws each node's
        candidate features when the tree samples them.
        All nodes and all candidate features are scanned at once: one flat
        bincount for counts and weighted sums over node-offset slots, prefix
        sums along the bin axis, then per node the same argmax cascade a
        feature-at-a-time loop would run (first-max within a feature, first
        strictly-better feature across features).  Each slot's sum adds its
        node's rows in their order, so every node's split is the one a
        search of that node alone picks.
        """
        count = len(sizes)
        n_features = slots.shape[1]
        owner = np.repeat(np.arange(count), sizes)
        if rng is not None:
            # One draw per node, in the order the nodes come.
            candidates = np.array(
                [rng.choice(n_features, size=self.max_features, replace=False) for _ in sizes]
            )
            flat = slots[rows[:, None], candidates[owner]]
        else:
            candidates = None
            flat = slots[rows]
        nothing = np.zeros(count, dtype=np.intp)
        if width < 2:  # no feature has any cut
            return np.zeros(count, dtype=bool), nothing, nothing
        size = n_features * width
        per_row = flat.shape[1]
        flat += (owner * size)[:, None]
        flat = flat.ravel()
        shape = (count, n_features, width)
        counts = np.bincount(flat, minlength=count * size).reshape(shape)
        # Row-major ravel keeps each bucket's accumulation in row order.
        sums = np.bincount(flat, weights=np.repeat(y, per_row), minlength=count * size)
        sums = sums.reshape(shape)
        if candidates is not None:
            at = np.arange(count)[:, None]
            counts, sums = counts[at, candidates], sums[at, candidates]
        # Prefix sums over bins: a split after bin b sends bins <= b left.
        # The last bin stays in, so the arrays stay contiguous: it sends
        # every row left, so, like the bins past a feature's own cuts, its
        # right count is 0 and validity masks it out.
        left_counts = np.cumsum(counts, axis=2)
        left_sums = np.cumsum(sums, axis=2)
        right_counts = sizes[:, None, None] - left_counts
        min_leaf = self.min_samples_leaf
        invalid = (left_counts < min_leaf) | (right_counts < min_leaf)
        # ``left_sums**2 / max(left_counts, 1) + right_sums**2 /
        # max(right_counts, 1)``, worked in place: a level's grid is too big
        # to stay in cache as a dozen temporaries.
        np.maximum(left_counts, 1, out=left_counts)
        np.maximum(right_counts, 1, out=right_counts)
        gain = np.square(left_sums)
        gain /= left_counts
        right = np.subtract(totals[:, None, None], left_sums, out=left_sums)
        np.square(right, out=right)
        right /= right_counts
        gain += right
        gain[invalid] = -np.inf
        scores = gain.max(axis=2) - (totals * totals / sizes)[:, None]
        at = np.arange(count)
        pick = np.argmax(scores, axis=1)  # first strictly-better feature wins
        best = scores[at, pick]
        found = np.isfinite(best) & ~(best <= 1e-12) & ~(total_sse <= 0)
        chosen = pick if candidates is None else candidates[at, pick]
        return found, chosen, gain[at, pick].argmax(axis=1)  # first max within the feature

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
