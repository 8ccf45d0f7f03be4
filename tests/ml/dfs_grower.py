"""The per-node grower ``DecisionTreeRegressor`` used before it searched a
whole frontier per pass: one ``_best_split`` per node, popped from a DFS
stack, node ids handed out as nodes split.  Kept as the oracle of the
frontier grower's parity tests (``test_trees_and_ensembles.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _NO_FEATURE, DecisionTreeRegressor


def grow_per_node(
    tree: DecisionTreeRegressor, codes: np.ndarray, edges: list[np.ndarray], targets: np.ndarray
) -> DecisionTreeRegressor:
    """Fit ``tree`` on pre-binned rows, one split search per node."""
    n_samples, n_features = codes.shape
    tree.n_features_ = n_features
    rng = np.random.default_rng(tree.seed)
    width = max(len(cuts) for cuts in edges) + 1
    slots = codes + np.arange(n_features) * width
    feature: list[int] = [_NO_FEATURE]
    threshold: list[float] = [0.0]
    left: list[int] = [-1]
    right: list[int] = [-1]
    value: list[float] = [0.0]

    stack: list[tuple[int, np.ndarray, int]] = [(0, np.arange(n_samples), 1)]
    while stack:
        node_id, idx, depth = stack.pop()
        y_node = targets[idx]
        total = float(y_node.sum())
        value[node_id] = total / len(idx)
        if depth >= tree.max_depth or len(idx) < tree.min_samples_split:
            continue
        split = _best_split(tree, slots, width, y_node, total, idx, rng)
        if split is None:
            continue
        feature_idx, bin_idx = split
        go_left = slots[idx, feature_idx] <= bin_idx + feature_idx * width
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        if len(left_idx) < tree.min_samples_leaf or len(right_idx) < tree.min_samples_leaf:
            continue
        feature[node_id] = feature_idx
        threshold[node_id] = float(edges[feature_idx][bin_idx])
        left_id, right_id = len(value), len(value) + 1
        feature += [_NO_FEATURE, _NO_FEATURE]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
        value += [0.0, 0.0]
        left[node_id], right[node_id] = left_id, right_id
        stack.append((left_id, left_idx, depth + 1))
        stack.append((right_id, right_idx, depth + 1))

    tree._arrays = (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=float),
    )
    return tree


def _best_split(tree, slots, width, y, total_sum, idx, rng):
    """Best ``(feature, bin)`` by SSE reduction over rows ``idx``, or None."""
    n = len(idx)
    total_sq = float((y * y).sum())
    total_sse = total_sq - total_sum * total_sum / n
    n_features = slots.shape[1]
    if tree.max_features is not None and tree.max_features < n_features:
        candidates = rng.choice(n_features, size=tree.max_features, replace=False)
        flat = slots[np.ix_(idx, candidates)].ravel()
    else:
        candidates = None
        flat = slots[idx].ravel()
    if width < 2:
        return None
    m = n_features if candidates is None else len(candidates)
    size = n_features * width
    counts = np.bincount(flat, minlength=size).reshape(n_features, width)
    sums = np.bincount(flat, weights=np.repeat(y, m), minlength=size)
    sums = sums.reshape(n_features, width)
    if candidates is not None:
        counts, sums = counts[candidates], sums[candidates]
    left_counts = np.cumsum(counts, axis=1)[:, :-1]
    left_sums = np.cumsum(sums, axis=1)[:, :-1]
    right_counts = n - left_counts
    right_sums = total_sum - left_sums
    min_leaf = tree.min_samples_leaf
    valid = (left_counts >= min_leaf) & (right_counts >= min_leaf)
    gain = np.where(
        valid,
        left_sums**2 / np.maximum(left_counts, 1) + right_sums**2 / np.maximum(right_counts, 1),
        -np.inf,
    )
    scores = gain.max(axis=1) - total_sum * total_sum / n
    pick = int(np.argmax(scores))
    if not np.isfinite(scores[pick]) or scores[pick] <= 1e-12 or total_sse <= 0:
        return None
    feature_idx = pick if candidates is None else int(candidates[pick])
    return feature_idx, int(gain[pick].argmax())
