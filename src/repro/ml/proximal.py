"""Elastic net with mean-squared-log-error loss (proximal Adam).

The paper's individual cost models are linear in the derived features but
trained with MSLE: ``sum (log(p+1) - log(a+1))^2`` where ``p = w.x + b`` is
the *raw-space* prediction (Section 3.2).  Squared error in log space makes
the fit scale-free and robust to runtime outliers, while the raw-space
linear form keeps predictions extrapolating linearly (no exponential
blow-up on inputs larger than anything in training) and exposes the
``theta_p/P + theta_c*P`` structure that the analytical partition
exploration reads off the coefficients (Section 5.3).

The objective is optimized with Adam on standardized features plus a
proximal (soft-threshold) step for the L1 term; the L2 term enters the
gradient directly.

**Batched training.**  The feedback loop fits thousands of small per-
signature models; running one Python/numpy optimization loop per model is
dispatch-bound.  :func:`fit_elastic_nets` therefore stacks many same-shaped
fits into a single Adam loop over segmented arrays.  Every reduction is
expressed with primitives whose result is independent of how fits are
batched — per-row multiply-sums and ``np.add.reduceat`` segment sums, where
a segment's sum does not depend on its neighbours (see
:func:`_segment_sum` for what that does and does not promise) — and
single-model :meth:`ElasticNetMSLE.fit` runs the same core with one
segment, so batched and one-at-a-time training produce bitwise-identical
coefficients.  The batched fit builds no net per segment: it returns every
net's parameters as columns, the layout the model store keeps.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fit_inputs, check_predict_input
from repro.ml.preprocessing import StandardScaler

_P_FLOOR = 1e-6  # predictions are clamped here inside the log


def _segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums along axis 0; a segment's sum ignores its neighbours.

    That independence — the same rows give the same bits whichever segments
    surround them, one segment alone included — is the only property the
    batched fit relies on, and ``tests/ml/test_proximal.py`` pins it.
    Measured, ``np.add.reduceat`` over a 2-D stack is **not** bit-equal to
    adding a segment's rows in order, nor to ``values[s:e].sum(axis=0)``.
    Per-segment standardisation (``StandardScaler``: ``mean`` / ``std`` of
    the slice) therefore cannot be folded into a ``reduceat`` pass without
    moving every coefficient's bits; :func:`_standardize_segments` batches
    it by segment length instead, with axis reductions over equal-length
    slabs, which do add each lane in the slice's own order.
    """
    return np.add.reduceat(values, starts, axis=0)


def _log_target(targets: np.ndarray) -> tuple[np.ndarray, float]:
    """``(log1p(targets / y_scale), y_scale)``: the target scaled by its
    geometric mean, so the penalty means the same for every template."""
    # repro: allow(float-reduction) -- one segment's own rows (the scalar fit()); the batched fit_elastic_nets reduces the same contiguous run as one row of a (k, length) block (_standardize_segments), so the grouping is independent of how many nets are batched
    y_scale = float(np.exp(np.mean(np.log1p(targets)))) or 1.0
    return np.log1p(targets / y_scale), y_scale


def _standardize_segments(
    features: np.ndarray, targets: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, scale, x, y_log, y_scale)``: every segment standardized alone.

    Row ``g`` of ``mean`` / ``scale`` / ``y_scale``, and segment ``g``'s run
    of the packed ``x`` / ``y_log`` (at ``lengths[:g].sum()``), are bit for
    bit what ``StandardScaler.fit`` and :func:`_log_target` make of
    ``features`` / ``targets[starts[g] : starts[g] + lengths[g]]`` alone.
    They are computed in one pass per segment *length*: the rows are
    gathered once, segment by segment in length order, so each length's
    segments form one contiguous ``(k, length, d)`` block, reduced along
    axis 1.  Numpy reduces an ``(L, d)`` slice along axis 0 by adding its
    rows in order into one accumulator per column, and each slab of the
    block the same way; a segment's ``(L,)`` log-targets and its row of the
    ``(k, L)`` target block are each one contiguous run, summed pairwise
    with the same blocking.  So no lane's sum depends on the segments
    grouped with it, and ``tests/ml/test_proximal.py`` pins the bits.
    """
    m, d = len(lengths), features.shape[1]
    by_length = np.argsort(lengths, kind="stable")
    run = lengths[by_length]
    run_starts = np.cumsum(run) - run
    step = np.arange(int(run.sum())) - np.repeat(run_starts, run)
    source = np.repeat(starts[by_length], run) + step
    rows, row_targets = features[source], targets[source]
    standardized, logs = np.empty_like(rows), np.empty_like(row_targets)
    mean, scale, y_scale = np.empty((m, d)), np.empty((m, d)), np.empty(m)
    bounds = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), m] if m else [0]
    for first, last in zip(bounds, bounds[1:]):
        count, length = last - first, int(run[first])
        at = slice(int(run_starts[first]), int(run_starts[first]) + count * length)
        block = rows[at].reshape(count, length, d)
        group_mean = block.mean(axis=1)
        spread = block.std(axis=1)
        spread[spread < 1e-12] = 1.0  # constant columns pass through unscaled
        mean[first:last], scale[first:last] = group_mean, spread
        out = standardized[at].reshape(count, length, d)
        np.subtract(block, group_mean[:, None, :], out=out)
        out /= spread[:, None, :]
        block_targets = row_targets[at].reshape(count, length)
        group_scale = np.exp(np.log1p(block_targets).mean(axis=1))
        group_scale[group_scale == 0.0] = 1.0  # _log_target's ``or 1.0``
        y_scale[first:last] = group_scale
        np.log1p(block_targets / group_scale[:, None], out=logs[at].reshape(count, length))

    # Back to the caller's segment order, each segment's rows packed.
    packed_starts = np.cumsum(lengths) - lengths
    x, y_log = np.empty_like(rows), np.empty_like(logs)
    packed = np.repeat(packed_starts[by_length], run) + step
    x[packed], y_log[packed] = standardized, logs
    order = np.empty_like(by_length)
    order[by_length] = np.arange(m)
    return mean[order], scale[order], x, y_log, y_scale[order]


def _adam_msle_batched(
    x: np.ndarray,
    y_log: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    *,
    learning_rate: float,
    max_iter: int,
    tol: float,
    l1: float,
    l2: float,
    nonneg_indices: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit ``m`` independent MSLE elastic nets in one Adam loop.

    ``x`` is the (N, d) stack of all models' standardized training rows,
    grouped contiguously; segment ``g`` is ``x[starts[g]:starts[g]+
    lengths[g]]``.  Each model follows exactly the update sequence it would
    follow alone (converged models are frozen, not dropped), so results do
    not depend on which models share a batch.

    Returns per-model ``(weights (m, d), bias (m,), n_iter (m,))``.
    """
    n_rows, n_features = x.shape
    m = len(starts)

    out_weights = np.zeros((m, n_features))
    out_bias = np.zeros(m)
    out_iter = np.zeros(m, dtype=np.int64)

    # Live state: models still optimizing.  Converged models are written to
    # the output arrays with the weights of their final update — exactly as
    # if they had exited their own loop — and their rows are periodically
    # compacted away; segment math is per-model, so dropping finished
    # segments cannot perturb the survivors.
    model_ids = np.arange(m)
    lengths = np.asarray(lengths, dtype=np.int64)
    lengths_f = lengths.astype(float)
    seg_id = np.repeat(np.arange(m), lengths)
    n_of_row = lengths_f[seg_id]

    weights = np.zeros((m, n_features))
    y_log_mean = _segment_sum(y_log, starts) / lengths_f
    bias = np.exp(y_log_mean) - 1.0  # geometric-mean start

    m_w = np.zeros((m, n_features))
    v_w = np.zeros((m, n_features))
    m_b = np.zeros(m)
    v_b = np.zeros(m)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    previous_loss = np.full(m, np.inf)
    starts = np.asarray(starts, dtype=np.int64)

    for step in range(1, max_iter + 1):
        # MSLE term: loss and gradients, per segment.  The zero-slope region
        # below the floor still receives a push because pred is clamped,
        # keeping the optimization live there.
        # ``np.repeat`` copies whole rows: the values of ``weights[seg_id]``
        # at a fraction of a fancy gather's cost.
        raw = (x * np.repeat(weights, lengths, axis=0)).sum(axis=1) + bias[seg_id]
        pred = np.maximum(raw, _P_FLOOR)
        diff = np.log1p(pred) - y_log
        loss = _segment_sum(diff * diff, starts) / lengths_f
        dpred = 2.0 * diff / (1.0 + pred) / n_of_row
        grad_w = _segment_sum(x * dpred[:, None], starts)
        grad_b = _segment_sum(dpred, starts)
        grad_w = grad_w + l2 * weights

        m_w = beta1 * m_w + (1 - beta1) * grad_w
        v_w = beta2 * v_w + (1 - beta2) * grad_w * grad_w
        m_b = beta1 * m_b + (1 - beta1) * grad_b
        v_b = beta2 * v_b + (1 - beta2) * grad_b * grad_b
        lr_t = learning_rate * np.sqrt(1 - beta2**step) / (1 - beta1**step)
        weights = weights - lr_t * m_w / (np.sqrt(v_w) + eps)
        bias = bias - lr_t * m_b / (np.sqrt(v_b) + eps)
        # Proximal step for L1 (soft threshold scaled by the step size).
        if l1 > 0:
            shrink = lr_t * l1
            weights = np.sign(weights) * np.maximum(np.abs(weights) - shrink, 0.0)
        # Projection for sign-constrained coefficients.  Standardization
        # preserves signs (scales are positive), so clamping the
        # standardized weight clamps the raw-space weight too.
        if nonneg_indices:
            idx = list(nonneg_indices)
            weights[:, idx] = np.maximum(weights[:, idx], 0.0)

        converged = np.abs(previous_loss - loss) < tol
        previous_loss = loss
        done = converged | (step == max_iter)
        if done.any():
            finished = model_ids[done]
            out_weights[finished] = weights[done]
            out_bias[finished] = bias[done]
            out_iter[finished] = step
            if done.all():
                return out_weights, out_bias, out_iter
            # Compact the live stack down to unconverged segments.
            keep = ~done
            row_keep = np.repeat(keep, lengths)
            x = x[row_keep]
            y_log = y_log[row_keep]
            model_ids = model_ids[keep]
            lengths = lengths[keep]
            lengths_f = lengths.astype(float)
            starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            seg_id = np.repeat(np.arange(len(lengths)), lengths)
            n_of_row = lengths_f[seg_id]
            weights = weights[keep]
            bias = bias[keep]
            m_w = m_w[keep]
            v_w = v_w[keep]
            m_b = m_b[keep]
            v_b = v_b[keep]
            previous_loss = previous_loss[keep]

    return out_weights, out_bias, out_iter


class ElasticNetMSLE:
    """L1+L2-regularized linear regression under the MSLE loss.

    Objective (standardized features)::

        mean((log1p(max(Xw + b, 0)) - log1p(y))^2)
            + alpha * l1_ratio * ||w||_1 + 0.5 * alpha * (1-l1_ratio) * ||w||^2

    The target is internally scaled by its geometric mean so that ``alpha``
    means the same thing for millisecond operators and hour-long stages.
    """

    def __init__(
        self,
        alpha: float = 0.01,
        l1_ratio: float = 0.5,
        learning_rate: float = 0.05,
        max_iter: int = 400,
        tol: float = 1e-7,
        nonneg_indices: tuple[int, ...] = (),
    ) -> None:
        """``nonneg_indices`` pins those coefficients to be >= 0 in *raw*
        feature space — used for physically monotone features (per-partition
        work, partition-count overhead) whose sign determines how the model
        extrapolates far outside the training range of P."""
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.nonneg_indices = tuple(nonneg_indices)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self._scaler = StandardScaler()
        self._y_scale = 1.0

    def reset(self) -> None:
        self.coef_ = None
        self.intercept_ = 0.0
        self.n_iter_ = 0
        self._scaler.reset()
        self._y_scale = 1.0

    # ------------------------------------------------------------------ #

    def _adam(
        self, x: np.ndarray, y_log: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_adam_msle_batched` under this net's hyperparameters."""
        return _adam_msle_batched(
            x,
            y_log,
            starts=starts,
            lengths=lengths,
            learning_rate=self.learning_rate,
            max_iter=self.max_iter,
            tol=self.tol,
            l1=self.alpha * self.l1_ratio,
            l2=self.alpha * (1.0 - self.l1_ratio),
            nonneg_indices=self.nonneg_indices,
        )

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ElasticNetMSLE":
        features, targets = check_fit_inputs(features, targets)
        if (targets < 0).any():
            raise ValueError("MSLE requires non-negative targets")
        # Standardized features; the target scaled to O(1) by its geometric
        # mean, so the penalty strength is comparable across templates.
        x = self._scaler.fit_transform(features)
        y_log, self._y_scale = _log_target(targets)
        one = np.zeros(1, dtype=np.int64)
        weights, bias, n_iter = self._adam(x, y_log, one, np.array([len(y_log)]))
        self.coef_ = weights[0]
        self.intercept_ = float(bias[0])
        self.n_iter_ = int(n_iter[0])
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.coef_ is not None)
        x = self._scaler.transform(features)
        assert self.coef_ is not None
        # Per-row multiply-sum instead of a BLAS matvec: BLAS kernels pick
        # different summation orders for different batch shapes, which would
        # make batched serving drift from one-at-a-time prediction by ulps.
        # This form is bitwise batch-size-invariant.
        raw = ((x * self.coef_).sum(axis=1) + self.intercept_) * self._y_scale
        return np.maximum(raw, 0.0)

    def packed_parameters(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
        """``(scaler mean, scaler scale, coef, intercept, y_scale)``: one
        row of a model store's parameter block, which replays
        :meth:`predict` without this object."""
        if self.coef_ is None:
            raise RuntimeError("packed_parameters() before fit()")
        mean = self._scaler.mean_
        scale = self._scaler.scale_
        assert mean is not None and scale is not None
        return mean, scale, self.coef_, self.intercept_, self._y_scale

    def coefficients_raw(self) -> tuple[np.ndarray, float]:
        """(weights, intercept) over raw features and the raw target scale.

        ``predict(X) == max(X @ weights + intercept, 0)`` for any raw X —
        the linear form read by the analytical partition exploration.
        """
        if self.coef_ is None:
            raise RuntimeError("coefficients_raw() before fit()")
        scale = self._scaler.scale_
        mean = self._scaler.mean_
        assert scale is not None and mean is not None
        raw = self.coef_ / scale * self._y_scale
        intercept = (
            # repro: allow(float-reduction) -- 1-D pairwise sum over the model's fixed coefficient width; the packed bank replays the identical lane as a row of its (m, d).sum(axis=1), so the order matches bitwise (pinned by test_batched_resource_profiles)
            self.intercept_ - float((self.coef_ * mean / scale).sum())
        ) * self._y_scale
        return raw, intercept

    @property
    def selected_features(self) -> np.ndarray:
        """Indices with non-zero weight (the elastic net's feature selection)."""
        if self.coef_ is None:
            raise RuntimeError("selected_features before fit()")
        return np.flatnonzero(np.abs(self.coef_) > 1e-12)


def fit_elastic_nets(
    net: ElasticNetMSLE,
    features: np.ndarray,
    targets: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Fit one net per row segment (``starts[g] : starts[g] + lengths[g]``)
    with ``net``'s hyperparameters, in one Adam loop, as columns: ``(mean,
    scale, coef, intercept, y_scale, n_iter)``, one row per net.

    Row ``g`` is bitwise what :meth:`ElasticNetMSLE.fit` on segment ``g``
    leaves on a net and its scaler.  The segments are standardized one pass
    per segment length, not one per segment and not in a segment-sum pass
    (see :func:`_segment_sum`): each length's segments are reduced as one
    ``(k, length, d)`` block along axis 1, which adds every column of every
    segment in the order ``StandardScaler.fit``'s ``mean(axis=0)`` /
    ``std(axis=0)`` on that segment alone does, so the bits are the same
    (:func:`_standardize_segments`).  ``net`` itself stays unfitted.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(starts) != len(lengths):
        raise ValueError("starts and lengths must align")
    features, targets = check_fit_inputs(features, targets)
    if (targets < 0).any():
        raise ValueError("MSLE requires non-negative targets")

    mean, scale, x, y_log, y_scale = _standardize_segments(features, targets, starts, lengths)
    # The caller's ``starts`` may leave gaps (unused rows); the standardized
    # stack does not, so the optimizer's offsets come from the lengths.
    packed_starts = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1]))
    weights, bias, n_iter = net._adam(x, y_log, packed_starts, lengths)
    return mean, scale, weights, bias, y_scale, n_iter
