"""Packed inference runtime: the model bank compiled into contiguous arrays.

The paper's serving story is that "all models relevant for a cluster are
loaded upfront by the optimizer, into a hash map" and consulted millions of
times per optimization pass (Section 5.1), five learned lookups per costed
operator (Section 6.5).  The object graph behind that hash map —
one :class:`~repro.core.learned_model.LearnedCostModel` per ``(kind,
signature)``, each wrapping its own scaler and elastic net — prices a batch
with one tiny vectorized call *per covering group*, which leaves the hot
path dominated by Python/numpy dispatch (hundreds of micro-calls per batch).

This module compiles that object graph **once** into flat arrays so a whole
batch is priced in a constant number of numpy passes:

* per model kind, the signatures of every trained model in one **sorted
  array** and their elastic-net parameters (scaler mean/scale, standardized
  coefficients, intercept, target scale) stacked into **contiguous
  matrices**;
* signature resolution becomes one ``np.searchsorted`` over the sorted
  array instead of one dict lookup per row;
* pricing becomes one gather of each covered row's model parameters plus a
  batch-invariant row multiply-sum — bitwise identical to routing every row
  through its model's ``predict_matrix``, because the per-row reduction
  depends only on the row's own feature width.

Compilation is **lazy** and owned by :meth:`~repro.core.model_store.
ModelStore.packed_bank`: the store bumps a version counter on every
``add``/``remove`` and the bank recompiles on next use, so serving never
reads stale coefficients.  Kinds containing an unfitted model are left
unpacked and transparently served by the retained object-graph reference
path (which raises on actual use of the unfitted model, exactly like the
object-graph chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.learned_model import _MAX_PREDICT_SECONDS, ResourceProfile
from repro.core.model_store import SIGNATURE_FIELDS, ModelStore
from repro.features.featurizer import INVERSE_P_FEATURES, feature_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.features.table import FeatureTable


def match_sorted(
    signatures: np.ndarray, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve a signature column against one sorted signature array.

    Returns ``(mask, position)``: ``mask[i]`` is True where some signature
    equals ``column[i]`` and ``position[i]`` is its index in ``signatures``
    (clamped, meaningless where ``mask`` is False).  The single resolution
    primitive shared by model matching and coverage checks.
    """
    if signatures.size == 0:
        zeros = np.zeros(len(column), dtype=np.int64)
        return np.zeros(len(column), dtype=bool), zeros
    position = signatures.searchsorted(column)
    position = np.minimum(position, signatures.size - 1)
    return signatures[position] == column, position


@dataclass(frozen=True)
class PackedKindModels:
    """One kind's trained elastic nets as contiguous parameter arrays.

    Model ``g`` (the ``g``-th smallest signature) owns row ``g`` of every
    array.  ``predict_rows`` replays :meth:`~repro.ml.proximal.
    ElasticNetMSLE.predict` exactly — standardize, row multiply-sum, target
    rescale, clamp — with the parameters gathered per row, so mixed-model
    batches price bitwise identically to per-model calls.
    """

    kind: ModelKind
    signatures: np.ndarray  # (m,) uint64, sorted ascending
    #: (m, 3, d) stack of (scaler mean, scaler scale, standardized coef) so
    #: the hot path gathers each row's parameters with ONE fancy index.
    fused: np.ndarray
    intercept: np.ndarray  # (m,)
    y_scale: np.ndarray  # (m,) target scales
    width: int  # d: the kind's feature width
    #: Raw-space weights/intercepts (`coefficients_raw` replayed at compile
    #: time), backing the batched resource-profile extraction of Section 5.3.
    raw_coef: np.ndarray  # (m, d)
    raw_intercept: np.ndarray  # (m,)
    #: Feature-column split for theta extraction: ascending indices of the
    #: 1/P-family features (-> theta_p), the bare "P" feature (-> theta_c),
    #: and everything else (-> theta_0).
    inverse_p_columns: tuple[int, ...]
    partition_columns: tuple[int, ...]
    other_columns: tuple[int, ...]

    def __len__(self) -> int:
        return int(self.signatures.size)

    def match(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(mask, parameter row)`` for each entry of a signature column."""
        return match_sorted(self.signatures, column)

    def predict_rows(self, rows: np.ndarray, model_idx: np.ndarray) -> np.ndarray:
        """Price feature rows, row ``i`` through model ``model_idx[i]``.

        ``rows`` must already be sliced to this kind's feature width.  The
        op sequence replays :meth:`~repro.ml.proximal.ElasticNetMSLE.
        predict` exactly — standardize, multiply by the coefficients, row
        pairwise-sum (length ``d``, so batch-size invariant), intercept,
        target rescale, clamp — for bitwise parity with per-model calls.
        """
        params = self.fused[model_idx]  # (k, 3, d): one gather for all three
        buf = rows - params[:, 0, :]
        buf /= params[:, 1, :]
        buf *= params[:, 2, :]
        raw = (buf.sum(axis=1) + self.intercept[model_idx]) * self.y_scale[model_idx]
        return np.minimum(np.maximum(raw, 0.0), _MAX_PREDICT_SECONDS)

    def resource_rows(
        self, at_one_rows: np.ndarray, model_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(theta_p, theta_c, theta_0)`` per row, from the raw-space fit.

        ``at_one_rows`` are the rows' feature vectors evaluated at P=1
        (sliced to this kind's width); row ``i`` reads model
        ``model_idx[i]``.  The accumulation replays
        :meth:`~repro.core.learned_model.LearnedCostModel.resource_profile`
        exactly — per accumulator, terms fold in ascending feature-column
        order — so every theta is bitwise identical to the scalar loop.
        """
        raw = self.raw_coef[model_idx]  # (k, d): one gather
        k = len(model_idx)
        theta_p = np.zeros(k, dtype=float)
        theta_c = np.zeros(k, dtype=float)
        theta_0 = self.raw_intercept[model_idx].copy()
        for j in self.inverse_p_columns:
            theta_p += raw[:, j] * at_one_rows[:, j]
        for j in self.partition_columns:
            theta_c += raw[:, j]
        for j in self.other_columns:
            theta_0 += raw[:, j] * at_one_rows[:, j]
        return theta_p, theta_c, theta_0


@dataclass(frozen=True)
class PackedModelBank:
    """Every kind's packed parameters plus signature coverage arrays.

    ``coverage[kind]`` always holds the sorted signatures of *all* models of
    the kind (the store's covering set); ``kinds[kind]`` is the packed
    parameter block, or ``None`` when the kind could not be packed (an
    unfitted or mis-shaped model) and must be served by the reference path.
    """

    coverage: dict[ModelKind, np.ndarray]
    kinds: dict[ModelKind, "PackedKindModels | None"]
    #: The largest packed kind's model count (the ledger's row width).
    max_models: int

    def answered_ledger(self) -> np.ndarray:
        """An all-False ``(kind, parameter row)`` scratch for call accounting.

        A pricing pass marks ``ledger[k, model_idx] = True`` for the rows of
        each packed kind that answered and reads the number of distinct
        models once, with ``np.count_nonzero`` — the serving layer's
        vectorized-call count for the whole batch.
        """
        return np.zeros((len(self.kinds), self.max_models), dtype=bool)

    @classmethod
    def compile(cls, store: ModelStore) -> "PackedModelBank":
        """Extract every model's parameters into contiguous arrays."""
        coverage: dict[ModelKind, np.ndarray] = {}
        kinds: dict[ModelKind, PackedKindModels | None] = {}
        for kind in ModelKind:
            by_sig = store.models[kind]
            signatures = np.sort(
                np.fromiter(by_sig.keys(), dtype=np.uint64, count=len(by_sig))
            )
            coverage[kind] = signatures
            width = len(feature_names(kind.uses_context_features))
            models = [by_sig[int(s)] for s in signatures]
            if any(
                not m.is_fitted or m.include_context != kind.uses_context_features
                for m in models
            ):
                kinds[kind] = None  # served by the object-graph reference path
                continue
            params = [m.packed_parameters() for m in models]
            m = len(models)
            fused = np.empty((m, 3, width), dtype=float)
            for g, (mean, scale, coef, _, _) in enumerate(params):
                fused[g, 0] = mean
                fused[g, 1] = scale
                fused[g, 2] = coef
            intercept = np.array([p[3] for p in params], dtype=float)
            y_scale = np.array([p[4] for p in params], dtype=float)
            # Raw-space parameters, replaying ElasticNetMSLE.coefficients_raw
            # op for op (divide then rescale; inner multiply-divide-sum) so
            # batched resource profiles match the scalar reads bitwise.  The
            # axis-1 sum over a (m, d) product uses the same pairwise
            # reduction as each model's own length-d sum.
            raw_coef = fused[:, 2, :] / fused[:, 1, :] * y_scale[:, None]
            raw_intercept = (
                intercept - (fused[:, 2, :] * fused[:, 0, :] / fused[:, 1, :]).sum(axis=1)
            ) * y_scale
            names = feature_names(kind.uses_context_features)
            kinds[kind] = PackedKindModels(
                kind=kind,
                signatures=signatures,
                fused=fused,
                intercept=intercept,
                y_scale=y_scale,
                width=width,
                raw_coef=raw_coef,
                raw_intercept=raw_intercept,
                inverse_p_columns=tuple(
                    j for j, name in enumerate(names) if name in INVERSE_P_FEATURES
                ),
                partition_columns=tuple(
                    j for j, name in enumerate(names) if name == "P"
                ),
                other_columns=tuple(
                    j
                    for j, name in enumerate(names)
                    if name not in INVERSE_P_FEATURES and name != "P"
                ),
            )
        max_models = max((len(p) for p in kinds.values() if p is not None), default=0)
        return cls(coverage=coverage, kinds=kinds, max_models=max_models)

    def covered(self, kind: ModelKind, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coverage ``(mask, position)`` for a signature column of ``kind``.

        Works for unpacked kinds too — coverage only needs the signature
        array, not the parameters.
        """
        return match_sorted(self.coverage[kind], column)


def predict_most_specific(
    store: ModelStore,
    table: "FeatureTable",
    fallback_cost: float,
    full_matrix: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Fallback-chain predictions for every table row, via the packed bank.

    Each row is priced by its most specific covering individual model
    (:data:`~repro.core.config.SPECIFICITY_ORDER`), or ``fallback_cost``
    when nothing covers it — bitwise identical to the scalar
    ``store.most_specific(bundle) -> predict_one(features)`` chain, but each
    row is priced exactly once with gathered packed parameters.

    Returns ``(values, n_model_groups, n_fallbacks)`` where
    ``n_model_groups`` counts the distinct ``(kind, signature)`` models that
    answered (the serving layer's ``individual_model_calls`` accounting) and
    ``n_fallbacks`` the rows served the global fallback — each weighing
    ``weights[i]`` when given (how many requests a deduplicated row answers).
    """
    bank = store.packed_bank()
    n = len(table)
    if full_matrix is None:
        full_matrix = table.feature_matrix(include_context=True)
    values = np.full(n, float(fallback_cost), dtype=float)
    remaining = np.ones(n, dtype=bool)
    n_groups = 0
    answered = bank.answered_ledger()
    for k, kind in enumerate(SPECIFICITY_ORDER):
        if not remaining.any():
            break
        if bank.coverage[kind].size == 0:
            continue
        column = table.signature_column(SIGNATURE_FIELDS[kind])
        mask, position = bank.covered(kind, column)
        mask &= remaining
        if not mask.any():
            continue
        idx = np.flatnonzero(mask)
        packed = bank.kinds[kind]
        if packed is not None:
            model_idx = position[idx]
            values[idx] = packed.predict_rows(full_matrix[idx, : packed.width], model_idx)
            answered[k, model_idx] = True
        else:
            # Reference pricing for an unpackable kind: grouped object-graph
            # calls (an unfitted model raises here, as the scalar path would).
            width = len(feature_names(kind.uses_context_features))
            sigs = column[idx]
            order = np.argsort(sigs, kind="stable")
            ordered = idx[order]
            uniques, starts, counts = np.unique(
                sigs[order], return_index=True, return_counts=True
            )
            for signature, start, count in zip(uniques, starts, counts):
                rows = ordered[start : start + count]
                model = store.get(kind, int(signature))
                assert model is not None
                values[rows] = model.predict_matrix(full_matrix[rows, :width])
                n_groups += 1
        remaining[idx] = False
    n_groups += int(np.count_nonzero(answered))
    n_fallbacks = remaining if weights is None else weights[remaining]
    return values, n_groups, int(n_fallbacks.sum())


def resource_profiles_most_specific(
    store: ModelStore, table: "FeatureTable"
) -> tuple[list[ResourceProfile | None], int]:
    """Batched Section-5.3 resource profiles via the packed bank.

    For every table row, the most specific covering individual model's
    ``(theta_p, theta_c, theta_0)`` — or ``None`` where nothing covers it —
    bitwise identical to the object-graph ``store.most_specific(bundle) ->
    model.resource_profile(features)`` chain, but with the raw-space
    coefficient reads vectorized over all rows of a kind.

    Returns ``(profiles, n_covered)``; callers charge ``n_covered`` rows of
    lookup accounting (five lookups per *covered* profile and none for
    uncovered operators).
    """
    bank = store.packed_bank()
    n = len(table)
    profiles: list[ResourceProfile | None] = [None] * n
    if n == 0:
        return profiles, 0
    # Every theta read evaluates the features at P=1 (the object-graph
    # path's `with_partition_count(1.0)`); feature_vector is a 1-row
    # expand_columns, so these matrix rows are bitwise identical to its
    # vectors.
    at_one = table.with_partition_count(np.ones(n, dtype=float))
    full_matrix = at_one.feature_matrix(include_context=True)
    remaining = np.ones(n, dtype=bool)
    n_covered = 0
    for kind in SPECIFICITY_ORDER:
        if not remaining.any():
            break
        if bank.coverage[kind].size == 0:
            continue
        column = table.signature_column(SIGNATURE_FIELDS[kind])
        mask, position = bank.covered(kind, column)
        mask &= remaining
        if not mask.any():
            continue
        idx = np.flatnonzero(mask)
        packed = bank.kinds[kind]
        if packed is not None:
            theta_p, theta_c, theta_0 = packed.resource_rows(
                full_matrix[idx, : packed.width], position[idx]
            )
            for r, row in enumerate(idx):
                profiles[row] = ResourceProfile(
                    theta_p=float(theta_p[r]),
                    theta_c=float(theta_c[r]),
                    theta_0=float(theta_0[r]),
                )
        else:
            # Unpackable kind: per-row object-graph reads (an unfitted model
            # raises here, exactly like the object-graph chain).
            for row in idx:
                model = store.get(kind, int(column[row]))
                assert model is not None
                profiles[row] = model.resource_profile(table.input_at(row))
        n_covered += len(idx)
        remaining[idx] = False
    return profiles, n_covered
