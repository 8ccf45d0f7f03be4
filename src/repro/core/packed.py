"""Packed inference runtime: the model bank compiled into one tier index.

The paper's serving story is that "all models relevant for a cluster are
loaded upfront by the optimizer, into a hash map" and consulted millions of
times per optimization pass (Section 5.1), five learned lookups per costed
operator (Section 6.5), and the combined model reads all four individual
predictions of every row.  The object graph behind that hash map — one
:class:`~repro.core.learned_model.LearnedCostModel` per ``(kind,
signature)``, each wrapping its own scaler and elastic net — prices a batch
with one tiny vectorized call *per covering group*, which leaves the hot
path dominated by Python/numpy dispatch.

This module compiles that object graph **once** into a **tier index**:

* ``union``, the sorted set of every signature any kind holds, and a
  ``(len(union), 4)`` slot matrix giving each kind's global parameter row
  for it (or :data:`NOT_COVERED` / :data:`UNPACKED`), so a table's ``(n, 4)``
  signature block resolves against all four kinds in ONE
  ``np.searchsorted``;
* one parameter block shared by all kinds — scaler mean and scale,
  standardized coefficients, intercept, target scale, and the raw-space
  coefficients and intercept of Section 5.3 — one column per model, so
  every covered ``(row, kind)`` pair is priced in one pass (a gather of the
  rows, of each parameter plane and of the scalars, then one row
  multiply-sum), bitwise identical to routing the row through its model's
  ``predict_matrix``.

The block is as wide as the context layout (31 features).  The op-subgraph
kind's models are 29 wide; their two trailing terms are written as ``-0.0``
after the multiply.  Adding ``-0.0`` changes no value, and 29 and 31 share
numpy's 8-wide pairwise-sum blocks, so the pads land in the sequential tail
and each row sums exactly as its own model's length-29 reduction does.

Compilation is **lazy** and owned by :meth:`~repro.core.model_store.
ModelStore.packed_bank`: the store bumps a version counter on every
``add``/``remove`` and the bank recompiles on next use, so serving never
reads stale coefficients.  A kind containing an unfitted model is left
unpacked (:data:`UNPACKED` slots) and served, in its place in specificity
order, by the retained object-graph reference path (which raises on actual
use of the unfitted model, exactly like the object-graph chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.learned_model import (
    _MAX_PREDICT_SECONDS,
    LearnedCostModel,
    ParameterColumns,
    ResourceProfile,
)
from repro.core.model_store import SIGNATURE_FIELDS, ModelStore
from repro.features.featurizer import INVERSE_P_FEATURES, feature_names
from repro.features.table import SIGNATURE_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.features.table import FeatureTable

# A table's signature columns are the tiers, most specific first.
assert tuple(SIGNATURE_FIELDS[kind] for kind in SPECIFICITY_ORDER) == SIGNATURE_NAMES

#: Slot values: the kind holds no model for the signature / holds one the
#: bank could not pack (served by the object-graph reference path).
NOT_COVERED = -1
UNPACKED = -2

_NAMES = feature_names(include_context=True)
_W = len(_NAMES)  # the block's width: the context layout
#: The op-subgraph kind's width; its columns are a prefix of the block's.
_NARROW = len(feature_names(include_context=False))
#: The parameter block's per-feature planes and per-model scalars.
_MEAN, _SCALE, _COEF, _RAW = range(4)
_INTERCEPT, _Y_SCALE, _RAW_INTERCEPT = range(3)
#: Theta accumulators' feature columns, ascending: the 1/P family
#: (theta_p), the bare "P" (theta_c), everything else (theta_0).
_INVERSE_P = [j for j, name in enumerate(_NAMES) if name in INVERSE_P_FEATURES]
_PARTITION = [j for j, name in enumerate(_NAMES) if name == "P"]
_OTHER = [j for j, name in enumerate(_NAMES) if name not in INVERSE_P_FEATURES and name != "P"]
#: (row, kind) pairs priced per pass, at least: a larger table's pass takes
#: as many pairs as the table has rows, so its scratch (rows and one
#: parameter plane) is smaller than one kind's parameter gather over the
#: whole table.
_MIN_BLOCK = 256
_TIERS = np.arange(len(SPECIFICITY_ORDER))


@dataclass(frozen=True)
class PackedModelBank:
    """The tier index: every kind's signatures and parameters in one place.

    ``kinds[kind]`` (in specificity order) is the kind's range of global
    parameter rows, or ``None`` when the kind could not be packed (an
    unfitted or mis-shaped model) and must be served by the reference
    path.  The op-subgraph kind owns the first rows, so a row below
    ``narrow`` is a 29-wide model.
    """

    #: (u,) every signature's bits read as int64 (a cheaper search than
    #: uint64; any total order serves), sorted, ending in the largest int64
    #: so that every signature's insertion point is a valid index.
    union: np.ndarray
    slots: np.ndarray  # (u, 4) int64 global parameter rows, tiers in order
    #: (4, m, 31) mean / scale / coef / raw-coef planes (each pricing
    #: operand contiguous after a gather) and (3, m) intercept / y_scale /
    #: raw-intercept scalars: model ``g``'s parameters are column ``g``.
    planes: np.ndarray
    scalars: np.ndarray
    kinds: dict[ModelKind, "range | None"]
    narrow: int

    @classmethod
    def compile(cls, store: ModelStore) -> "PackedModelBank":
        """Index every model's signature and extract its parameters."""
        by_tier = [
            np.fromiter(store.models[kind], np.uint64, len(store.models[kind])).view(np.int64)
            for kind in SPECIFICITY_ORDER
        ]
        union = np.sort(np.concatenate([*by_tier, [np.iinfo(np.int64).max]]))
        union = union[np.append(True, union[1:] != union[:-1])]  # distinct
        slots = np.full((len(union), len(SPECIFICITY_ORDER)), NOT_COVERED, dtype=np.int64)
        planes, scalars = [np.empty((4, 0, _W))], [np.empty((3, 0))]
        kinds: dict[ModelKind, range | None] = {}
        start = 0
        for k, (kind, signatures) in enumerate(zip(SPECIFICITY_ORDER, by_tier)):
            at = union.searchsorted(signatures)
            models = list(store.models[kind].values())
            if any(
                not m.is_fitted or m.include_context != kind.uses_context_features
                for m in models
            ):
                kinds[kind] = None  # served by the object-graph reference path
                slots[at, k] = UNPACKED
                continue
            kinds[kind] = range(start, start + len(models))
            slots[at, k] = kinds[kind]
            start += len(models)
            kind_planes, kind_scalars = _kind_block(
                models, len(feature_names(kind.uses_context_features))
            )
            planes.append(kind_planes)
            scalars.append(kind_scalars)
        return cls(
            union=union,
            slots=slots,
            planes=np.concatenate(planes, axis=1),
            scalars=np.concatenate(scalars, axis=1),
            kinds=kinds,
            narrow=len(kinds[SPECIFICITY_ORDER[0]] or ()),
        )

    def resolve(self, signatures: np.ndarray) -> np.ndarray:
        """Every row's slot in every tier, from its ``(n, 4)`` signatures:
        one ``searchsorted`` against the union."""
        signatures = signatures.view(np.int64)
        at = self.union.searchsorted(signatures)
        slot = self.slots[at, _TIERS]
        slot[self.union[at] != signatures] = NOT_COVERED
        return slot

    def most_specific(self, signatures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, tier)`` of every row's first covering tier in
        :data:`SPECIFICITY_ORDER`; ``slot`` is :data:`NOT_COVERED` where no
        tier covers the row."""
        slot = self.resolve(signatures)
        tier = (slot != NOT_COVERED).argmax(axis=1)
        return slot[np.arange(len(slot)), tier], tier

    def price(self, matrix: np.ndarray, rows: np.ndarray, models: np.ndarray) -> np.ndarray:
        """Price ``matrix[rows[i]]`` through the model in parameter row
        ``models[i]``.

        Replays :meth:`~repro.ml.proximal.ElasticNetMSLE.predict` op for op
        — standardize, multiply by the coefficients, row pairwise-sum
        (length 31, the narrow kind's pads ``-0.0``), intercept, target
        rescale, clamp — so mixed-model batches price bitwise identically
        to per-model calls.  Blocks of ``len(matrix)`` pairs (at least
        :data:`_MIN_BLOCK`) gather the rows, then each parameter plane in
        turn, into one two-slot scratch array (``mode="clip"`` lets ``take``
        write into it directly; every index is valid).
        """
        block = max(len(matrix), _MIN_BLOCK)
        out = np.empty(len(models), dtype=float)
        scratch = np.empty((2, min(len(models), block), _W), dtype=float)
        for lo in range(0, len(models), block):
            g = models[lo : lo + block]
            buf, param = scratch[:, : len(g)]
            matrix.take(rows[lo : lo + block], axis=0, out=buf, mode="clip")
            for plane, op in ((_MEAN, np.subtract), (_SCALE, np.divide), (_COEF, np.multiply)):
                self.planes[plane].take(g, axis=0, out=param, mode="clip")
                op(buf, param, out=buf)
            intercept, y_scale = self.scalars[:_RAW_INTERCEPT].take(g, axis=1)
            buf[g < self.narrow, _NARROW:] = -0.0
            out[lo : lo + block] = (np.add.reduce(buf, axis=1) + intercept) * y_scale
        np.maximum(out, 0.0, out=out)
        return np.minimum(out, _MAX_PREDICT_SECONDS, out=out)

    def thetas(
        self, at_one: np.ndarray, models: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(theta_p, theta_c, theta_0)`` per row, from the raw-space fit.

        ``at_one`` holds the rows' feature vectors evaluated at P=1; row
        ``i`` reads parameter row ``models[i]``.  Each accumulator folds its
        terms in ascending feature-column order, replaying
        :meth:`~repro.core.learned_model.LearnedCostModel.resource_profile`
        bit for bit (the narrow kind's two pad terms are ``-0.0``).
        """
        raw = self.planes[_RAW][models]
        terms = raw * at_one
        terms[models < self.narrow, _NARROW:] = -0.0
        theta_p = np.zeros(len(models), dtype=float)
        theta_c = np.zeros(len(models), dtype=float)
        theta_0 = self.scalars[_RAW_INTERCEPT][models]
        for j in _INVERSE_P:
            theta_p += terms[:, j]
        for j in _PARTITION:
            theta_c += raw[:, j]
        for j in _OTHER:
            theta_0 += terms[:, j]
        return theta_p, theta_c, theta_0

    def answered(self, models: np.ndarray) -> int:
        """How many distinct models ``models`` names: one ledger over the
        global parameter rows (the serving layer's call accounting)."""
        ledger = np.zeros(self.scalars.shape[1], dtype=bool)
        ledger[models] = True
        return int(np.count_nonzero(ledger))


def _kind_block(
    models: list[LearnedCostModel], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """One kind's ``(planes, scalars)`` columns of the parameter block: its
    :class:`~repro.core.learned_model.ParameterColumns` (the layout the
    model file writes) widened to the block, the pads mean 0, scale 1 and
    coefficient 0 (pricing overwrites their terms)."""
    columns = ParameterColumns.of(models, width)
    planes = np.zeros((4, len(models), _W), dtype=float)
    planes[_SCALE] = 1.0
    planes[_MEAN, :, :width] = columns.mean
    planes[_SCALE, :, :width] = columns.scale
    planes[_COEF, :, :width] = columns.coef
    scalars = np.empty((3, len(models)), dtype=float)
    scalars[_INTERCEPT] = columns.intercept
    scalars[_Y_SCALE] = columns.y_scale
    mean, scale, coef = planes[:_RAW, :, :width]
    y_scale = scalars[_Y_SCALE]
    # Raw-space parameters, replaying ElasticNetMSLE.coefficients_raw op for
    # op at the kind's own width (divide then rescale; inner
    # multiply-divide-sum), so batched resource profiles match the scalar
    # reads bitwise.
    planes[_RAW, :, :width] = coef / scale * y_scale[:, None]
    scalars[_RAW_INTERCEPT] = (
        scalars[_INTERCEPT] - (coef * mean / scale).sum(axis=1)
    ) * y_scale
    return planes, scalars


def _unpacked_groups(
    store: ModelStore, table: "FeatureTable", rows: np.ndarray, tier: np.ndarray
) -> Iterator[tuple[ModelKind, LearnedCostModel, np.ndarray]]:
    """``(kind, model, rows)`` per covering model of the given rows, each
    served by tier ``tier[row]`` of an unpacked kind (an unfitted model
    raises on use, as the object-graph chain would)."""
    for k in sorted(set(tier[rows].tolist())):
        kind = SPECIFICITY_ORDER[k]
        in_kind = rows[tier[rows] == k]
        column = table.signatures[in_kind, k]
        for signature in sorted(set(column.tolist())):
            model = store.get(kind, signature)
            assert model is not None
            yield kind, model, in_kind[column == signature]


def predict_most_specific(
    store: ModelStore,
    table: "FeatureTable",
    fallback_cost: float,
    full_matrix: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Fallback-chain predictions for every table row, via the tier index.

    Each row is priced by its most specific covering individual model
    (:data:`~repro.core.config.SPECIFICITY_ORDER`), or ``fallback_cost``
    when nothing covers it — bitwise identical to the scalar
    ``store.most_specific(bundle) -> predict_one(features)`` chain, but each
    row is resolved and priced exactly once.

    Returns ``(values, n_model_groups, n_fallbacks)`` where
    ``n_model_groups`` counts the distinct ``(kind, signature)`` models that
    answered (the serving layer's ``individual_model_calls`` accounting) and
    ``n_fallbacks`` the rows served the global fallback — each weighing
    ``weights[i]`` when given (how many requests a deduplicated row answers).
    """
    bank = store.packed_bank()
    if full_matrix is None:
        full_matrix = table.feature_matrix(include_context=True)
    slot, tier = bank.most_specific(table.signatures)
    values = np.full(len(table), float(fallback_cost), dtype=float)
    rows = np.flatnonzero(slot >= 0)
    models = slot[rows]
    values[rows] = bank.price(full_matrix, rows, models)
    n_groups = bank.answered(models)
    unpacked = np.flatnonzero(slot == UNPACKED)
    for kind, model, group in _unpacked_groups(store, table, unpacked, tier):
        width = len(feature_names(kind.uses_context_features))
        values[group] = model.predict_matrix(full_matrix[group, :width])
        n_groups += 1
    fallbacks = slot == NOT_COVERED
    n_fallbacks = fallbacks if weights is None else weights[fallbacks]
    return values, n_groups, int(n_fallbacks.sum())


def resource_profiles_most_specific(
    store: ModelStore, table: "FeatureTable"
) -> tuple[list[ResourceProfile | None], int]:
    """Batched Section-5.3 resource profiles via the tier index.

    For every table row, the most specific covering individual model's
    ``(theta_p, theta_c, theta_0)`` — or ``None`` where nothing covers it —
    bitwise identical to the object-graph ``store.most_specific(bundle) ->
    model.resource_profile(features)`` chain, with the raw-space
    coefficient reads vectorized over all rows at once.

    Returns ``(profiles, n_covered)``; callers charge ``n_covered`` rows of
    lookup accounting (five lookups per *covered* profile and none for
    uncovered operators).
    """
    bank = store.packed_bank()
    n = len(table)
    profiles: list[ResourceProfile | None] = [None] * n
    slot, tier = bank.most_specific(table.signatures)
    rows = np.flatnonzero(slot >= 0)
    if len(rows):
        # Every theta read evaluates the features at P=1 (the object-graph
        # path's `with_partition_count(1.0)`); feature_vector is a 1-row
        # expand_columns, so these matrix rows are bitwise identical to its
        # vectors.
        at_one = table.with_partition_count(np.ones(n)).feature_matrix(include_context=True)
        thetas = bank.thetas(at_one[rows], slot[rows])
        for row, theta_p, theta_c, theta_0 in zip(rows.tolist(), *(t.tolist() for t in thetas)):
            profiles[row] = ResourceProfile(theta_p=theta_p, theta_c=theta_c, theta_0=theta_0)
    for _, model, group in _unpacked_groups(store, table, np.flatnonzero(slot == UNPACKED), tier):
        for row in group.tolist():
            profiles[row] = model.resource_profile(table.input_at(row))
    return profiles, int(np.count_nonzero(slot != NOT_COVERED))
