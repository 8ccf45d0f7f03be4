"""Packed inference runtime: the tier index over the model store's block.

The paper's serving story is that "all models relevant for a cluster are
loaded upfront by the optimizer, into a hash map" and consulted millions of
times per optimization pass (Section 5.1), five learned lookups per costed
operator (Section 6.5).  The store keeps every model as one row of one
parameter block (:class:`~repro.core.model_store.ParameterBlock`); this
module compiles the **tier index** over it and reads the block in place:

* ``union``, the sorted set of every signature any kind holds, and a
  ``(len(union), 4)`` slot matrix giving each kind's block row for it (or
  :data:`NOT_COVERED`), so a table's ``(n, 4)`` signature block resolves
  against all four kinds in ONE ``np.searchsorted``;
* every covered ``(row, kind)`` pair is then priced in one pass (a gather
  of the rows, of each parameter plane and of the scalars, then one row
  multiply-sum), bitwise identical to routing the row through its model's
  ``predict_matrix``.

The block is as wide as the context layout (31 features).  The op-subgraph
kind's models are 29 wide; their two trailing terms are written as ``-0.0``
after the multiply.  Adding ``-0.0`` changes no value, and 29 and 31 share
numpy's 8-wide pairwise-sum blocks, so the pads land in the sequential tail
and each row sums exactly as its own model's length-29 reduction does.

Compilation is **lazy** and owned by :meth:`~repro.core.model_store.
ModelStore.packed_bank`: after an ``add``/``remove`` the store's next read
leaves a new block and the bank is recompiled over it, so serving never
reads stale coefficients.  The object graph (:meth:`~repro.core.
learned_model.LearnedCostModel.predict_one` and ``resource_profile``, over
the store's on-demand views) is the per-row reference the tests hold this
module to; no product code prices through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import SPECIFICITY_ORDER
from repro.core.learned_model import _MAX_PREDICT_SECONDS, ResourceProfile
from repro.core.model_store import COEF, MEAN, RAW, RAW_INTERCEPT, SCALE, WIDTH
from repro.core.model_store import SIGNATURE_FIELDS, ModelStore
from repro.features.featurizer import INVERSE_P_FEATURES, feature_names
from repro.features.table import SIGNATURE_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.features.table import FeatureTable

# A table's signature columns are the tiers, most specific first.
assert tuple(SIGNATURE_FIELDS[kind] for kind in SPECIFICITY_ORDER) == SIGNATURE_NAMES

#: Slot value: the kind holds no model for the signature.
NOT_COVERED = -1

_NAMES = feature_names(include_context=True)
#: The op-subgraph kind's width; its columns are a prefix of the block's.
_NARROW = len(feature_names(include_context=False))
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
    """The tier index over a store's parameter block.

    Each kind owns a run of the block's rows, in specificity order: the
    op-subgraph kind owns the first ``narrow`` rows, so a row below
    ``narrow`` is a 29-wide model.
    """

    #: (u,) every signature's bits read as int64 (a cheaper search than
    #: uint64; any total order serves), sorted, ending in the largest int64
    #: so that every signature's insertion point is a valid index.
    union: np.ndarray
    slots: np.ndarray  # (u, 4) int64 global parameter rows, tiers in order
    planes: np.ndarray  # the block's, read in place
    scalars: np.ndarray
    narrow: int

    @classmethod
    def compile(cls, store: ModelStore) -> "PackedModelBank":
        """Index every kind's signatures over the store's parameter block
        (whose planes the bank reads in place)."""
        block = store.block
        by_tier = [signatures.view(np.int64) for signatures in block.signatures]
        union = np.sort(np.concatenate([*by_tier, [np.iinfo(np.int64).max]]))
        union = union[np.append(True, union[1:] != union[:-1])]  # distinct
        slots = np.full((len(union), len(SPECIFICITY_ORDER)), NOT_COVERED, dtype=np.int64)
        for k, signatures in enumerate(by_tier):
            slots[union.searchsorted(signatures), k] = np.arange(*block.bounds[k : k + 2])
        return cls(
            union=union,
            slots=slots,
            planes=block.planes,
            scalars=block.scalars,
            narrow=block.bounds[1],
        )

    def resolve(self, signatures: np.ndarray) -> np.ndarray:
        """Every row's slot in every tier, from its ``(n, 4)`` signatures:
        one ``searchsorted`` against the union."""
        signatures = signatures.view(np.int64)
        at = self.union.searchsorted(signatures)
        slot = self.slots[at, _TIERS]
        slot[self.union[at] != signatures] = NOT_COVERED
        return slot

    def most_specific(self, signatures: np.ndarray) -> np.ndarray:
        """Every row's slot in its first covering tier in
        :data:`SPECIFICITY_ORDER`, or :data:`NOT_COVERED` where no tier
        covers the row."""
        slot = self.resolve(signatures)
        return slot[np.arange(len(slot)), (slot != NOT_COVERED).argmax(axis=1)]

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
        scratch = np.empty((2, min(len(models), block), WIDTH), dtype=float)
        for lo in range(0, len(models), block):
            g = models[lo : lo + block]
            buf, param = scratch[:, : len(g)]
            matrix.take(rows[lo : lo + block], axis=0, out=buf, mode="clip")
            for plane, op in ((MEAN, np.subtract), (SCALE, np.divide), (COEF, np.multiply)):
                self.planes[plane].take(g, axis=0, out=param, mode="clip")
                op(buf, param, out=buf)
            intercept, y_scale = self.scalars[:RAW_INTERCEPT].take(g, axis=1)
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
        raw = self.planes[RAW][models]
        terms = raw * at_one
        terms[models < self.narrow, _NARROW:] = -0.0
        theta_p = np.zeros(len(models), dtype=float)
        theta_c = np.zeros(len(models), dtype=float)
        theta_0 = self.scalars[RAW_INTERCEPT][models]
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
    slot = bank.most_specific(table.signatures)
    values = np.full(len(table), float(fallback_cost), dtype=float)
    rows = np.flatnonzero(slot >= 0)
    models = slot[rows]
    values[rows] = bank.price(full_matrix, rows, models)
    fallbacks = slot == NOT_COVERED
    n_fallbacks = fallbacks if weights is None else weights[fallbacks]
    return values, bank.answered(models), int(n_fallbacks.sum())


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
    slot = bank.most_specific(table.signatures)
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
    return profiles, len(rows)
