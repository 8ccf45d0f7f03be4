"""Model store: the signature-keyed hash map loaded by the optimizer.

"All models relevant for a cluster are loaded upfront by the optimizer, into
a hash map with keys as signatures of models, to avoid expensive lookup calls
during optimization" (Section 5.1).

The store holds no model object: every individual model is one row of one
:class:`ParameterBlock`, in which each kind owns a contiguous run of rows
and its own signature array.  The trainer fits a kind's rows as columns, a
model file decodes into them and is written from them, and the packed bank
(:mod:`repro.core.packed`) is the union index over the block.
:meth:`ModelStore.get`, ``lookup`` and ``most_specific`` build a
:class:`~repro.core.learned_model.LearnedCostModel` view (row views of the
block) on demand, for tests, :mod:`repro.reference` and experiments.

:meth:`ModelStore.add` and :meth:`ModelStore.remove` are staged and the
next read folds them into a new block in one pass, so a store built, or
thinned, one model at a time costs linear time, and a block once read is
never written: a bank compiled over it stays valid.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.common.errors import ModelNotTrainedError, ValidationError
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.learned_model import LearnedCostModel, ParameterColumns
from repro.features.featurizer import feature_names
from repro.plan.signatures import SignatureBundle

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.core.packed import PackedModelBank


#: The SignatureBundle / FeatureTable signature column that keys each kind.
SIGNATURE_FIELDS: dict[ModelKind, str] = {
    ModelKind.OP_SUBGRAPH: "strict",
    ModelKind.OP_SUBGRAPH_APPROX: "approx",
    ModelKind.OP_INPUT: "input",
    ModelKind.OPERATOR: "operator",
}

#: The block's width: the context layout's.
WIDTH = len(feature_names(include_context=True))
#: Each kind's own width; its columns are a prefix of the block's.
KIND_WIDTH = {kind: len(feature_names(kind.uses_context_features)) for kind in ModelKind}
#: The block's per-feature planes and per-model scalars.
MEAN, SCALE, COEF, RAW = range(4)
INTERCEPT, Y_SCALE, RAW_INTERCEPT = range(3)
#: A staged model: its :class:`ParameterColumns` row, field by field.
_FIELDS = ("signatures", "mean", "scale", "coef", "intercept", "y_scale", "n_samples")


def signature_for(kind: ModelKind, bundle: SignatureBundle) -> int:
    """The bundle component that keys models of ``kind``."""
    return getattr(bundle, SIGNATURE_FIELDS[kind])


@dataclass(frozen=True, eq=False)
class ParameterBlock:
    """Every individual model's parameters, one row per model.

    Kind ``SPECIFICITY_ORDER[k]`` owns rows ``bounds[k] : bounds[k + 1]``,
    in the order of ``signatures[k]``, so the op-subgraph kind's 29-wide
    models come first.  A row's columns beyond its kind's width hold mean
    0, scale 1 and coefficients 0 (pricing overwrites their terms).
    """

    signatures: tuple[np.ndarray, ...]  # per kind: (count,) uint64
    nonneg: tuple[tuple[int, ...], ...]  # per kind: its non-negative features
    #: (4, m, WIDTH) mean / scale / coef / raw-coef planes, (3, m)
    #: intercept / y_scale / raw-intercept scalars and (m,) training rows.
    planes: np.ndarray
    scalars: np.ndarray
    n_samples: np.ndarray
    bounds: tuple[int, ...]

    @classmethod
    def build(cls, by_kind: Mapping[ModelKind, ParameterColumns]) -> "ParameterBlock":
        """Widen each kind's columns (none for a kind not given) into one
        block, and derive the raw-space parameters."""
        empty = ParameterColumns.empty
        kinds = [by_kind.get(kind) or empty(KIND_WIDTH[kind]) for kind in SPECIFICITY_ORDER]
        bounds = tuple(itertools.accumulate((len(c.signatures) for c in kinds), initial=0))
        planes = np.zeros((4, bounds[-1], WIDTH), dtype=float)
        planes[SCALE] = 1.0
        scalars = np.empty((3, bounds[-1]), dtype=float)
        n_samples = np.empty(bounds[-1], dtype=np.int64)
        for kind, columns, lo, hi in zip(SPECIFICITY_ORDER, kinds, bounds, bounds[1:]):
            mean, scale, coef, raw = planes[:, lo:hi, : KIND_WIDTH[kind]]
            intercept, y_scale, raw_intercept = scalars[:, lo:hi]
            mean[...], scale[...], coef[...] = columns.mean, columns.scale, columns.coef
            intercept[...], y_scale[...] = columns.intercept, columns.y_scale
            n_samples[lo:hi] = columns.n_samples
            # Raw-space parameters, replaying ElasticNetMSLE.coefficients_raw
            # op for op at the kind's own width (divide then rescale; inner
            # multiply-divide-sum), so batched resource profiles match the
            # scalar reads bitwise.
            raw[...] = coef / scale * y_scale[:, None]
            raw_intercept[...] = (intercept - (coef * mean / scale).sum(axis=1)) * y_scale
        signatures = tuple(np.asarray(c.signatures, dtype=np.uint64) for c in kinds)
        nonneg = tuple(tuple(c.nonneg_indices) if len(c.signatures) else () for c in kinds)
        return cls(signatures, nonneg, planes, scalars, n_samples, bounds)

    def columns(self, kind: ModelKind) -> ParameterColumns:
        """``kind``'s run of rows at its own width (views, not copies)."""
        k = SPECIFICITY_ORDER.index(kind)
        rows, width = slice(self.bounds[k], self.bounds[k + 1]), KIND_WIDTH[kind]
        mean, scale, coef = self.planes[:RAW, rows, :width]
        intercept, y_scale = self.scalars[:RAW_INTERCEPT, rows]
        signatures, nonneg = self.signatures[k], self.nonneg[k]
        return ParameterColumns(
            signatures, nonneg, mean, scale, coef, intercept, y_scale, self.n_samples[rows]
        )


class ModelStore:
    """All trained individual models for one cluster, as one parameter block.

    The store tracks a mutation ``version`` so derived artifacts — the
    packed inference bank and the serving layer's caches — are rebuilt
    only when :meth:`add`/:meth:`remove` actually changed the model set.
    """

    def __init__(self, block: ParameterBlock | None = None) -> None:
        #: Bumped on every add/remove; consumers key caches on it.
        self.version = 0
        # Router workers share a store, so an edit and the read that folds
        # edits in must not interleave.  Reentrant: a compile reads the block.
        self._lock = threading.RLock()
        self._hold(block or ParameterBlock.build({}))

    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items() if name != "_lock"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, _lock=threading.RLock())

    def _hold(self, block: ParameterBlock) -> None:
        """Make ``block`` the store's block, with no edit staged."""
        with self._lock:
            self._block = block
            # Staged, per kind: models by signature (replacing a held row
            # where it stands, else appended) and the block's rows to drop.
            self._staged: dict[ModelKind, dict[int, tuple]] = {kind: {} for kind in ModelKind}
            self._dropped: dict[ModelKind, set[int]] = {kind: set() for kind in ModelKind}
            self._nonneg = dict(zip(SPECIFICITY_ORDER, block.nonneg))
            #: Per kind, the block's signature -> local row, built on first use.
            self._rows: dict[ModelKind, dict[int, int]] = {}
            self._packed: "PackedModelBank | None" = None
            # Set last: a read that sees no staged edit sees this block.
            self._dirty = False

    # ------------------------------------------------------------------ #
    # Edits
    # ------------------------------------------------------------------ #

    def add(self, kind: ModelKind, signature: int, model: LearnedCostModel) -> None:
        """Hold ``model``'s parameters as ``kind``'s model for ``signature``.

        Only a model the packed bank can price is held: an unfitted one is
        a :class:`~repro.common.errors.ModelNotTrainedError`, and one whose
        feature layout is not its kind's, or whose non-negative features
        are not those of the kind's other models, a
        :class:`~repro.common.errors.ValidationError`.  A refused model
        leaves the store and its ``version`` as they were.  The parameters
        are copied: later changes to ``model`` do not reach the store.
        """
        if not model.is_fitted:
            raise ModelNotTrainedError(f"cannot hold an unfitted {kind.value} model")
        if model.include_context != kind.uses_context_features:
            raise ValidationError(f"a {kind.value} model must be {KIND_WIDTH[kind]} features wide")
        nonneg = tuple(model._net.nonneg_indices)
        *planes, intercept, y_scale = model._net.packed_parameters()
        staged = (
            int(signature),
            *(np.array(plane, dtype=float) for plane in planes),
            float(intercept),
            float(y_scale),
            int(model.n_samples),
        )
        with self._lock:
            k = SPECIFICITY_ORDER.index(kind)
            held = len(self._block.signatures[k]) > len(self._dropped[kind])
            if (held or self._staged[kind]) and nonneg != self._nonneg[kind]:
                expected = self._nonneg[kind]
                raise ValidationError(f"{kind.value} models are non-negative in {expected}")
            self._nonneg[kind] = nonneg
            self._staged[kind][int(signature)] = staged
            self._dirty = True
            self.version += 1

    def remove(self, kind: ModelKind, signature: int) -> bool:
        """Drop one model (quarantine path); derived caches recompile.

        Removing a signature that was never added — or was already removed
        — is an idempotent no-op returning ``False``: replaying a persisted
        quarantine ledger over a freshly loaded store must never raise,
        and a no-op removal leaves the compiled bank valid.
        """
        with self._lock:
            staged = self._staged[kind].pop(int(signature), None) is not None
            row = self._block_row(kind, signature)
            held = row is not None and row not in self._dropped[kind]
            if held:
                self._dropped[kind].add(row)
            if staged or held:
                self._dirty = True
                self.version += 1
            return staged or held

    def _block_row(self, kind: ModelKind, signature: int) -> int | None:
        """``signature``'s local row in ``kind``'s run of the block as it
        stands, staged edits not applied."""
        with self._lock:
            rows = self._rows.get(kind)
            if rows is None:
                signatures = self._block.columns(kind).signatures.tolist()
                rows = self._rows[kind] = dict(zip(signatures, range(len(signatures))))
            return rows.get(int(signature))

    def _settle(self) -> ParameterBlock:
        """Fold every staged edit into a new block, in one pass; the block."""
        if not self._dirty:
            return self._block
        with self._lock:
            if not self._dirty:
                return self._block
            kinds = {}
            for kind in SPECIFICITY_ORDER:
                old, staged = self._block.columns(kind), self._staged[kind]
                # Each kept row, or the staged model replacing it, then every
                # other staged model in the order it was added: rows of the
                # old column stacked over the staged ones.
                at = {signature: len(old.signatures) + j for j, signature in enumerate(staged)}
                take = [
                    at.pop(signature, i)
                    for i, signature in enumerate(old.signatures.tolist())
                    if i not in self._dropped[kind]
                ]
                take = np.array([*take, *at.values()], dtype=np.intp)
                fields = {}
                for i, name in enumerate(_FIELDS):
                    column = getattr(old, name)
                    added = np.array([model[i] for model in staged.values()], dtype=column.dtype)
                    stacked = np.concatenate([column, added.reshape(-1, *column.shape[1:])])
                    fields[name] = stacked[take]
                kinds[kind] = ParameterColumns(nonneg_indices=self._nonneg[kind], **fields)
            self._hold(ParameterBlock.build(kinds))
            return self._block

    # ------------------------------------------------------------------ #
    # Reads: each folds the staged edits in first
    # ------------------------------------------------------------------ #

    @property
    def block(self) -> ParameterBlock:
        """Every model's parameters (staged edits applied)."""
        return self._settle()

    def packed_bank(self) -> "PackedModelBank":
        """The packed inference bank: the union index over :attr:`block`,
        compiled lazily, and again after any :meth:`add`/:meth:`remove`, so
        a feedback-loop retrain or a quarantine sweep can never serve stale
        coefficients."""
        if not self._dirty:  # read first: then the bank is this block's
            bank = self._packed
            if bank is not None:
                return bank
        with self._lock:
            self._settle()
            if self._packed is None:
                from repro.core.packed import PackedModelBank  # deferred: cycle

                self._packed = PackedModelBank.compile(self)
            return self._packed

    def columns(self, kind: ModelKind) -> ParameterColumns:
        """``kind``'s models as columns, in store order (views)."""
        return self.block.columns(kind)

    def _find(self, kind: ModelKind, signature: int) -> tuple[ParameterColumns, int | None]:
        with self._lock:
            return self._settle().columns(kind), self._block_row(kind, signature)

    def get(self, kind: ModelKind, signature: int) -> LearnedCostModel | None:
        """A view of ``kind``'s model for ``signature``, built on demand."""
        columns, row = self._find(kind, signature)
        if row is None:
            return None
        return LearnedCostModel.view(columns, row, kind.uses_context_features)

    def lookup(self, kind: ModelKind, bundle: SignatureBundle) -> LearnedCostModel | None:
        return self.get(kind, signature_for(kind, bundle))

    def most_specific(
        self, bundle: SignatureBundle
    ) -> tuple[ModelKind, LearnedCostModel] | None:
        """The most specialized model covering this operator, if any."""
        for kind in SPECIFICITY_ORDER:
            model = self.lookup(kind, bundle)
            if model is not None:
                return kind, model
        return None

    def count(self, kind: ModelKind | None = None) -> int:
        if kind is not None:
            return len(self.columns(kind).signatures)
        return self.block.bounds[-1]

    def covers(self, kind: ModelKind, bundle: SignatureBundle) -> bool:
        """Whether ``kind`` holds a model for ``bundle`` (no view built)."""
        return self._find(kind, signature_for(kind, bundle))[1] is not None

    @property
    def memory_bytes(self) -> int:
        """The bytes of every model's parameters: the block and the bank's
        index over it."""
        with self._lock:
            bank, block = self.packed_bank(), self._block
        arrays = (block.planes, block.scalars, block.n_samples, *block.signatures)
        return sum(array.nbytes for array in (*arrays, bank.union, bank.slots))

    def describe(self) -> str:
        parts = [f"{kind.value}: {self.count(kind)}" for kind in ModelKind]
        return f"ModelStore({', '.join(parts)})"
