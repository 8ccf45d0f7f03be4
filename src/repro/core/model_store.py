"""Model store: the signature-keyed hash map loaded by the optimizer.

"All models relevant for a cluster are loaded upfront by the optimizer, into
a hash map with keys as signatures of models, to avoid expensive lookup calls
during optimization" (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import ModelNotTrainedError, ValidationError
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.learned_model import LearnedCostModel
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


def signature_for(kind: ModelKind, bundle: SignatureBundle) -> int:
    """The bundle component that keys models of ``kind``."""
    return getattr(bundle, SIGNATURE_FIELDS[kind])


@dataclass
class ModelStore:
    """All trained individual models for one cluster.

    The store tracks a mutation ``version`` so derived artifacts — the
    packed inference bank and the memory-footprint total — can be cached
    lazily and recompiled only when :meth:`add`/:meth:`remove` actually
    changed the model set.
    """

    models: dict[ModelKind, dict[int, LearnedCostModel]] = field(
        default_factory=lambda: {kind: {} for kind in ModelKind}
    )
    #: Bumped on every add/remove; consumers key caches on it.  Excluded
    #: from equality: stores with the same models are the same store.
    version: int = field(default=0, repr=False, compare=False)
    _packed: "PackedModelBank | None" = field(default=None, repr=False, compare=False)
    _packed_version: int = field(default=-1, repr=False, compare=False)
    _memory_bytes: int | None = field(default=None, repr=False, compare=False)

    def add(self, kind: ModelKind, signature: int, model: LearnedCostModel) -> None:
        """Hold ``model`` as ``kind``'s model for ``signature``.

        Only a model the packed bank can price is held: an unfitted one is
        a :class:`~repro.common.errors.ModelNotTrainedError` and one whose
        feature layout is not its kind's a
        :class:`~repro.common.errors.ValidationError`.  A refused model
        leaves the store and its ``version`` as they were.
        """
        if not model.is_fitted:
            raise ModelNotTrainedError(f"cannot hold an unfitted {kind.value} model")
        if model.include_context != kind.uses_context_features:
            width = len(feature_names(kind.uses_context_features))
            raise ValidationError(f"a {kind.value} model must be {width} features wide")
        self.models[kind][signature] = model
        self._invalidate()

    def remove(self, kind: ModelKind, signature: int) -> bool:
        """Drop one model (quarantine path); derived caches recompile.

        Removing a signature that was never added — or was already removed
        — is an idempotent no-op returning ``False``: replaying a persisted
        quarantine ledger over a freshly loaded store must never raise,
        and a no-op removal leaves the compiled bank valid.
        """
        if signature not in self.models[kind]:
            return False
        del self.models[kind][signature]
        self._invalidate()
        return True

    def _invalidate(self) -> None:
        self.version += 1
        self._memory_bytes = None

    def packed_bank(self) -> "PackedModelBank":
        """The packed inference bank, compiled lazily and version-checked.

        Recompiles automatically after any :meth:`add`/:meth:`remove`, so a
        feedback-loop retrain or a quarantine sweep can never serve stale
        coefficients.
        """
        if self._packed is None or self._packed_version != self.version:
            from repro.core.packed import PackedModelBank  # deferred: cycle

            self._packed = PackedModelBank.compile(self)
            self._packed_version = self.version
        return self._packed

    def get(self, kind: ModelKind, signature: int) -> LearnedCostModel | None:
        return self.models[kind].get(signature)

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
            return len(self.models[kind])
        return sum(len(by_sig) for by_sig in self.models.values())

    def covers(self, kind: ModelKind, bundle: SignatureBundle) -> bool:
        return self.lookup(kind, bundle) is not None

    @property
    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of all loaded models.

        Cached (the serving layer's ``describe``/stats hit this per call)
        and recomputed only after :meth:`add`/:meth:`remove`.
        """
        if self._memory_bytes is None:
            self._memory_bytes = sum(
                model.memory_bytes
                for by_sig in self.models.values()
                for model in by_sig.values()
            )
        return self._memory_bytes

    def describe(self) -> str:
        parts = [f"{kind.value}: {len(by_sig)}" for kind, by_sig in self.models.items()]
        return f"ModelStore({', '.join(parts)})"
