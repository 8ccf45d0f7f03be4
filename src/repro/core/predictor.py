"""Cleo's model bank: the model store, the combined meta-model, the fallback.

The bank prices nothing itself.  Every price, one row or a million, is a
call into the serving tier's table core
(:meth:`~repro.serving.service.CleoService.predict_table` and the entry
points built on it), which walks the specificity chain this module
describes: the combined model is the primary predictor (it covers every
operator since the operator model always contributes a meta-feature); when
it is absent — e.g. when experimenting with individual models only — the
most specific covering individual model answers, and a trained global mean
is the final fallback, so pricing is total over any workload.
:func:`explain_cost` names the tier of that chain behind a price.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.combined import CombinedModel
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.model_store import ModelStore, signature_for
from repro.cost.interface import CostExplanation
from repro.execution.runtime_log import OperatorRecord
from repro.plan.signatures import SignatureBundle


@dataclass
class CleoPredictor:
    """Trained Cleo: the model store plus the combined meta-model."""

    store: ModelStore
    combined: CombinedModel | None = None
    fallback_cost: float = 1.0
    lookup_count: int = field(default=0, repr=False)

    #: Individual model kinds consulted per prediction (4) plus the combined
    #: model (1) — the paper's "each sample leads to five learned cost model
    #: predictions" accounting (Section 6.5).
    LOOKUPS_PER_PREDICTION = 5

    def coverage_fraction(self, kind: ModelKind, records: list[OperatorRecord]) -> float:
        """Fraction of records whose signature has a model of ``kind``."""
        if not records:
            return float("nan")
        covered = sum(1 for r in records if self.store.covers(kind, r.signatures))
        return covered / len(records)

    def reset_lookup_count(self) -> None:
        self.lookup_count = 0

    @property
    def model_count(self) -> int:
        return self.store.count()

    @property
    def memory_bytes(self) -> int:
        return self.store.memory_bytes


def explain_cost(
    predictor: CleoPredictor, signatures: SignatureBundle, cost: float
) -> CostExplanation:
    """Which tier of ``predictor``'s chain a ``cost`` came from, and why.

    The one explanation rule: the serving tier that priced the row passes
    its answer in, so an explanation never re-prices anything.
    """
    kind = next(
        (kind for kind in SPECIFICITY_ORDER if predictor.store.covers(kind, signatures)), None
    )
    signature = signature_for(kind, signatures) if kind is not None else None
    narrower = (
        None
        if kind is None or kind is ModelKind.OP_SUBGRAPH
        else f"no model more specific than {kind.value} covers this signature"
    )
    if predictor.combined is not None and predictor.combined.is_fitted:
        if kind is None:
            narrower = (
                "no individual model covers this operator; the combined "
                "model imputed every meta-feature"
            )
        return CostExplanation(
            source="combined",
            model_kind=kind.value if kind is not None else None,
            signature=signature,
            cost=cost,
            fallback_reason=narrower,
        )
    if kind is not None:
        return CostExplanation(
            source=kind.value,
            model_kind=kind.value,
            signature=signature,
            cost=cost,
            fallback_reason=narrower,
        )
    return CostExplanation(
        source="fallback",
        model_kind=None,
        signature=None,
        cost=cost,
        fallback_reason="no trained model covers this operator; "
        "serving the trained global mean",
    )
