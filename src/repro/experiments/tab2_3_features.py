"""Tables 2-3: the selected basic and derived features.

The paper's elastic-net feature selection keeps the features of Tables 2-3
(non-zero weight in at least one subgraph model).  We train the subgraph
models, count how many models select each feature, and report the selection
fraction per feature — verifying that every feature of the paper's tables
earns a non-zero weight somewhere.
"""

from __future__ import annotations

from repro.core.config import ModelKind
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle
from repro.features.featurizer import (
    BASIC_FEATURE_NAMES,
    CONTEXT_FEATURE_NAMES,
    DERIVED_FEATURE_NAMES,
    feature_names,
)

PAPER = {
    "basic": list(BASIC_FEATURE_NAMES),
    "derived": list(DERIVED_FEATURE_NAMES),
    "context": list(CONTEXT_FEATURE_NAMES),
}


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    predictor = bundle.predictor()

    # Selection is counted across all model kinds: features constant within
    # a strict template (row width, input encoding) earn their weights in
    # the generalized models that pool across templates.
    selected_counts: dict[str, int] = {}
    total = 0
    for kind in ModelKind:
        names = feature_names(kind.uses_context_features)
        for weights in predictor.store.columns(kind).coef.tolist():
            total += 1
            for name, weight in zip(names, weights):
                if abs(weight) > 1e-12:
                    selected_counts[name] = selected_counts.get(name, 0) + 1
    total = max(total, 1)
    rows = []
    for group, names in (
        ("basic", BASIC_FEATURE_NAMES),
        ("derived", DERIVED_FEATURE_NAMES),
    ):
        for name in names:
            rows.append(
                {
                    "group": group,
                    "feature": name,
                    "models_selecting": selected_counts.get(name, 0),
                    "selection_pct": round(100.0 * selected_counts.get(name, 0) / total, 1),
                }
            )
    return ExperimentResult(
        experiment_id="tab2_3",
        title="Feature set with elastic-net selection counts (subgraph models)",
        rows=rows,
        paper=PAPER,
        notes=(
            "Every feature of Tables 2-3 should be selected by at least one "
            "model; per-template models keep only a few features each."
        ),
    )
