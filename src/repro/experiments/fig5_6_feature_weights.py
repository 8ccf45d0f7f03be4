"""Figures 5-6: normalized feature weights per model class.

The paper aggregates per-feature influence across all models of one class:
``nw_i = sum_n |w_in| / sum_k sum_n |w_kn|``.  Figure 5 shows the subgraph
models (weights concentrated on a few features); Figure 6 the approx /
input / operator models (progressively more spread out).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelKind
from repro.experiments.harness import ExperimentResult
from repro.features.featurizer import feature_names
from repro.experiments.shared import get_bundle

PAPER = {
    "shape": "specialized models concentrate weight; generalized models spread it",
}


def normalized_weights(store, kind: ModelKind) -> dict[str, float]:
    """The paper's influence metric across all models of one kind."""
    totals: dict[str, float] = {}
    names = feature_names(kind.uses_context_features)
    for weights in store.columns(kind).coef.tolist():
        for name, weight in zip(names, weights):
            totals[name] = totals.get(name, 0.0) + abs(weight)
    grand = sum(totals.values()) or 1.0
    return {name: value / grand for name, value in totals.items()}


def concentration(weights: dict[str, float]) -> float:
    """Herfindahl index of the weight distribution (1 = one feature only)."""
    return float(sum(w * w for w in weights.values()))


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    predictor = bundle.predictor()

    rows = []
    series: dict[str, list] = {}
    for kind in ModelKind:
        weights = normalized_weights(predictor.store, kind)
        top = sorted(weights.items(), key=lambda kv: -kv[1])[:8]
        rows.append(
            {
                "model": kind.value,
                "models": predictor.store.count(kind),
                "concentration": round(concentration(weights), 4),
                "top_features": ", ".join(f"{n}={w:.3f}" for n, w in top[:5]),
            }
        )
        names = sorted(weights)
        series[f"weights_{kind.value}"] = [round(weights[n], 5) for n in names]
        series.setdefault("feature_names", []).extend(
            n for n in names if n not in series.get("feature_names", [])
        )
    # Deduplicate feature name axis while preserving order.
    seen: set[str] = set()
    series["feature_names"] = [
        n for n in series["feature_names"] if not (n in seen or seen.add(n))
    ]
    return ExperimentResult(
        experiment_id="fig5_6",
        title="Normalized feature weights per model class",
        rows=rows,
        series=series,
        paper=PAPER,
        notes=(
            "Expect concentration to fall from op_subgraph to operator: the "
            "more general the model, the more evenly weights are spread."
        ),
    )
