"""Figure 7: error heatmap over operator instances, per model.

The paper plots per-operator prediction error (green = accurate) for the
four individual models and the combined model over 42K operators, with
white gaps where a model has no coverage.  As a text-friendly equivalent we
bucket each model's per-operator error ratio into bands and report the band
mass plus coverage — the "more green, fewer gaps" reading of the figure.
"""

from __future__ import annotations

import numpy as np

from repro.core.robustness import score_table, store_predictions_by_kind
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle

#: Error-ratio bands (predicted/actual): the figure's color scale.
BANDS = ((0.0, 0.5), (0.5, 0.8), (0.8, 1.25), (1.25, 2.0), (2.0, float("inf")))
BAND_NAMES = ("<0.5x", "0.5-0.8x", "0.8-1.25x", "1.25-2x", ">2x")

PAPER = {
    "shape": (
        "subgraph models most accurate where covered; operator model covers "
        "all but with more error; combined covers all at near-best accuracy"
    )
}


def _band_fractions(ratios: np.ndarray) -> dict[str, float]:
    out = {}
    for name, (lo, hi) in zip(BAND_NAMES, BANDS):
        out[name] = float(((ratios >= lo) & (ratios < hi)).mean()) if len(ratios) else 0.0
    return out


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    predictor = bundle.predictor()
    log = bundle.test_log()
    table = log.to_table()

    rows = []
    series: dict[str, list] = {}
    for kind, (mask, predicted) in store_predictions_by_kind(predictor.store, log).items():
        ratios = (predicted[mask] + 1e-9) / (table.latency[mask] + 1e-9)
        bands = _band_fractions(ratios)
        rows.append(
            {
                "model": kind.value,
                "coverage_pct": round(100.0 * len(ratios) / len(table), 1),
                "within_0.8_1.25x_pct": round(100.0 * bands["0.8-1.25x"], 1),
                "worse_than_2x_pct": round(100.0 * bands[">2x"], 1),
            }
        )
        series[f"bands_{kind.value}"] = [round(bands[n], 4) for n in BAND_NAMES]

    combined_ratios = (score_table(predictor, table) + 1e-9) / (table.latency + 1e-9)
    bands = _band_fractions(combined_ratios)
    rows.append(
        {
            "model": "combined",
            "coverage_pct": 100.0,
            "within_0.8_1.25x_pct": round(100.0 * bands["0.8-1.25x"], 1),
            "worse_than_2x_pct": round(100.0 * bands[">2x"], 1),
        }
    )
    series["bands_combined"] = [round(bands[n], 4) for n in BAND_NAMES]
    series["band_names"] = list(BAND_NAMES)

    return ExperimentResult(
        experiment_id="fig7",
        title="Per-operator error bands and coverage per model (heatmap summary)",
        rows=rows,
        series=series,
        paper=PAPER,
        notes=f"{len(table)} operator instances from the test day.",
    )
