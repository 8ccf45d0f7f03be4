"""Figure 17: partition-exploration accuracy vs efficiency.

Protocol from Section 6.5: over ~200 subexpression stages, probe the learned
models for every partition count up to the cluster maximum to find the
learned-optimal stage cost; then compare how close each strategy gets:
random / uniform / geometric sampling at varying sample counts, and the
single-shot analytical approach.  The analytical row is the paper's
unclamped closed-form pick; the product strategy (``AnalyticalStrategy``, read
from its one ``stage_counts`` call over all the stages) also clamps the pick to
its trust region around each stage's current count, and the share of stages
where that clamp changes the pick is reported beside it.  Paper findings: the
analytical model beats sampling until ~15-20 samples, and geometric sampling
beats uniform/random at small budgets — making the analytical approach ~20x
more efficient for equal accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import CleoCostModel
from repro.core.packed import predict_most_specific, resource_profiles_most_specific
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle
from repro.features.extract import feature_input_for
from repro.features.table import FeatureTable
from repro.optimizer.partition import AnalyticalStrategy, stage_profile
from repro.plan.signatures import SignatureBundle
from repro.plan.stages import build_stage_graph

PAPER = {
    "analytical_beats_sampling_until_samples": (15, 20),
    "geometric_best_sampler_at": (4, 20),
    "efficiency_factor": 20,
}

MAX_P = 3000
SAMPLE_COUNTS = (2, 4, 8, 16, 32, 64, 128)


def _stage_cost_curves(store, stage: FeatureTable, profiles: list, max_p: int) -> np.ndarray:
    """Predicted stage cost for every partition count in [1, max_p].

    Each operator's row is tiled over the full P sweep and priced by its
    most specific individual model (the same models the analytical strategy
    reads, whose ``profiles`` name the covered operators) in one tier-index
    pass; the covered operators' curves are summed operator by operator.
    """
    n = len(stage)
    grid = stage.take(np.repeat(np.arange(n), max_p)).with_partition_count(
        np.tile(np.arange(1.0, max_p + 1), n)
    )
    values = predict_most_specific(store, grid, 0.0)[0].reshape(n, max_p)
    total = np.zeros(max_p)
    for curve, profile in zip(values, profiles):
        if profile is not None:
            total += curve
    return total


def _geometric_skip_for(n_samples: int, max_p: int) -> float:
    """Skip coefficient that yields roughly ``n_samples`` geometric samples."""
    ratio = max_p ** (1.0 / max(n_samples, 2))
    return 1.0 / max(ratio - 1.0, 1e-6)


def _candidates(scheme: str, n: int, max_p: int, rng: np.random.Generator) -> list[int]:
    if scheme == "geometric":
        from repro.common.stats import geometric_partition_samples

        return geometric_partition_samples(max_p, _geometric_skip_for(n, max_p))[:n]
    if scheme == "uniform":
        return sorted({int(round(x)) for x in np.linspace(1, max_p, num=n)})
    return sorted({1, *(int(x) for x in rng.integers(1, max_p + 1, size=n))})


def run(scale: str = "small", seed: int = 0, n_stages: int = 200) -> ExperimentResult:
    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    predictor = bundle.predictor()
    estimator = bundle.fresh_estimator()
    # repro: allow(wallclock-rng) -- seed is the experiment's explicit int argument; the random scheme's candidate draws must replay the historical stream so the recorded Figure 17 medians stay bitwise-stable
    rng = np.random.default_rng(seed)

    # Collect candidate stages from executed plans.
    curves: list[np.ndarray] = []
    aggregates = []
    stages = []
    for job in bundle.test_log():
        plan = bundle.runner.plans[job.job_id]
        graph = build_stage_graph(plan)
        for stage in graph.stages:
            if len(curves) >= n_stages:
                break
            ops = stage.operators
            rows = FeatureTable.from_inputs(
                [feature_input_for(op, estimator) for op in ops],
                [SignatureBundle.of(op) for op in ops],
            )
            profiles, n_covered = resource_profiles_most_specific(predictor.store, rows)
            if not n_covered:
                continue
            curves.append(_stage_cost_curves(predictor.store, rows, profiles, MAX_P))
            aggregates.append(stage_profile(profiles))
            stages.append(ops)
        if len(curves) >= n_stages:
            break

    optima = np.array([c.min() for c in curves])
    rows = []
    series: dict[str, list] = {"sample_counts": list(SAMPLE_COUNTS)}
    for scheme in ("random", "uniform", "geometric"):
        medians = []
        for n in SAMPLE_COUNTS:
            errors = []
            for curve, best in zip(curves, optima):
                cand = _candidates(scheme, n, MAX_P, rng)
                chosen = min(cand, key=lambda p: curve[p - 1])
                errors.append(100.0 * (curve[chosen - 1] - best) / max(best, 1e-9))
            medians.append(round(float(np.median(errors)), 2))
        series[f"median_error_{scheme}"] = medians
        rows.append({"strategy": scheme, **{f"n={n}": m for n, m in zip(SAMPLE_COUNTS, medians)}})

    unclamped = [aggregate.optimal_partitions(MAX_P) for aggregate in aggregates]
    product = [
        count
        for (count,) in AnalyticalStrategy().stage_counts(
            stages, CleoCostModel(predictor), estimator, MAX_P
        )
    ]
    for label, key, picks in (
        ("analytical", "median_error_analytical", unclamped),
        ("analytical (trust region)", "median_error_analytical_product", product),
    ):
        errors = [
            100.0 * (curve[chosen - 1] - best) / max(best, 1e-9)
            for curve, chosen, best in zip(curves, picks, optima)
        ]
        median = round(float(np.median(errors)), 2)
        series[key] = [median] * len(SAMPLE_COUNTS)
        rows.append({"strategy": label, **{f"n={n}": median for n in SAMPLE_COUNTS}})
    binds = sum(a != b for a, b in zip(product, unclamped))
    series["clamp_binds_pct"] = [round(100.0 * binds / len(product), 2)]

    return ExperimentResult(
        experiment_id="fig17",
        title="Partition exploration: median cost gap vs the learned optimum",
        rows=rows,
        series=series,
        paper=PAPER,
        notes=(
            f"{len(curves)} stages probed exhaustively to P={MAX_P}. Analytical "
            "uses 1 profile read per operator; samplers use n probes. The trust "
            f"region changes the analytical pick on {binds} of {len(product)} stages."
        ),
    )
