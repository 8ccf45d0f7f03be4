"""Figure 17: partition-exploration accuracy vs efficiency.

Protocol from Section 6.5: over ~200 subexpression stages, probe the learned
models for every partition count up to the cluster maximum to find the
learned-optimal stage cost; then compare how close each strategy gets:
random / uniform / geometric sampling at varying sample counts, and the
single-shot analytical approach.  Paper findings: the analytical model beats
sampling until ~15-20 samples, and geometric sampling beats uniform/random
at small budgets — making the analytical approach ~20x more efficient for
equal accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelKind
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle
from repro.features.extract import feature_input_for
from repro.features.featurizer import feature_matrix
from repro.optimizer.partition import ResourceContext
from repro.plan.stages import build_stage_graph

PAPER = {
    "analytical_beats_sampling_until_samples": (15, 20),
    "geometric_best_sampler_at": (4, 20),
    "efficiency_factor": 20,
}

MAX_P = 3000
SAMPLE_COUNTS = (2, 4, 8, 16, 32, 64, 128)


def _stage_cost_curves(predictor, stage_ops, estimator, max_p: int) -> np.ndarray | None:
    """Predicted stage cost for every partition count in [1, max_p].

    Uses each operator's most specific individual model (the same models the
    analytical strategy reads), vectorized over the full P sweep.
    """
    partitions = np.arange(1, max_p + 1)
    total = np.zeros(max_p)
    from repro.plan.signatures import SignatureBundle

    any_model = False
    for op in stage_ops:
        bundle = SignatureBundle.of(op)
        found = predictor.store.most_specific(bundle)
        if found is None:
            continue
        any_model = True
        _, model = found
        base = feature_input_for(op, estimator)
        inputs = [base.with_partition_count(float(p)) for p in partitions]
        total += model.predict_many(inputs)
    return total if any_model else None


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
    contexts: list[ResourceContext] = []
    from repro.plan.signatures import SignatureBundle

    for job in bundle.test_log():
        plan = bundle.runner.plans[job.job_id]
        graph = build_stage_graph(plan)
        for stage in graph.stages:
            if len(curves) >= n_stages:
                break
            curve = _stage_cost_curves(predictor, stage.operators, estimator, MAX_P)
            if curve is None:
                continue
            context = ResourceContext()
            for op in stage.operators:
                found = predictor.store.most_specific(SignatureBundle.of(op))
                if found is not None:
                    context.attach(found[1].resource_profile(feature_input_for(op, estimator)))
            curves.append(curve)
            contexts.append(context)
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

    analytical_errors = []
    for curve, context, best in zip(curves, contexts, optima):
        chosen = context.optimal_partitions(MAX_P)
        analytical_errors.append(100.0 * (curve[chosen - 1] - best) / max(best, 1e-9))
    analytical_median = round(float(np.median(analytical_errors)), 2)
    series["median_error_analytical"] = [analytical_median] * len(SAMPLE_COUNTS)
    rows.append(
        {"strategy": "analytical", **{f"n={n}": analytical_median for n in SAMPLE_COUNTS}}
    )

    return ExperimentResult(
        experiment_id="fig17",
        title="Partition exploration: median cost gap vs the learned optimum",
        rows=rows,
        series=series,
        paper=PAPER,
        notes=(
            f"{len(curves)} stages probed exhaustively to P={MAX_P}. Analytical "
            "uses 1 profile read per operator; samplers use n probes."
        ),
    )
