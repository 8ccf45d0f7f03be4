"""Ablations of the paper's and the reproduction's design choices.

Three studies isolate engineering decisions the calibration process
surfaced (DESIGN.md §6):

* **allocation jitter** — without within-template partition-count variation
  in the training logs, the learned resource profiles lose their P signal;
* **non-negative partition weights** — without the sign constraint, raw
  extrapolation to unseen partition counts produces degenerate (negative)
  resource profiles;
* **cloud noise sensitivity** — how the combined model's accuracy degrades
  as execution variance grows (the paper's motivation for the MSLE loss).

Three more probe design choices the paper itself calls out:

* **training window / frequency** — Section 5.1 fixes "a training window of
  two days and a training frequency of every ten days" empirically; the
  sweep replays a multi-day log through
  :class:`~repro.core.lifecycle.LifecycleManager` under different policies;
* **combined-model inputs** — Section 4.3 adds cardinality/partition extras
  to the meta-features and reports that also including the default cost
  model "did not result in any improvement"; the ablation measures both;
* **specialization spectrum** — Section 3's "no one-size-fits-all" claim:
  one global model versus per-operator models versus the full collection.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CleoConfig
from repro.core.packed import resource_profiles_most_specific
from repro.core.robustness import evaluate_predictor_on_log, score_table
from repro.core.trainer import CleoTrainer
from repro.execution.hardware import ClusterSpec
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import workload_config
from repro.features.extract import feature_input_for
from repro.features.table import FeatureTable
from repro.optimizer.planner import PlannerConfig
from repro.plan.signatures import SignatureBundle
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner


def _run_workload(scale: str, seed: int, jitter: float, noise_sigma: float = 0.10):
    config = workload_config("cluster1", scale, seed)
    generator = WorkloadGenerator(config)
    runner = WorkloadRunner(
        cluster=ClusterSpec(name="cluster1", noise_sigma=noise_sigma),
        seed=seed,
        planner_config=PlannerConfig(partition_jitter=jitter),
        keep_plans=True,
    )
    log = runner.run_days(generator, [1, 2, 3])
    return generator, runner, log


def _covered_profiles(predictor, log, runner) -> list:
    """``(operator, resource profile)`` of every covered operator of the
    first 40 day-3 plans, in plan-walk order, from one tier-index read."""
    from repro.cardinality.estimator import CardinalityEstimator

    estimator = CardinalityEstimator(runner.estimator_config)
    ops = [
        op for job in log.filter(days=[3]).jobs[:40] for op in runner.plans[job.job_id].walk()
    ]
    table = FeatureTable.from_inputs(
        [feature_input_for(op, estimator) for op in ops],
        [SignatureBundle.of(op) for op in ops],
    )
    profiles, _ = resource_profiles_most_specific(predictor.store, table)
    return [(op, profile) for op, profile in zip(ops, profiles) if profile is not None]


def _profile_degeneracy(predictor, log, runner) -> float:
    """Fraction of covered operators with a degenerate resource profile."""
    covered = _covered_profiles(predictor, log, runner)
    degenerate = sum(
        profile.theta_p < 0 or profile.theta_c < 0 for _, profile in covered
    )
    return degenerate / max(len(covered), 1)


def run_jitter_ablation(scale: str = "tiny", seed: int = 0) -> ExperimentResult:
    """Partition-count diversity in the logs vs learned P-sensitivity."""
    rows = []
    for jitter in (0.0, 0.35):
        generator, runner, log = _run_workload(scale, seed, jitter)
        predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])

        # How often does the learned stage optimum differ from "keep P"?
        # Without training-time P variation, theta_c collapses to ~0 and the
        # profiles cannot justify any change.
        covered = _covered_profiles(predictor, log, runner)
        moved = sum(
            abs(profile.optimal_partitions(3000) - op.partition_count)
            > max(2, 0.25 * op.partition_count)
            for op, profile in covered
        )
        rows.append(
            {
                "training_jitter": jitter,
                "profiles_with_p_signal_pct": round(100.0 * moved / max(len(covered), 1), 1),
                "theta_c_zero_pct": round(
                    100.0 * _theta_c_zero_fraction(predictor), 1
                ),
            }
        )
    return ExperimentResult(
        experiment_id="ablation_jitter",
        title="Ablation: allocation jitter in training logs",
        rows=rows,
        notes="Without jitter, theta_c degenerates to ~0 for most models.",
    )


def _theta_c_zero_fraction(predictor) -> float:
    zero = 0
    total = 0
    for by_sig in predictor.store.models.values():
        for model in by_sig.values():
            weights = model.feature_weights()
            total += 1
            if abs(weights.get("P", 0.0)) < 1e-12:
                zero += 1
    return zero / max(total, 1)


def run_nonneg_ablation(scale: str = "tiny", seed: int = 0) -> ExperimentResult:
    """Sign constraint on partition weights vs degenerate profiles."""
    generator, runner, log = _run_workload(scale, seed, jitter=0.35)
    rows = []
    for constrained in (True, False):
        config = CleoConfig(constrain_partition_weights=constrained)
        predictor = CleoTrainer(config).train(
            log, individual_days=[1, 2], combined_days=[2]
        )
        quality = evaluate_predictor_on_log(predictor, log.filter(days=[3]))
        rows.append(
            {
                "constrained": constrained,
                "degenerate_profile_pct": round(
                    100.0 * _profile_degeneracy(predictor, log, runner), 1
                ),
                "combined_median_error_pct": round(quality.median_error_pct, 1),
            }
        )
    return ExperimentResult(
        experiment_id="ablation_nonneg",
        title="Ablation: non-negative partition-weight constraint",
        rows=rows,
        notes=(
            "The constraint should eliminate degenerate profiles at little "
            "to no accuracy cost."
        ),
    )


def run_noise_sensitivity(scale: str = "tiny", seed: int = 0) -> ExperimentResult:
    """Combined-model accuracy as cloud execution variance grows."""
    rows = []
    for noise in (0.0, 0.1, 0.25, 0.5):
        generator, runner, log = _run_workload(scale, seed, 0.35, noise_sigma=noise)
        predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])
        quality = evaluate_predictor_on_log(predictor, log.filter(days=[3]))
        rows.append(
            {
                "noise_sigma": noise,
                "combined_median_error_pct": round(quality.median_error_pct, 1),
                "combined_pearson": round(quality.pearson, 3),
            }
        )
    errors = [row["combined_median_error_pct"] for row in rows]
    return ExperimentResult(
        experiment_id="ablation_noise",
        title="Ablation: execution-noise sensitivity of the learned models",
        rows=rows,
        series={"noise_sigma": [r["noise_sigma"] for r in rows], "median_error": errors},
        notes="Error should grow smoothly with variance, not cliff.",
    )


# --------------------------------------------------------------------- #
# Paper-called-out design choices
# --------------------------------------------------------------------- #


def run_window_ablation(
    scale: str = "tiny",
    seed: int = 0,
    horizon_days: int = 15,
    policies: tuple[tuple[int, int], ...] = ((1, 5), (2, 2), (2, 5), (2, 10), (4, 10)),
) -> ExperimentResult:
    """Training window x retrain frequency sweep (Section 5.1's 2d/10d).

    Replays ``horizon_days`` of one cluster's log under each
    ``(window_days, frequency_days)`` policy and reports the mean daily
    median error, the worst day, and how many retrains the policy paid for.
    """
    from repro.core.lifecycle import LifecycleManager, RetrainPolicy
    from repro.experiments.shared import get_bundle

    bundle = get_bundle(
        "cluster1", scale=scale, days=tuple(range(1, horizon_days + 1)), seed=seed
    )
    # Score every policy on the same days (those after the widest window),
    # so a narrow window cannot look worse merely by being scored earlier.
    widest = max(window for window, _ in policies)
    score_days = bundle.log.days[widest:]
    rows = []
    for window_days, frequency_days in policies:
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=window_days,
                frequency_days=frequency_days,
                regression_factor=None,
            )
        )
        outcomes = manager.run(bundle.log, days=score_days)
        errors = [o.median_error_pct for o in outcomes]
        rows.append(
            {
                "window_days": window_days,
                "frequency_days": frequency_days,
                "mean_median_error_pct": round(float(np.mean(errors)), 1),
                "worst_day_error_pct": round(float(np.max(errors)), 1),
                "mean_pearson": round(
                    float(np.mean([o.pearson for o in outcomes])), 3
                ),
                "retrains": sum(o.retrained for o in outcomes),
            }
        )
    return ExperimentResult(
        experiment_id="ablation_window",
        title="Ablation: training window and retrain frequency (Section 5.1)",
        rows=rows,
        paper={"chosen_policy": "window 2 days, frequency 10 days"},
        notes=(
            "The paper's 2d/10d policy should sit near the accuracy of the "
            "most aggressive policies at a fraction of the retrains."
        ),
    )


def run_meta_ablation(scale: str = "tiny", seed: int = 0) -> ExperimentResult:
    """Combined-model input ablation (Section 4.3).

    Variants share the same individual-model store and FastTree
    hyperparameters; only the meta-feature columns differ:

    * predictions + coverage flags only;
    * the paper's layout (plus cardinality/partition extras);
    * the paper's layout plus the default cost model's estimate — which the
      paper reports "did not result in any improvement".
    """
    from repro.common.stats import median_error_pct, pearson as pearson_of
    from repro.core.combined import META_FEATURE_NAMES, build_meta_row
    from repro.cost.default_model import DefaultCostModel
    from repro.experiments.shared import get_bundle
    from repro.ml.gbm import FastTreeRegressor

    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    store = bundle.predictor().store

    def day_matrix(day: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        records = list(bundle.log.filter(days=[day]).operator_records())
        rows_ = np.vstack(
            [build_meta_row(store, r.features, r.signatures) for r in records]
        )
        actual = np.asarray([r.actual_latency for r in records])
        default_costs, _ = bundle.baseline_costs(DefaultCostModel(), days=(day,))
        return rows_, actual, np.asarray(default_costs)

    train_rows, train_actual, train_default = day_matrix(2)
    test_rows, test_actual, test_default = day_matrix(3)

    n_pred_cols = 8  # 4 predictions + 4 coverage flags
    variants: list[tuple[str, np.ndarray, np.ndarray]] = [
        ("predictions_only", train_rows[:, :n_pred_cols], test_rows[:, :n_pred_cols]),
        ("paper (pred + extras)", train_rows, test_rows),
        (
            "paper + default cost",
            np.column_stack([train_rows, train_default]),
            np.column_stack([test_rows, test_default]),
        ),
    ]
    config = CleoConfig()
    rows = []
    for name, train_x, test_x in variants:
        regressor = FastTreeRegressor(
            n_estimators=config.meta_trees,
            max_depth=config.meta_depth,
            subsample=config.meta_subsample,
            learning_rate=config.meta_learning_rate,
            log_target=True,
            seed=config.seed,
        )
        regressor.fit(train_x, train_actual)
        predicted = np.clip(np.asarray(regressor.predict(test_x)), 0.0, None)
        rows.append(
            {
                "meta_features": name,
                "n_columns": train_x.shape[1],
                "median_error_pct": round(median_error_pct(predicted, test_actual), 1),
                "pearson": round(pearson_of(predicted, test_actual), 3),
            }
        )
    return ExperimentResult(
        experiment_id="ablation_meta",
        title="Ablation: combined-model meta-features (Section 4.3)",
        rows=rows,
        paper={
            "extras": "cardinalities, per-partition cardinalities, partitions",
            "default_cost_feature": "no improvement on SCOPE",
        },
        notes=(
            f"Column layout: {', '.join(META_FEATURE_NAMES)}; the default-cost "
            "column should not materially improve on the paper layout."
        ),
    )


def run_specialization_ablation(scale: str = "tiny", seed: int = 0) -> ExperimentResult:
    """One global model vs per-operator vs the full collection (Section 3).

    The global variants fit a single model over *all* operator records with
    the full feature set (context features included): one elastic net (as
    specialized models use) and one FastTree (giving the global approach
    the benefit of a higher-capacity learner).  Neither reaches the
    specialized collection — the paper's no-one-size-fits-all argument.
    """
    from repro.common.stats import median_error_pct, pearson as pearson_of
    from repro.core.config import ModelKind
    from repro.core.learned_model import LearnedCostModel
    from repro.core.robustness import evaluate_store_on_log
    from repro.experiments.shared import get_bundle
    from repro.features.featurizer import feature_matrix
    from repro.ml.gbm import FastTreeRegressor

    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    predictor = bundle.predictor()
    train_records = list(bundle.log.filter(days=[1, 2]).operator_records())
    test_records = list(bundle.log.filter(days=[3]).operator_records())
    test_actual = np.asarray([r.actual_latency for r in test_records])

    rows = []

    def add_row(name: str, predicted: np.ndarray, coverage_pct: float) -> None:
        rows.append(
            {
                "model": name,
                "median_error_pct": round(median_error_pct(predicted, test_actual), 1),
                "pearson": round(pearson_of(predicted, test_actual), 3),
                "coverage_pct": round(coverage_pct, 1),
                "n_models": 1 if name.startswith("global") else None,
            }
        )

    # Global elastic net: the same learner the specialized models use.
    global_net = LearnedCostModel(include_context=True)
    global_net.fit(
        [r.features for r in train_records],
        np.asarray([r.actual_latency for r in train_records]),
    )
    add_row(
        "global elastic net",
        global_net.predict_many([r.features for r in test_records]),
        100.0,
    )

    # Global FastTree: higher capacity, same single-model constraint.
    train_x = feature_matrix([r.features for r in train_records], include_context=True)
    test_x = feature_matrix([r.features for r in test_records], include_context=True)
    config = CleoConfig()
    global_tree = FastTreeRegressor(
        n_estimators=config.meta_trees,
        max_depth=config.meta_depth,
        subsample=config.meta_subsample,
        learning_rate=config.meta_learning_rate,
        log_target=True,
        seed=config.seed,
    )
    global_tree.fit(train_x, np.asarray([r.actual_latency for r in train_records]))
    add_row(
        "global fasttree",
        np.clip(np.asarray(global_tree.predict(test_x)), 0.0, None),
        100.0,
    )

    # Per-operator and full-collection numbers from the trained store.
    per_kind = evaluate_store_on_log(
        predictor.store, bundle.log.filter(days=[3]), kinds=(ModelKind.OPERATOR,)
    )
    operator_quality = per_kind[ModelKind.OPERATOR]
    rows.append(
        {
            "model": "per-operator collection",
            "median_error_pct": round(operator_quality.median_error_pct, 1),
            "pearson": round(operator_quality.pearson, 3),
            "coverage_pct": round(operator_quality.coverage_pct, 1),
            "n_models": predictor.store.count(ModelKind.OPERATOR),
        }
    )
    combined_predicted = score_table(predictor, bundle.test_table())
    rows.append(
        {
            "model": "full collection + combined",
            "median_error_pct": round(median_error_pct(combined_predicted, test_actual), 1),
            "pearson": round(pearson_of(combined_predicted, test_actual), 3),
            "coverage_pct": 100.0,
            "n_models": predictor.store.count(),
        }
    )
    return ExperimentResult(
        experiment_id="ablation_global",
        title="Ablation: specialization spectrum (no one-size-fits-all)",
        rows=rows,
        paper={"claim": "a single global model cannot match specialized collections"},
        notes=(
            "Both single global models should trail the per-operator "
            "collection, which trails the full Cleo collection."
        ),
    )
