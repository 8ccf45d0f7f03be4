"""Command-line interface: ``python -m repro <command>``.

Six commands cover the library's day-to-day loops without writing code:

* ``workload``   — generate + execute a synthetic cluster workload and
  print its Figure-9-style profile;
* ``train``      — run a workload, train Cleo on the early days via
  :class:`~repro.serving.service.CleoService`, and save the models to a
  JSON model file (the paper's "models can be served from a text file",
  Section 5.1);
* ``evaluate``   — load a saved model file and score it against the same
  workload's held-out day, printing the per-model-kind quality table;
* ``predict``    — serve a saved model file against a held-out day through
  the batched prediction path, reporting accuracy, per-model-group call
  counts, and cache hit rates, with optional per-operator explanations;
* ``experiment`` — regenerate any paper table/figure or ablation by id
  (``--list`` enumerates them), printing the same report the benchmark
  suite persists;
* ``lint``       — run the determinism & concurrency invariant checker
  (:mod:`repro.analysis`) over the tree: builtin-``hash``/set-iteration
  hazards, wall-clock/raw-RNG in deterministic modules, batch-variant
  float reductions in parity-pinned code, lock discipline, and test
  coverage of every parity reference; fails on any finding not
  pragma-justified or recorded in ``LINT_BASELINE.json``.

Every command is deterministic given ``--seed`` (``lint`` given the tree:
its JSON report is byte-identical across PYTHONHASHSEED values).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.experiments.harness import ExperimentResult

# Handlers import lazily; `lint` attaches its own parser (and `func`) in
# `build_parser`.


def _experiment_registry() -> dict[str, Callable[[str, int], ExperimentResult]]:
    """Experiment id -> runner(scale, seed)."""
    from repro.experiments import (
        ablations,
        ext_applications,
        fig1_motivation,
        fig2_recurring,
        fig3_adhoc,
        fig5_6_feature_weights,
        fig7_heatmap,
        fig8c_lookups,
        fig9_workload_summary,
        fig10_workload_changes,
        fig11_cv_cdfs,
        fig12_13_accuracy_cdfs,
        fig14_robustness,
        fig15_cardlearner,
        fig16_hashjoin_weights,
        fig17_partition_exploration,
        fig18_feature_ablation,
        fig19_production_performance,
        fig20_tpch,
        tab1_loss_functions,
        tab2_3_features,
        tab4_subgraph_models,
        tab5_individual_models,
        tab6_combined_meta,
        tab7_cluster1_breakdown,
        tab8_all_clusters,
    )

    registry: dict[str, Callable[[str, int], ExperimentResult]] = {
        "fig1": fig1_motivation.run,
        "fig2": fig2_recurring.run,
        "fig3": fig3_adhoc.run,
        "fig5_6": fig5_6_feature_weights.run,
        "fig7": fig7_heatmap.run,
        "fig8c": fig8c_lookups.run,
        "fig9": fig9_workload_summary.run,
        "fig10": fig10_workload_changes.run,
        "fig11": fig11_cv_cdfs.run,
        "fig12": lambda scale, seed: fig12_13_accuracy_cdfs.run(scale, seed, adhoc_only=False),
        "fig13": lambda scale, seed: fig12_13_accuracy_cdfs.run(scale, seed, adhoc_only=True),
        "fig14": fig14_robustness.run,
        "fig15": fig15_cardlearner.run,
        "fig16": fig16_hashjoin_weights.run,
        "fig17": fig17_partition_exploration.run,
        "fig18": fig18_feature_ablation.run,
        "fig19": fig19_production_performance.run,
        "fig20": fig20_tpch.run,
        "tab1": tab1_loss_functions.run,
        "tab2_3": tab2_3_features.run,
        "tab4": tab4_subgraph_models.run,
        "tab5": tab5_individual_models.run,
        "tab6": tab6_combined_meta.run,
        "tab7": tab7_cluster1_breakdown.run,
        "tab8": tab8_all_clusters.run,
        "ablation_jitter": ablations.run_jitter_ablation,
        "ablation_nonneg": ablations.run_nonneg_ablation,
        "ablation_noise": ablations.run_noise_sensitivity,
        "ablation_window": ablations.run_window_ablation,
        "ablation_meta": ablations.run_meta_ablation,
        "ablation_global": ablations.run_specialization_ablation,
        "ext_applications": ext_applications.run,
    }
    return registry


def _build_workload(args: argparse.Namespace):
    """Shared workload construction for workload/train/evaluate."""
    from repro.execution.hardware import ClusterSpec
    from repro.workload import ClusterWorkloadConfig, WorkloadGenerator, WorkloadRunner

    config = ClusterWorkloadConfig(
        cluster_name=args.cluster,
        n_tables=args.tables,
        n_fragments=args.fragments,
        n_templates=args.templates,
        seed=args.seed,
    )
    generator = WorkloadGenerator(config)
    runner = WorkloadRunner(
        cluster=ClusterSpec(name=args.cluster), seed=args.seed, keep_plans=True
    )
    return generator, runner


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload.analysis import profile_workload

    generator, runner = _build_workload(args)
    log = runner.run_days(generator, days=range(1, args.days + 1))
    profile = profile_workload(log)
    print(f"cluster {args.cluster}: {args.days} days, seed {args.seed}")
    print(f"  jobs:                    {profile.total_jobs}")
    print(f"  recurring jobs:          {profile.recurring_jobs} "
          f"({100 * profile.recurring_fraction:.0f}%)")
    print(f"  recurring templates:     {profile.recurring_templates}")
    print(f"  subexpressions:          {profile.total_subexpressions}")
    print(f"  common subexpressions:   {profile.common_subexpressions} "
          f"({100 * profile.common_fraction:.0f}%)")
    print(f"  trainable (>=5 occurr.): {profile.trainable_subexpressions} "
          f"({100 * profile.trainable_fraction:.0f}%)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.serving import CleoService

    if args.days < 3:
        print("train needs at least 3 days (2 train + 1 combined)", file=sys.stderr)
        return 2
    generator, runner = _build_workload(args)
    log = runner.run_days(generator, days=range(1, args.days + 1))
    train_days = list(range(1, args.days))
    service = CleoService.train(
        log, individual_days=train_days, combined_days=[args.days - 1]
    )
    service.save(args.out)
    print(f"trained {service.model_count} models on days {train_days} "
          f"({len(log.filter(days=train_days))} jobs)")
    print(f"saved model file: {args.out} "
          f"({service.memory_bytes / 1024:.0f} KiB in memory)")
    return 0


def _load_service(path: str):
    """Load a model file, or return None after printing a clean error."""
    from repro.common.errors import ModelFileError
    from repro.serving import CleoService

    try:
        return CleoService.load(path)
    except FileNotFoundError:
        print(f"model file not found: {path}", file=sys.stderr)
    except OSError as exc:  # directory, permission denied, ...
        print(f"cannot read model file: {path} ({exc})", file=sys.stderr)
    except ModelFileError as exc:
        print(f"not a valid model file: {path} ({exc})", file=sys.stderr)
    return None


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core import evaluate_predictor_on_log, evaluate_store_on_log

    service = _load_service(args.model)
    if service is None:
        return 2
    generator, runner = _build_workload(args)
    log = runner.run_days(generator, days=[args.day])
    print(f"evaluating {args.model} on day {args.day} "
          f"({len(log)} jobs, {log.operator_count} operators)")
    print(f"  {'model':<22} {'corr':>6} {'median_err':>11} {'coverage':>9}")
    for kind, quality in evaluate_store_on_log(service.store, log).items():
        print(f"  {quality.name:<22} {quality.pearson:6.2f} "
              f"{quality.median_error_pct:10.1f}% {quality.coverage_pct:8.1f}%")
    combined = evaluate_predictor_on_log(service.predictor, log)
    print(f"  {'combined':<22} {combined.pearson:6.2f} "
          f"{combined.median_error_pct:10.1f}% {100.0:8.1f}%")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.common.stats import median_error_pct, pearson

    service = _load_service(args.model)
    if service is None:
        return 2
    generator, runner = _build_workload(args)
    log = runner.run_days(generator, days=[args.day])
    records = list(log.operator_records())
    if not records:
        print(f"day {args.day} produced no operators", file=sys.stderr)
        return 2

    predicted = service.predict_records(records)
    actual = [r.actual_latency for r in records]
    stats = service.stats()
    print(f"served {args.model} over day {args.day}: "
          f"{len(log)} jobs, {len(records)} operators")
    print(f"  pearson correlation:   {pearson(list(predicted), actual):6.2f}")
    print(f"  median error:          {median_error_pct(list(predicted), actual):6.1f}%")
    print(f"  vectorized model calls: {stats.model_calls} "
          f"({stats.individual_model_calls} individual model groups + "
          f"{stats.combined_model_calls} combined)")
    print(f"  prediction cache:      {stats.cache_hits} hits / "
          f"{stats.cache.requests} lookups "
          f"({100.0 * stats.hit_rate:.1f}% hit rate), "
          f"{stats.in_batch_reuses} in-batch reuses")
    if args.explain > 0:
        shown = min(args.explain, len(records))
        print(f"\nfirst {shown} operators explained:")
        for record in records[:shown]:
            explanation = service.explain(record.features, record.signatures)
            print(f"  {record.op_type:<18} {explanation.describe()}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.list or args.id is None:
        print("available experiment ids:")
        for key in registry:
            print(f"  {key}")
        return 0 if args.list else 2
    runner = registry.get(args.id)
    if runner is None:
        print(f"unknown experiment id {args.id!r}; use --list", file=sys.stderr)
        return 2
    result = runner(args.scale, args.seed)
    print(result.to_text())
    return 0


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cluster", default="cluster1", help="cluster name (default: cluster1)")
    parser.add_argument("--tables", type=int, default=8, help="base tables (default: 8)")
    parser.add_argument("--fragments", type=int, default=14, help="shared plan fragments (default: 14)")
    parser.add_argument("--templates", type=int, default=24, help="recurring templates (default: 24)")
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cleo reproduction: learned cost models for big data query processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_workload = sub.add_parser("workload", help="run a synthetic workload, print its profile")
    _add_workload_options(p_workload)
    p_workload.add_argument("--days", type=int, default=3, help="days to run (default: 3)")
    p_workload.set_defaults(func=cmd_workload)

    p_train = sub.add_parser("train", help="train Cleo on a workload and save the model file")
    _add_workload_options(p_train)
    p_train.add_argument("--days", type=int, default=3, help="days to run (default: 3)")
    p_train.add_argument("--out", default="cleo_models.json", help="output model file")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model file on a held-out day")
    _add_workload_options(p_eval)
    p_eval.add_argument("--model", required=True, help="model file from `repro train`")
    p_eval.add_argument("--day", type=int, default=3, help="held-out day (default: 3)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = sub.add_parser(
        "predict", help="serve a model file against a held-out day (batched)"
    )
    _add_workload_options(p_pred)
    p_pred.add_argument("--model", required=True, help="model file from `repro train`")
    p_pred.add_argument("--day", type=int, default=3, help="held-out day (default: 3)")
    p_pred.add_argument("--explain", type=int, default=0, metavar="N",
                        help="also explain the first N operator predictions")
    p_pred.set_defaults(func=cmd_predict)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure or ablation")
    p_exp.add_argument("id", nargs="?", help="experiment id, e.g. tab5 or fig14")
    p_exp.add_argument("--list", action="store_true", help="list available experiment ids")
    p_exp.add_argument("--scale", default="tiny", choices=("tiny", "small", "full"),
                       help="workload scale (default: tiny)")
    p_exp.add_argument("--seed", type=int, default=0, help="deterministic seed (default: 0)")
    p_exp.set_defaults(func=cmd_experiment)

    p_lint = sub.add_parser(
        "lint",
        help="run the determinism & concurrency invariant checker "
        "(fails on non-baselined findings)",
    )
    from repro.analysis.cli import configure_parser as _configure_lint_parser

    _configure_lint_parser(p_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
