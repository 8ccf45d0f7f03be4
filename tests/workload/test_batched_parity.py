"""Bitwise parity: the batched engine vs the per-operator reference.

Every job executes on the batched engine (vectorized ground truth +
columnar RunLog ingest), through either entry: ``add_job`` for a skeleton
replay's winner, ``add_plan`` for a ``PhysicalOp`` plan.  Both must produce
*exactly* the log the per-operator walk in ``repro.reference`` produces —
same operator latencies, features, signatures, and job records, down to the
last float bit.  Anything less silently shifts every downstream benchmark
and trained model.  For a stock configuration the reference runs plan on
the ``PhysicalOp`` configuration (:func:`_on_operator_path`), so the replay
is compared with an independent search, not with itself.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np
import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.cost.default_model import DefaultCostModel
from repro.data.tpch import tpch_catalog
from repro.execution.batch import BatchedExecutionEngine
from repro.execution.hardware import DEFAULT_CLUSTERS, ClusterSpec
from repro.execution.simulator import ExecutionSimulator
from repro.features.table import FeatureTable
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.skeleton import supports_fast_path
from repro.reference import run_days_reference, run_job
from repro.workload.generator import ClusterWorkloadConfig, WorkloadGenerator
from repro.workload.runner import WorkloadRunner
from repro.workload.tpch_queries import TpchQuerySet
from tests.optimizer.test_golden_rules import operator_path


class OverriddenFormulaModel(DefaultCostModel):
    """A model whose formula the replay cannot reproduce: without
    ``supports_replay_costing`` its runs plan through ``QueryPlanner``."""

    def operator_cost(self, op, estimator, partition_override=None):
        return 2.0 * super().operator_cost(op, estimator, partition_override)


def _config(cluster_name: str, seed: int) -> ClusterWorkloadConfig:
    return ClusterWorkloadConfig(
        cluster_name=cluster_name,
        n_tables=5,
        n_fragments=9,
        n_templates=14,
        adhoc_fraction=0.12,
        seed=seed,
    )


def _on_operator_path(runner: WorkloadRunner) -> WorkloadRunner:
    """``runner``, its scalar path planning on the ``PhysicalOp``
    configuration: with a stock pair ``QueryPlanner.plan`` runs the replay
    the batched engine runs."""
    planner = runner._planner
    runner._planner = QueryPlanner(
        planner.cost_model, operator_path(planner.estimator), planner.config
    )
    return runner


def _run(cluster, seed: int, days, reference: bool, **runner_kwargs):
    generator = WorkloadGenerator(_config(cluster.name, seed))
    runner = WorkloadRunner(cluster=cluster, seed=seed, **runner_kwargs)
    if reference:
        _on_operator_path(runner)
    run = partial(run_days_reference, runner) if reference else runner.run_days
    return runner, run(generator, days)


@pytest.mark.parametrize("cluster", DEFAULT_CLUSTERS, ids=lambda c: c.name)
def test_batched_log_bitwise_identical_per_cluster(cluster):
    """Every record field matches exactly across all four clusters."""
    _, ref_log = _run(cluster, seed=7, days=[1, 2], reference=True)
    _, bat_log = _run(cluster, seed=7, days=[1, 2], reference=False)

    assert len(ref_log) == len(bat_log)
    for ref_job, bat_job in zip(ref_log.jobs, bat_log.jobs):
        # Dataclass equality covers every field, including the nested
        # operator records (features, signatures, latencies) bit for bit.
        assert ref_job == bat_job


def test_batched_path_is_actually_used():
    runner, _ = _run(DEFAULT_CLUSTERS[0], seed=3, days=[1], reference=False)
    assert runner._skeleton_planner is not None
    assert runner._engine is not None


def test_multi_day_parity_including_template_churn():
    """Days beyond the first exercise catalog drift and template churn."""
    cluster = DEFAULT_CLUSTERS[1]
    _, ref_log = _run(cluster, seed=11, days=range(1, 5), reference=True)
    _, bat_log = _run(cluster, seed=11, days=range(1, 5), reference=False)
    assert ref_log.jobs == bat_log.jobs


def test_columnar_table_matches_from_records_rebuild():
    """The adopted FeatureTable equals a from_records materialization."""
    cluster = DEFAULT_CLUSTERS[2]
    _, log = _run(cluster, seed=5, days=[1, 2], reference=False)
    adopted = log.to_table()
    rebuilt = FeatureTable.from_records(list(log.operator_records()))
    for column in (
        "input_card",
        "base_card",
        "output_card",
        "avg_row_bytes",
        "partition_count",
        "input_enc",
        "params_enc",
        "logical_count",
        "depth",
        "latency",
        "day",
        "is_adhoc",
    ):
        a, b = getattr(adopted, column), getattr(rebuilt, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    for name in ("strict", "approx", "input", "operator"):
        assert np.array_equal(
            adopted.signature_column(name), rebuilt.signature_column(name)
        )
    assert adopted.features.flags.c_contiguous and adopted.signatures.flags.c_contiguous
    assert adopted.cluster == rebuilt.cluster


def test_keep_plans_matches_reference_plans():
    """Materialized skeleton plans equal the reference planner's plans."""
    cluster = DEFAULT_CLUSTERS[0]
    ref_runner, ref_log = _run(
        cluster, seed=9, days=[1], reference=True, keep_plans=True
    )
    bat_runner, bat_log = _run(
        cluster, seed=9, days=[1], reference=False, keep_plans=True
    )
    assert set(ref_runner.plans) == set(bat_runner.plans)
    for job_id, ref_plan in ref_runner.plans.items():
        assert ref_plan.describe() == bat_runner.plans[job_id].describe()
    assert ref_log.jobs == bat_log.jobs


def test_runner_reuse_with_different_generator_stays_correct():
    """Template ids collide across generators; batched caches must not leak.

    Template ids (and fragment template tags) are only unique *within* one
    generator, so the skeleton and shape-statics caches reset when a runner
    sees a new generator.  The parity contract under reuse: a runner warmed
    on generator A must produce, for generator B, exactly what the scalar
    reference produces *on an equally warmed runner* — the shared simulator's
    hidden-multiplier cache is documented to assume one workload per
    instance, and that (pre-existing, scalar-path) semantic is preserved,
    not compounded, by the batched engine.
    """
    cluster = DEFAULT_CLUSTERS[0]

    def generators():
        return (
            WorkloadGenerator(_config(cluster.name, seed=0)),
            WorkloadGenerator(_config(cluster.name, seed=7)),
        )

    gen_a, gen_b = generators()
    scalar_runner = _on_operator_path(WorkloadRunner(cluster=cluster, seed=1))
    run_days_reference(scalar_runner, gen_a, [1])
    scalar_log = run_days_reference(scalar_runner, gen_b, [1])

    gen_a, gen_b = generators()
    batched_runner = WorkloadRunner(cluster=cluster, seed=1)
    batched_runner.run_days(gen_a, [1])  # warm the caches with A's templates
    batched_log = batched_runner.run_days(gen_b, [1])

    assert batched_log.jobs == scalar_log.jobs


def test_empty_day_set_yields_empty_log():
    cluster = DEFAULT_CLUSTERS[0]
    generator = WorkloadGenerator(_config(cluster.name, seed=1))
    runner = WorkloadRunner(cluster=cluster, seed=1)
    log = runner.run_days(generator, [])
    assert len(log) == 0
    assert len(log.to_table()) == 0


def test_non_stock_config_runs_on_the_engine_without_warning():
    """A formula-overriding cost model plans through ``QueryPlanner`` and
    executes on the same engine, silently and bit-exact.

    The replay gate is the ``supports_replay_costing`` capability, not the
    concrete class: only models whose pricing the replay cannot reproduce
    skip the skeleton planner.
    """
    cluster = DEFAULT_CLUSTERS[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning here is a regression
        runner, log = _run(
            cluster, seed=2, days=[1], reference=False, cost_model=OverriddenFormulaModel()
        )
    _, reference = _run(
        cluster, seed=2, days=[1], reference=True, cost_model=OverriddenFormulaModel()
    )
    assert len(log) > 0
    assert runner._skeleton_planner is None
    assert runner._engine is not None
    assert log.jobs == reference.jobs


def test_retuned_subclass_keeps_fast_path_with_parity():
    """Constants-only subclasses keep the fast path — and stay bit-exact.

    The old gate (``type(cost_model) is DefaultCostModel``) silently dropped
    any subclass to the scalar path; the capability flag keeps retuned
    models (formula intact, constants changed) on the batched engine.
    """
    from repro.cost.default_model import DefaultCostModel

    class TweakedModel(DefaultCostModel):
        inflation = 9.0

    cluster = DEFAULT_CLUSTERS[3]
    scalar_runner, ref_log = _run(
        cluster, seed=2, days=[1], reference=True, cost_model=TweakedModel()
    )
    batched_runner, bat_log = _run(
        cluster, seed=2, days=[1], reference=False, cost_model=TweakedModel()
    )
    assert batched_runner._skeleton_planner is not None
    assert ref_log.jobs == bat_log.jobs


def test_retuned_formula_keeps_fast_path_with_parity():
    """A subclass that rewrites only ``operator_cost_from_stats`` keeps the
    replay: the replay and ``operator_cost`` both call the model's own
    formula, so the plans stay the reference's bit for bit."""

    class RetunedFormula(DefaultCostModel):
        def operator_cost_from_stats(self, op_type, *stats):
            cost = super().operator_cost_from_stats(op_type, *stats)
            return 0.5 * cost + 2e-3 * stats[-1]  # a per-partition overhead

    model = RetunedFormula()
    assert supports_fast_path(model, CardinalityEstimator(), PlannerConfig())
    cluster = DEFAULT_CLUSTERS[3]
    _, ref_log = _run(cluster, seed=2, days=[1], reference=True, cost_model=model)
    batched_runner, bat_log = _run(
        cluster, seed=2, days=[1], reference=False, cost_model=RetunedFormula()
    )
    assert batched_runner._skeleton_planner is not None
    assert len(bat_log) > 0
    assert ref_log.jobs == bat_log.jobs


def test_tuned_cost_model_keeps_fast_path_with_parity():
    """TunedCostModel rides the stats-backed replay hook, bit-exact."""
    from repro.cost.tuned_model import TunedCostModel

    cluster = DEFAULT_CLUSTERS[1]
    _, ref_log = _run(
        cluster, seed=4, days=[1, 2], reference=True, cost_model=TunedCostModel()
    )
    batched_runner, bat_log = _run(
        cluster, seed=4, days=[1, 2], reference=False, cost_model=TunedCostModel()
    )
    assert batched_runner._skeleton_planner is not None
    assert ref_log.jobs == bat_log.jobs


def test_stock_config_reports_batched_path():
    """The stock configuration replays over skeletons, silently."""
    cluster = DEFAULT_CLUSTERS[0]
    generator = WorkloadGenerator(_config(cluster.name, seed=3))
    runner = WorkloadRunner(cluster=cluster, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning here is a regression
        log = runner.run_days(generator, [1])
        reference = run_days_reference(runner, generator, [1])
    assert len(log) > 0
    assert runner._skeleton_planner is not None
    assert len(reference) == len(log)


def test_day_by_day_calls_keep_one_days_skeletons():
    """A runner driven one day at a time (a nightly loop) keeps only the
    current day's skeletons: they are cached per ``(template, day)``, so an
    earlier day's can never hit again, and each call drops them (counted as
    evictions).  The logs stay the reference's, bit for bit."""
    cluster = DEFAULT_CLUSTERS[0]
    generator = WorkloadGenerator(_config(cluster.name, seed=5))
    runner = WorkloadRunner(cluster=cluster, seed=5)
    reference = _on_operator_path(WorkloadRunner(cluster=cluster, seed=5))
    for day in range(1, 8):
        log = runner.run_days(generator, [day])
        planner = runner._skeleton_planner
        stats = planner.stats()
        assert {key_day for _, key_day in planner._skeletons} == {day}
        assert stats.skeletons_cached <= len(generator.jobs_for_day(day))
        assert stats.skeleton_evictions == stats.skeleton_builds - stats.skeletons_cached
        assert log.jobs == run_days_reference(reference, generator, [day]).jobs


@pytest.mark.parametrize(
    "runner_kwargs",
    [
        {
            "planner_config": PlannerConfig(
                partition_strategy=SamplingStrategy("geometric"),
                partition_jitter=WorkloadRunner.DEFAULT_PARTITION_JITTER,
            )
        },
        {"cost_model": OverriddenFormulaModel()},
    ],
    ids=["sampling_strategy", "overridden_formula"],
)
@pytest.mark.parametrize("cluster", DEFAULT_CLUSTERS, ids=lambda c: c.name)
def test_planner_configurations_log_the_reference(cluster, runner_kwargs):
    """A configuration the replay does not serve plans through
    ``QueryPlanner`` and executes through ``add_plan``: bit-exact with the
    per-operator reference on every cluster."""
    runner, log = _run(cluster, seed=2, days=[1, 2], reference=False, **runner_kwargs)
    _, reference = _run(cluster, seed=2, days=[1, 2], reference=True, **runner_kwargs)
    assert runner._skeleton_planner is None
    assert len(log) > 0
    assert log.jobs == reference.jobs


def test_tpch_training_plans_through_add_plan_match_the_reference():
    """Figure 20's training log (22 TPC-H queries x 10 randomized runs on the
    default plans): ``add_plan`` + ``finish`` equals one reference
    ``run_job`` per plan, record for record."""
    catalog = tpch_catalog(1000.0)
    cluster = ClusterSpec(name="tpch")
    estimator = CardinalityEstimator()
    planner = QueryPlanner(
        DefaultCostModel(), estimator, PlannerConfig(partition_jitter=0.35)
    )
    queries = TpchQuerySet(catalog, seed=0)
    engine = BatchedExecutionEngine(ExecutionSimulator(cluster, seed=0))
    reference_simulator = ExecutionSimulator(cluster, seed=0)
    expected = []
    for run in range(10):
        for query in queries.all_queries(run=run):
            planner.jitter_salt = f"tpch_r{run}_q{query.query_id}"
            plan = planner.plan(query.plan).plan
            job = {
                "job_id": f"q{query.query_id}_r{run}",
                "template_id": f"q{query.query_id}",
                "day": 1 + run % 2,
            }
            engine.add_plan(plan, estimator, **job)
            expected.append(
                run_job(reference_simulator, plan, estimator=estimator, **job).record
            )
    records = engine.finish()
    assert len(records) == 220
    assert records == expected
