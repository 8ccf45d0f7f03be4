"""Learned-cost skeleton replay parity (optimizer.skeleton + replan).

The skeleton replay under a learned cost model — and the fleet replanner's
lockstep batching on top of it — must be *bitwise* identical to the full
``QueryPlanner`` + ``CleoCostModel`` search: same plan shapes, same
partition counts, same estimated costs, same candidate counts, and (with
the prediction cache disabled, the optimizer-experiment default) the same
per-prediction model-lookup accounting.  These tests pin that contract over
the trained tiny bundle, over randomized ad-hoc templates, for every
partition strategy family, and through the sharded serving tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.core.cost_model import CleoCostModel
from repro.cost.default_model import DefaultCostModel
from repro.optimizer.partition import (
    AnalyticalStrategy,
    ExhaustiveStrategy,
    SamplingStrategy,
)
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob, replan_jobs
from repro.optimizer.skeleton import SkeletonPlanner, supports_fast_path
from repro.workload.templates import instantiate
from tests.optimizer.test_golden_rules import OperatorPathEstimator, digest


def _fingerprint(planned):
    return (
        tuple((op.op_type.value, op.partition_count) for op in planned.plan.walk()),
        planned.estimated_cost,
        planned.candidates_considered,
    )


def _specs(bundle, limit=None, instances=1):
    """(template_id, day, logical, salt) per instance of the test day.

    ``instances > 1`` replicates every job under distinct jitter salts — the
    recurring-fleet shape the lockstep driver batches over (several live
    instances of one ``(template_id, day)`` shape with different numbers).
    """
    day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(day)
    specs = bundle.generator.jobs_for_day(day)
    if limit is not None:
        specs = specs[:limit]
    out = []
    for spec in specs:
        logical = instantiate(spec, catalog)
        for k in range(instances):
            salt = spec.job_id if k == 0 else f"{spec.job_id}/rep{k}"
            out.append((spec.template.template_id, spec.day, logical, salt))
    return out

def _reference(jobs, model, config, predictor, estimator=None):
    """The ``PhysicalOp`` configuration, job by job."""
    planner = QueryPlanner(model, estimator or OperatorPathEstimator(), config)
    assert planner._replay is None
    predictor.reset_lookup_count()
    fps = []
    for _template_id, _day, logical, salt in jobs:
        planner.jitter_salt = salt
        fps.append(_fingerprint(planner.plan(logical)))
    return fps, predictor.lookup_count


def _replay(jobs, model, config, predictor):
    planner = SkeletonPlanner(model, CardinalityEstimator(), config)
    predictor.reset_lookup_count()
    fps = [
        _fingerprint(planner.replan_job(template_id, day, logical, salt))
        for template_id, day, logical, salt in jobs
    ]
    return fps, predictor.lookup_count


def _fleet(jobs, model, config, predictor):
    requests = [
        ReplanJob(salt, template_id, day, logical)
        for template_id, day, logical, salt in jobs
    ]
    predictor.reset_lookup_count()
    planned = replan_jobs(requests, model, CardinalityEstimator(), config)
    return [_fingerprint(p) for p in planned], predictor.lookup_count


class TestReplayParity:
    def test_structural_replay_matches_reference(self, tiny_bundle, tiny_predictor):
        jobs = _specs(tiny_bundle)
        config = PlannerConfig()
        ref_fps, ref_lookups = _reference(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        rep_fps, rep_lookups = _replay(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        assert ref_fps == rep_fps
        assert ref_lookups == rep_lookups

    @pytest.mark.parametrize(
        "strategy,max_partitions",
        [
            (SamplingStrategy(scheme="geometric"), 3000),
            (SamplingStrategy(scheme="uniform", n_samples=8), 500),
            (ExhaustiveStrategy(), 24),
            (AnalyticalStrategy(), 3000),
        ],
        ids=["geometric", "uniform", "exhaustive", "analytical"],
    )
    def test_partition_strategies_identical(
        self, tiny_bundle, tiny_predictor, strategy, max_partitions
    ):
        jobs = _specs(tiny_bundle, limit=6)
        config = PlannerConfig(
            partition_strategy=strategy, max_partitions=max_partitions
        )
        ref_fps, ref_lookups = _reference(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        rep_fps, rep_lookups = _replay(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        assert ref_fps == rep_fps
        assert ref_lookups == rep_lookups

    def test_randomized_adhoc_templates_identical(self, builder, tiny_predictor):
        """Parity across randomized shapes, not just recurring templates."""
        rng = np.random.default_rng(19)
        config = PlannerConfig(partition_jitter=0.35)
        reference = QueryPlanner(
            CleoCostModel(tiny_predictor), OperatorPathEstimator(), config
        )
        replay = SkeletonPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), config
        )
        for i in range(10):
            events = builder.filter(
                builder.scan("events_2024_01_01"),
                "value",
                float(rng.uniform(0.05, 0.9)),
                tag=f"sk:f{i}",
            )
            users = builder.filter(
                builder.scan("users_2024_01_01"),
                "country",
                float(rng.uniform(0.1, 0.9)),
                tag=f"sk:g{i}",
            )
            joined = builder.join(
                events, users,
                keys=("user_id", "user_id"),
                fanout=float(rng.uniform(0.05, 1.5)),
                tag=f"sk:j{i}",
            )
            agg = builder.aggregate(
                joined,
                keys=("country",),
                group_count=int(rng.integers(5, 5000)),
                tag=f"sk:a{i}",
            )
            logical = builder.output(agg, name=f"sk:o{i}")
            reference.jitter_salt = f"sk{i}"
            assert _fingerprint(reference.plan(logical)) == _fingerprint(
                replay.replan_job(f"sk-template{i}", 1, logical, f"sk{i}")
            )


class TestFleetReplanParity:
    def test_fleet_lockstep_matches_reference(self, tiny_bundle, tiny_predictor):
        """Multi-instance groups through the lockstep loop, bit for bit."""
        jobs = _specs(tiny_bundle, instances=3)
        config = PlannerConfig()
        ref_fps, ref_lookups = _reference(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        fleet_fps, fleet_lookups = _fleet(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        assert ref_fps == fleet_fps
        assert ref_lookups == fleet_lookups

    def test_fleet_with_partition_strategy_matches_reference(
        self, tiny_bundle, tiny_predictor
    ):
        jobs = _specs(tiny_bundle, limit=4, instances=2)
        config = PlannerConfig(
            partition_strategy=SamplingStrategy(scheme="geometric")
        )
        ref_fps, ref_lookups = _reference(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        fleet_fps, fleet_lookups = _fleet(
            jobs, CleoCostModel(tiny_predictor), config, tiny_predictor
        )
        assert ref_fps == fleet_fps
        assert ref_lookups == fleet_lookups

    def test_fleet_matches_scalar_oracle(self, tiny_bundle, tiny_predictor):
        """The reference schedule on a stock pair: the replay refuses it, so
        ``QueryPlanner`` plans it one ``operator_cost`` at a time."""
        jobs = _specs(tiny_bundle, limit=5, instances=2)
        config = PlannerConfig()
        ref_fps, _ = _reference(
            jobs,
            CleoCostModel(tiny_predictor, batched=False),
            config,
            tiny_predictor,
            CardinalityEstimator(),
        )
        fleet_fps, _ = _fleet(jobs, CleoCostModel(tiny_predictor), config, tiny_predictor)
        assert ref_fps == fleet_fps

    def test_cache_enabled_service_plans_identical(
        self, tiny_bundle, tiny_predictor
    ):
        """A shared LRU service changes accounting, never plan choices."""
        from repro.serving.service import CleoService

        jobs = _specs(tiny_bundle, limit=6, instances=2)
        config = PlannerConfig()
        ref_fps, _ = _reference(
            jobs,
            CleoService(tiny_predictor).cost_model(),
            config,
            tiny_predictor,
        )
        fleet_fps, _ = _fleet(
            jobs,
            CleoService(tiny_predictor).cost_model(),
            config,
            tiny_predictor,
        )
        assert ref_fps == fleet_fps

    def test_sharded_cluster_client_plans_identical(
        self, tiny_bundle, tiny_predictor
    ):
        """The replay prices through the sharded tier unchanged."""
        from repro.serving.shard import ShardedCleoRouter

        jobs = _specs(tiny_bundle, limit=6, instances=2)
        config = PlannerConfig()

        def sharded_model():
            router = ShardedCleoRouter({"cluster1": tiny_predictor}, n_shards=3)
            return router.client("cluster1").cost_model()

        ref_fps, _ = _reference(jobs, sharded_model(), config, tiny_predictor)
        fleet_fps, _ = _fleet(jobs, sharded_model(), config, tiny_predictor)
        assert ref_fps == fleet_fps

    def test_empty_and_ordering(self, tiny_bundle, tiny_predictor):
        """No jobs -> no results; interleaved groups keep input order."""
        model = CleoCostModel(tiny_predictor)
        assert replan_jobs([], model) == []
        jobs = _specs(tiny_bundle, limit=3)
        interleaved = []
        for k in range(2):
            for template_id, day, logical, salt in jobs:
                interleaved.append((template_id, day, logical, f"{salt}/x{k}"))
        ref_fps, _ = _reference(
            interleaved, CleoCostModel(tiny_predictor), PlannerConfig(), tiny_predictor
        )
        fleet_fps, _ = _fleet(
            interleaved, CleoCostModel(tiny_predictor), PlannerConfig(), tiny_predictor
        )
        assert ref_fps == fleet_fps


class TestPlannerTelemetryAndGates:
    def test_stats_count_hits_builds_and_flushes(self, tiny_bundle, tiny_predictor):
        jobs = _specs(tiny_bundle, limit=4, instances=3)
        replanner = FleetReplanner(CleoCostModel(tiny_predictor))
        replanner.replan_jobs(
            [ReplanJob(salt, tid, day, logical) for tid, day, logical, salt in jobs]
        )
        groups = len({(tid, day) for tid, day, _logical, _salt in jobs})
        stats = replanner.stats()
        assert stats.jobs_replayed == len(jobs)
        assert stats.skeleton_builds == groups
        assert stats.skeleton_hits == len(jobs) - groups
        assert stats.skeletons_cached == groups
        assert stats.skeleton_evictions == 0
        assert stats.frontier_flushes > 0

    def test_a_cache_hit_of_another_structure_raises(self, builder):
        """Under one ``(template_id, day)``, a job whose structure is not the
        cached skeleton's — same node count, other operators or other keys,
        or another size — fails typed instead of replaying over the wrong
        skeleton (which planned the first job's query at the second's cost).
        A compile has no key to collide on: it plans each query right."""
        events = builder.filter(builder.scan("events_2024_01_01"), "value", 0.1, tag="t:f")
        by_user = builder.output(
            builder.aggregate(events, keys=("user_id",), group_count=50_000, tag="t:agg"),
            name="report",
        )
        by_value = builder.output(
            builder.aggregate(events, keys=("value",), group_count=50_000, tag="t:agg"),
            name="report",
        )
        joined = builder.output(
            builder.join(
                builder.scan("users_2024_01_01"),
                builder.scan("events_2024_01_01"),
                keys=("user_id", "user_id"),
                tag="t:j",
            ),
            name="o",
        )
        longer = builder.output(builder.sort(by_user.children[0], keys=("user_id",)))
        planner = SkeletonPlanner(DefaultCostModel(), CardinalityEstimator(), PlannerConfig())
        planner.replan_job("T", 1, by_user, "s")
        for other in (joined, by_value, longer):
            with pytest.raises(OptimizationError, match="template 'T' day 1"):
                planner.replan_job("T", 1, other, "s")
        assert planner.stats().skeleton_builds == 1
        planner.replan_job("T", 2, joined, "s")  # another key builds its own

        compiled = QueryPlanner(DefaultCostModel(), CardinalityEstimator(), PlannerConfig())
        reference = QueryPlanner(DefaultCostModel(), OperatorPathEstimator(), PlannerConfig())
        compiled.jitter_salt = reference.jitter_salt = "s"
        for logical in (by_user, joined, by_value, longer):
            assert digest(compiled.plan(logical)) == digest(reference.plan(logical))
        assert [op.op_type.value for op in compiled.plan(joined).plan.walk()] == [
            "Extract", "Exchange", "Extract", "Exchange", "HashJoin", "Output"
        ]

    def test_skeleton_cache_clears_at_limit(self, builder, tiny_predictor):
        planner = SkeletonPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), PlannerConfig()
        )
        planner._SKELETON_CACHE_LIMIT = 3
        logical = builder.output(
            builder.filter(builder.scan("events_2024_01_01"), "value", 0.4, tag="cap:f"),
            name="cap:o",
        )
        for i in range(7):
            planner.replan_job(f"cap-template{i}", 1, logical, f"cap{i}")
        stats = planner.stats()
        assert stats.skeleton_builds == 7
        assert stats.skeleton_evictions > 0
        assert stats.skeletons_cached <= 3

    def test_memo_and_choices_reset_per_job(self, tiny_bundle, tiny_predictor):
        jobs = _specs(tiny_bundle, limit=2)
        planner = SkeletonPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), PlannerConfig()
        )
        considered = []
        for template_id, day, logical, salt in jobs:
            planned = planner.replan_job(template_id, day, logical, salt)
            considered.append(planned.candidates_considered)
            # A finished search keeps no memo, no generator and no unpriced rows.
            assert planner._job.memo is None and planner._job.run is None
            assert planner._job.pending == []
        # Each job's count is bounded by its own template's frame count.
        assert all(0 < count < 200 for count in considered)

    def test_opaque_model_is_rejected(self):
        class OpaqueModel:
            def operator_cost(self, op, estimator, partition_override=None):
                return 1.0

        assert not supports_fast_path(
            OpaqueModel(), CardinalityEstimator(), PlannerConfig()
        )
        with pytest.raises(OptimizationError, match="supports_replay_costing"):
            SkeletonPlanner(OpaqueModel(), CardinalityEstimator(), PlannerConfig())

    def test_capability_flag_gates_fast_path(self, tiny_predictor):
        """supports_fast_path is a capability check, not a type check."""
        from repro.cost.default_model import DefaultCostModel
        from repro.cost.tuned_model import TunedCostModel

        config = PlannerConfig()
        estimator = CardinalityEstimator()

        class Retuned(DefaultCostModel):
            inflation = 9.0

        class RetunedFormula(DefaultCostModel):
            def operator_cost_from_stats(self, op_type, *stats):
                return 2.0 * super().operator_cost_from_stats(op_type, *stats)

        class OverriddenFormula(DefaultCostModel):
            def operator_cost(self, op, estimator, partition_override=None):
                return 2.0 * super().operator_cost(op, estimator, partition_override)

        assert supports_fast_path(DefaultCostModel(), estimator, config)
        assert supports_fast_path(Retuned(), estimator, config)
        assert supports_fast_path(RetunedFormula(), estimator, config)
        assert supports_fast_path(TunedCostModel(), estimator, config)
        assert supports_fast_path(CleoCostModel(tiny_predictor), estimator, config)
        assert not supports_fast_path(OverriddenFormula(), estimator, config)
        # Strategies stay excluded from the workload-engine gate (replan_job
        # runs the partition pass itself; the engine does not).
        assert not supports_fast_path(
            DefaultCostModel(),
            estimator,
            PlannerConfig(partition_strategy=SamplingStrategy()),
        )
