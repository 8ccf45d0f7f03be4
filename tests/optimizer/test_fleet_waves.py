"""Cross-template pricing waves (optimizer.replan over the resumable search).

``FleetReplanner.replan_jobs`` opens one search per job, whatever its
template, advances every open search to its next suspension and prices all
the still-open ones' pending ledger rows in one call; a finished search's
stragglers are dropped unread.  These tests pin what that must not change —
plans, costs and lookup accounting against a per-job scalar
``QueryPlanner`` on the ``PhysicalOp`` configuration (minus the unread rows),
in any job order — and what it must change: the number of pricing calls
follows the deepest job, not the fleet size (what a job's depth is:
``test_sibling_waves``).
"""

from __future__ import annotations

import random

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.core.cost_model import CleoCostModel
from repro.core.predictor import CleoPredictor
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.optimizer.skeleton import SkeletonPlanner
from repro.workload.templates import instantiate
from tests.optimizer.test_golden_rules import OperatorPathEstimator
from tests.optimizer.test_sibling_waves import critical_path


def _fingerprint(planned):
    return (
        tuple((op.op_type.value, op.partition_count) for op in planned.plan.walk()),
        planned.estimated_cost,
        planned.candidates_considered,
    )


@pytest.fixture(scope="module")
def distinct_jobs(tiny_bundle) -> list[ReplanJob]:
    """One instance of every template of the test day: no two jobs share a
    ``(template_id, day)``, the case that got no cross-job batching before."""
    day = tiny_bundle.log.days[-1]
    catalog = tiny_bundle.generator.catalog_for_day(day)
    jobs: dict[str, ReplanJob] = {}
    for spec in tiny_bundle.generator.jobs_for_day(day):
        template_id = spec.template.template_id
        if template_id not in jobs:
            jobs[template_id] = ReplanJob(
                spec.job_id, template_id, spec.day, instantiate(spec, catalog)
            )
    assert len(jobs) > 8
    return list(jobs.values())


@pytest.fixture(scope="module")
def scalar_reference(distinct_jobs, tiny_predictor):
    """Per-job ``QueryPlanner`` on the scalar serving path (the reference
    schedule, which it plans on the ``PhysicalOp`` configuration):
    fingerprints by job id, and the model lookups the whole loop made —
    every costed candidate priced."""
    planner = QueryPlanner(
        CleoCostModel(tiny_predictor, batched=False),
        CardinalityEstimator(),
        PlannerConfig(),
    )
    assert planner._replay is None
    tiny_predictor.reset_lookup_count()
    fingerprints = {}
    for job in distinct_jobs:
        planner.jitter_salt = job.salt
        fingerprints[job.job_id] = _fingerprint(planner.plan(job.logical))
    return fingerprints, tiny_predictor.lookup_count


def _replan(jobs, model):
    """Fleet fingerprints by job id, and the replanner."""
    replanner = FleetReplanner(model, CardinalityEstimator(), PlannerConfig())
    planned = replanner.replan_jobs(jobs)
    return {job.job_id: _fingerprint(p) for job, p in zip(jobs, planned)}, replanner


def _unpriced(replanner) -> int:
    """The model lookups of the rows ``replanner`` dropped unread."""
    return replanner.stats().rows_unread * CleoPredictor.LOOKUPS_PER_PREDICTION


def _alignment_failure(builder):
    """A join no orientation can align: the sorted side is SINGLETON (it
    satisfies every hash requirement, so no exchange re-partitions it) and
    the other side needs many partitions."""
    users = builder.sort(
        builder.filter(builder.scan("users_2024_01_01"), "country", 0.5, tag="w:fu"),
        keys=("user_id",),
        tag="w:s",
    )
    events = builder.filter(builder.scan("events_2024_01_01"), "ts", 0.9, tag="w:fe")
    joined = builder.join(
        users, events, keys=("user_id", "user_id"), fanout=1.0, tag="w:j"
    )
    return builder.output(joined, name="w:o")


class TestWaveParity:
    def test_distinct_templates_match_scalar_reference(
        self, distinct_jobs, scalar_reference, tiny_predictor
    ):
        reference, reference_lookups = scalar_reference
        tiny_predictor.reset_lookup_count()
        fingerprints, replanner = _replan(distinct_jobs, CleoCostModel(tiny_predictor))
        assert fingerprints == reference
        # Cache disabled: every ledger row is priced once or dropped unread.
        assert _unpriced(replanner) > 0
        assert tiny_predictor.lookup_count + _unpriced(replanner) == reference_lookups

    def test_job_order_changes_nothing(self, distinct_jobs, tiny_predictor):
        fingerprints, _ = _replan(distinct_jobs, CleoCostModel(tiny_predictor))
        shuffled = list(distinct_jobs)
        random.Random(7).shuffle(shuffled)
        for order in (distinct_jobs[::-1], shuffled):
            assert order != distinct_jobs
            again, _ = _replan(order, CleoCostModel(tiny_predictor))
            assert again == fingerprints

    def test_plans_match_solo_search(self, distinct_jobs, tiny_predictor):
        fingerprints, _ = _replan(distinct_jobs, CleoCostModel(tiny_predictor))
        solo = SkeletonPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), PlannerConfig()
        )
        for job in distinct_jobs:
            planned = solo.replan_job(job.template_id, job.day, job.logical, job.salt)
            assert fingerprints[job.job_id] == _fingerprint(planned)

    def test_sharded_router_with_cache_prices_the_same(
        self, distinct_jobs, scalar_reference, tiny_predictor
    ):
        """A cache in front of the shards changes who answers, not what."""
        from repro.serving.shard import ShardedCleoRouter

        reference, _ = scalar_reference
        with ShardedCleoRouter(
            {"cluster1": tiny_predictor}, n_shards=2, prediction_cache_size=4096
        ) as router:
            assert router.service_for("cluster1", 0).prediction_cache_enabled
            cold, _ = _replan(distinct_jobs, router.cost_model("cluster1"))
            warm, _ = _replan(distinct_jobs, router.cost_model("cluster1"))
            assert router.stats().hit_rate > 0.0
        assert cold == reference
        assert warm == reference

    def test_live_search_limit_only_adds_waves(
        self, distinct_jobs, scalar_reference, tiny_predictor
    ):
        """Past the bound, retired searches are replaced one for one."""
        reference, reference_lookups = scalar_reference
        replanner = FleetReplanner(CleoCostModel(tiny_predictor))
        replanner.planner._LIVE_SEARCH_LIMIT = 3
        tiny_predictor.reset_lookup_count()
        planned = replanner.replan_jobs(distinct_jobs)
        assert {
            job.job_id: _fingerprint(p) for job, p in zip(distinct_jobs, planned)
        } == reference
        assert tiny_predictor.lookup_count + _unpriced(replanner) == reference_lookups


class TestWaveCount:
    def test_flushes_follow_the_deepest_job_not_the_fleet(
        self, distinct_jobs, tiny_predictor
    ):
        """One wave per level of the deepest job's critical path: the wave in
        which it finishes prices nothing, its stragglers are dropped."""
        deepest = max(critical_path(job.logical) for job in distinct_jobs)
        assert deepest > 3

        _fps, replanner = _replan(distinct_jobs, CleoCostModel(tiny_predictor))
        flushes = replanner.stats().frontier_flushes
        assert flushes == deepest

        doubled = distinct_jobs + distinct_jobs
        assert len(doubled) <= SkeletonPlanner._LIVE_SEARCH_LIMIT
        _fps, replanner = _replan(doubled, CleoCostModel(tiny_predictor))
        assert replanner.stats().frontier_flushes == flushes


class TestPartitionedFinale:
    """With a partition strategy, a wave's exploration, guard and plan totals
    are one pricing call per ``_LIVE_SEARCH_LIMIT`` winners."""

    CONFIG = PlannerConfig(partition_strategy=SamplingStrategy(scheme="geometric"))

    @pytest.fixture(scope="class")
    def jobs(self, tiny_bundle) -> list[ReplanJob]:
        jobs = []
        for day in tiny_bundle.log.days[-2:]:
            catalog = tiny_bundle.generator.catalog_for_day(day)
            jobs += [
                ReplanJob(spec.job_id, spec.template.template_id, day, instantiate(spec, catalog))
                for spec in tiny_bundle.generator.jobs_for_day(day)
            ]
        assert len(jobs) > SkeletonPlanner._LIVE_SEARCH_LIMIT
        return jobs

    def test_one_grid_per_64_jobs_equals_the_per_job_loop(self, jobs, tiny_predictor):
        model = CleoCostModel(tiny_predictor)
        planner = QueryPlanner(model, OperatorPathEstimator(), self.CONFIG)
        solo = SkeletonPlanner(model, CardinalityEstimator(), self.CONFIG)
        tiny_predictor.reset_lookup_count()
        expected = []
        for job in jobs:
            planner.jitter_salt = job.salt
            expected.append(_fingerprint(planner.plan(job.logical)))
        lookups = tiny_predictor.lookup_count
        for job, fingerprint in zip(jobs, expected):
            planned = solo.replan_job(job.template_id, job.day, job.logical, job.salt)
            assert _fingerprint(planned) == fingerprint

        fleet = CleoCostModel(tiny_predictor)
        replanner = FleetReplanner(fleet, CardinalityEstimator(), self.CONFIG)
        tiny_predictor.reset_lookup_count()
        planned = replanner.replan_jobs(jobs)
        assert [_fingerprint(p) for p in planned] == expected
        assert tiny_predictor.lookup_count == lookups
        finale_calls = fleet.service.stats().batches - replanner.stats().frontier_flushes
        assert finale_calls == 2 == -(-len(jobs) // SkeletonPlanner._LIVE_SEARCH_LIMIT)

    def test_a_compiled_job_is_one_table_call_and_no_plan_cost(self, jobs, tiny_predictor):
        """Through the router: one ``predict_inputs`` per level of the
        search's critical path (no straggler flush), then a finale of
        exactly one ``predict_table``; no ``predict_batch`` (``plan_cost``)
        follows it."""
        from repro.serving.shard import ShardedCleoRouter

        with ShardedCleoRouter({"c": tiny_predictor}, n_shards=2) as router:
            calls = dict.fromkeys(("predict_inputs", "predict_table", "predict_batch"), 0)

            def counted(name, entry):
                def call(*args):
                    calls[name] += 1
                    return entry(*args)

                return call

            for name in calls:
                setattr(router, name, counted(name, getattr(router, name)))
            planner = QueryPlanner(router.cost_model("c"), CardinalityEstimator(), self.CONFIG)
            for job in jobs[:8]:
                calls.update(dict.fromkeys(calls, 0))
                planner.jitter_salt = job.salt
                planner.plan(job.logical)
                assert calls["predict_table"] == 1 and calls["predict_batch"] == 0
                assert calls["predict_inputs"] == critical_path(job.logical)


class TestErrorMidWave:
    def test_error_propagates_and_planner_stays_usable(
        self, builder, distinct_jobs, scalar_reference, tiny_predictor
    ):
        reference, _ = scalar_reference
        bad = ReplanJob("bad", "w-unalignable", 1, _alignment_failure(builder))
        solo = SkeletonPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), PlannerConfig()
        )
        with pytest.raises(OptimizationError, match="no implementation"):
            solo.replan_job(bad.template_id, bad.day, bad.logical, bad.salt)
        # It fails at the join, after its inputs suspended and were priced.
        assert solo.stats().frontier_flushes > 0

        replanner = FleetReplanner(CleoCostModel(tiny_predictor))
        middle = len(distinct_jobs) // 2
        jobs = distinct_jobs[:middle] + [bad] + distinct_jobs[middle:]
        with pytest.raises(OptimizationError, match="no implementation"):
            replanner.replan_jobs(jobs)

        planned = replanner.replan_jobs(distinct_jobs)
        assert {
            job.job_id: _fingerprint(p) for job, p in zip(distinct_jobs, planned)
        } == reference
