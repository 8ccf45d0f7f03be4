"""Sibling sub-searches suspend together (optimizer.search, ``_optimize``).

A frame that searches several child frames starts them all and suspends once
for all of them, so a deferred search flushes once per level of its critical
path — computed here from the logical plan alone — however many comparing
frames it has; the rows still pending when it finishes (stragglers) are
dropped unread.  What that must not change: plans, costs, candidate counts,
cache-off lookups (up to the unread rows), and the choice key, which is read
off the frames in call order and so cannot depend on who completes first.
"""

from __future__ import annotations

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.core.cost_model import CleoCostModel
from repro.core.predictor import CleoPredictor
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.optimizer.skeleton import SkeletonPlanner
from repro.plan.logical import LogicalOp, LogicalOpType
from repro.workload.templates import instantiate
from tests.optimizer.test_batched_planning import _fingerprint
from tests.optimizer.test_golden_rules import OperatorPathEstimator

_RELAXING = (LogicalOpType.PROCESS, LogicalOpType.OUTPUT, LogicalOpType.UNION)


def critical_path(root: LogicalOp) -> int:
    """Suspensions of one deferred search under the default config.

    A frame's level is its deepest child frame's, plus one if it compares
    candidates: a join (either build side, merge join), an aggregate (hash,
    stream, local pre-aggregation), and a filter/projection that is asked for
    more than (ANY, unsorted) — push-down against enforcement above.
    """
    levels: dict[tuple[int, bool], int] = {}

    def level(node: LogicalOp, relaxed: bool) -> int:
        key = (id(node), relaxed)
        if key not in levels:
            kind = node.op_type
            if kind is LogicalOpType.GET:
                found = 0
            elif kind in _RELAXING:
                found = max(level(child, True) for child in node.children)
            elif kind in (LogicalOpType.SORT, LogicalOpType.TOP_K):
                found = level(node.children[0], False)
            elif kind is LogicalOpType.JOIN:
                found = 1 + max(level(child, False) for child in node.children)
            elif relaxed and kind is not LogicalOpType.AGGREGATE:
                found = level(node.children[0], True)  # filter/project, one candidate
            else:
                (child,) = node.children
                found = 1 + max(level(child, False), level(child, True))
            levels[key] = found
        return levels[key]

    return level(root, True)


@pytest.fixture(scope="module")
def test_day_jobs(tiny_bundle) -> list[ReplanJob]:
    day = tiny_bundle.log.days[-1]
    catalog = tiny_bundle.generator.catalog_for_day(day)
    return [
        ReplanJob(spec.job_id, spec.template.template_id, day, instantiate(spec, catalog))
        for spec in tiny_bundle.generator.jobs_for_day(day)
    ]


def _solo(model, config=None) -> SkeletonPlanner:
    return SkeletonPlanner(model, CardinalityEstimator(), config or PlannerConfig())


def _replan(planner: SkeletonPlanner, job: ReplanJob):
    return planner.replan_job(job.template_id, job.day, job.logical, job.salt)


class TestChoiceKeyIsScheduleIndependent:
    def test_deferred_scalar_and_fleet_keys_agree_on_every_job(
        self, test_day_jobs, tiny_predictor
    ):
        """The interleaved search completes frames in another order than the
        sequential one; the key lists them in call order either way."""
        deferred = _solo(CleoCostModel(tiny_predictor))
        scalar = _solo(CleoCostModel(tiny_predictor, batched=False))
        keys = []
        for job in test_day_jobs:
            assert _fingerprint(_replan(deferred, job)) == _fingerprint(_replan(scalar, job))
            assert deferred.last_choice_key == scalar.last_choice_key
            keys.append(scalar.last_choice_key)
            assert keys[-1][0] == job.template_id and len(keys[-1][1]) > 3
        assert len(set(keys)) > 8  # several shapes, not one key repeated

        fleet = FleetReplanner(CleoCostModel(tiny_predictor))
        fleet.replan_jobs(test_day_jobs)
        assert fleet.last_choice_keys == keys


class TestFlushesFollowTheCriticalPath:
    def test_every_job_flushes_once_per_level(
        self, test_day_jobs, tiny_predictor
    ):
        depths = set()
        for job in test_day_jobs:
            depth = critical_path(job.logical)
            planner = _solo(CleoCostModel(tiny_predictor))
            _replan(planner, job)
            assert planner.stats().frontier_flushes == depth, job.template_id
            assert planner.stats().rows_unread > 0
            depths.add(depth)
        assert len(depths) > 2 and max(depths) > 3

    def test_a_partition_strategy_adds_one_grid(self, test_day_jobs, tiny_predictor):
        config = PlannerConfig(partition_strategy=SamplingStrategy(scheme="geometric"))
        for job in test_day_jobs[:8]:
            model = CleoCostModel(tiny_predictor)
            _replan(_solo(model, config), job)
            assert model.service.stats().batches == critical_path(job.logical) + 1

    def test_a_join_flushes_once_for_both_sides(self, builder, tiny_predictor):
        """Each input is a filter under a hash requirement: two candidates,
        four such frames (hash and merge-join inputs), one flush for all."""
        users = builder.filter(builder.scan("users_2024_01_01"), "country", 0.5, tag="s:fu")
        events = builder.filter(builder.scan("events_2024_01_01"), "ts", 0.2, tag="s:fe")
        joined = builder.join(users, events, keys=("user_id", "user_id"), tag="s:j")
        root = builder.output(joined, name="s:o")
        assert critical_path(root) == 2  # the filters, then the join
        planner = _solo(CleoCostModel(tiny_predictor))
        planned = planner.replan_job("s-join", 1, root, "s-join")
        assert planner.stats().frontier_flushes == 2
        *inputs, mask, join, output = planner.last_choice_key[1]
        assert (mask, join % 16, output) == (7, 3, 1)  # all three joins in play
        assert [packed % 16 for packed in inputs].count(2) == 4  # the filter frames
        scalar = QueryPlanner(
            CleoCostModel(tiny_predictor, batched=False), OperatorPathEstimator()
        )
        scalar.jitter_salt = "s-join"
        assert _fingerprint(planned) == _fingerprint(scalar.plan(root))

    @pytest.mark.parametrize("n_inputs", [2, 3, 6])
    def test_a_union_flushes_as_often_as_one_input(self, builder, tiny_predictor, n_inputs):
        events = builder.scan("events_2024_01_01")
        inputs = [
            builder.aggregate(
                builder.filter(events, "value", 0.1 * (i + 1), tag=f"s:f{i}"),
                keys=("user_id",),
                group_count=1000.0 * (i + 1),
                tag=f"s:a{i}",
            )
            for i in range(n_inputs)
        ]
        root = builder.output(builder.union(*inputs, tag="s:u"), name="s:o")
        assert critical_path(root) == 2  # filter under the aggregate, aggregate
        planner = _solo(CleoCostModel(tiny_predictor))
        planner.replan_job(f"s-union-{n_inputs}", 1, root, "s-union")
        assert planner.stats().frontier_flushes == 2


class TestSharedSubexpression:
    def test_open_in_two_siblings_searched_once(self, builder, tiny_predictor):
        """The Q17 shape: one branch is both a join input and, under an
        aggregate, the other join input — its frames are wanted by two
        siblings that are open at once."""
        shared = builder.filter(builder.scan("events_2024_01_01"), "ts", 0.3, tag="s:shared")
        averaged = builder.aggregate(shared, keys=("user_id",), group_count=50_000, tag="s:avg")
        joined = builder.join(shared, averaged, keys=("user_id", "user_id"), fanout=0.1, tag="s:j")
        root = builder.output(joined, name="s:o")

        scalar_model = CleoCostModel(tiny_predictor, batched=False)
        scalar = _solo(scalar_model)
        tiny_predictor.reset_lookup_count()
        expected = scalar.replan_job("s-q17", 1, root, "s-q17")
        lookups = tiny_predictor.lookup_count

        deferred = _solo(CleoCostModel(tiny_predictor))
        tiny_predictor.reset_lookup_count()
        planned = deferred.replan_job("s-q17", 1, root, "s-q17")
        unread = deferred.stats().rows_unread
        assert unread > 0 and scalar.stats().rows_unread == 0
        assert (
            tiny_predictor.lookup_count + unread * CleoPredictor.LOOKUPS_PER_PREDICTION
            == lookups
        )
        assert _fingerprint(planned) == _fingerprint(expected)
        assert planned.candidates_considered == expected.candidates_considered
        assert deferred.last_choice_key == scalar.last_choice_key
        assert deferred.stats().frontier_flushes == critical_path(root)

        reference = QueryPlanner(scalar_model, OperatorPathEstimator())
        reference.jitter_salt = "s-q17"
        assert _fingerprint(reference.plan(root)) == _fingerprint(expected)


class TestErrorInsideOneSibling:
    def test_it_propagates_and_the_next_job_starts_clean(
        self, builder, test_day_jobs, tiny_predictor
    ):
        """A join no orientation can align (see ``test_fleet_waves``) is one
        input of a union: it fails while its sibling is suspended."""
        users = builder.sort(
            builder.filter(builder.scan("users_2024_01_01"), "country", 0.5, tag="e:fu"),
            keys=("user_id",),
            tag="e:s",
        )
        events = builder.filter(builder.scan("events_2024_01_01"), "ts", 0.9, tag="e:fe")
        bad = builder.join(users, events, keys=("user_id", "user_id"), tag="e:j")
        good = builder.aggregate(events, keys=("user_id",), group_count=1000, tag="e:a")
        for inputs in ((bad, good), (good, bad)):
            root = builder.output(builder.union(*inputs, tag="e:u"), name="e:o")
            planner = _solo(CleoCostModel(tiny_predictor))
            with pytest.raises(OptimizationError, match="no implementation"):
                planner.replan_job("e-union", 1, root, "e-union")
            # It failed at the join, after its inputs and its sibling suspended.
            assert planner.stats().frontier_flushes > 0
            for job in test_day_jobs[:4]:
                fresh = _solo(CleoCostModel(tiny_predictor))
                assert _fingerprint(_replan(planner, job)) == _fingerprint(_replan(fresh, job))
                assert planner.last_choice_key == fresh.last_choice_key
                assert planner._job.memo is None and planner._job.pending == []
