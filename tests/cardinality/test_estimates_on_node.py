"""Estimates are cached on the plan node, under the estimator's own tag.

There is no reset-between-plans protocol to know: one estimator may be held
across any number of plans, several estimators may read one plan, and a
fresh instance still pays for estimating its plan.  Test (a) is the
measurement that motivated the change — run it against a tree whose memo is
keyed by ``id(op)`` and most of the day's plans are priced wrongly.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

from repro.cardinality.cardlearner import CardLearner
from repro.cardinality.estimator import CardinalityEstimator, EstimatorConfig
from repro.cardinality.perfect import PerfectCardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.core.regression_control import DualPlanner
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import plan_cost
from repro.optimizer.planner import QueryPlanner
from repro.serving.service import CleoService
from repro.workload.templates import instantiate


def _day_jobs(bundle):
    """(spec, logical plan) for every job of the bundle's last logged day."""
    day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(day)
    return [(spec, instantiate(spec, catalog)) for spec in bundle.generator.jobs_for_day(day)]


def _spy(estimator):
    """Count the estimator's ``estimate_logical`` calls: one per node it
    actually computes, none for a node it serves from the slot."""
    calls = []
    formula = estimator.estimate_logical

    def counting(logical, child_estimates):
        calls.append(logical)
        return formula(logical, child_estimates)

    estimator.estimate_logical = counting
    return calls


def _n_logical(plan) -> int:
    return len({id(op) for op in plan.walk() if op.logical is not None})


class TestOneEstimatorManyPlans:
    def test_held_estimator_prices_every_plan_like_a_fresh_one(
        self, tiny_bundle, tiny_predictor
    ):
        """(a) One caller-held estimator over a day's plans, each plan freed
        before the next is built."""
        default = DefaultCostModel()
        service = CleoService(tiny_predictor)
        held = tiny_bundle.fresh_estimator()
        jobs = _day_jobs(tiny_bundle)
        stale = []
        for spec, logical in jobs:
            planner = QueryPlanner(default, tiny_bundle.fresh_estimator())
            planner.jitter_salt = spec.job_id
            plan = planner.plan(logical).plan
            reused = (
                default.plan_cost(plan, held),
                service.predict_plan(plan, held),
            )
            fresh = (
                default.plan_cost(plan, tiny_bundle.fresh_estimator()),
                service.predict_plan(plan, tiny_bundle.fresh_estimator()),
            )
            if reused != fresh:
                stale.append((spec.job_id, reused, fresh))
            del planner, plan
        assert len(jobs) >= 10
        assert not stale, f"{len(stale)} of {len(jobs)} plans priced from stale estimates: {stale[:3]}"

    def test_dual_planner_with_its_own_judge_estimator(self, tiny_bundle, tiny_predictor):
        """(b) The judge's estimator is not the planners' one."""
        judge = CleoCostModel(tiny_predictor)
        fresh = tiny_bundle.fresh_estimator
        planning = fresh()
        dual = DualPlanner(
            QueryPlanner(DefaultCostModel(), planning),
            QueryPlanner(judge, planning),
            judge,
            fresh(),
        )
        jobs = _day_jobs(tiny_bundle)
        assert len(jobs) >= 10
        for _, logical in jobs:
            outcome = dual.plan(logical)
            default_cost = plan_cost(judge, outcome.default_plan.plan, fresh())
            cleo_cost = plan_cost(judge, outcome.cleo_plan.plan, fresh())
            assert outcome.used_cleo == (cleo_cost <= default_cost)
            assert plan_cost(judge, outcome.chosen.plan, dual.estimator) == min(
                default_cost, cleo_cost
            )
            del outcome


class TestManyEstimatorsOnePlan:
    def test_interleaved_estimators_answer_as_alone(self, physical_join_plan):
        """(c) Different configs and an oracle subclass share the nodes of
        one plan without ever reading each other's entries."""
        makers = (
            lambda: CardinalityEstimator(EstimatorConfig(seed_salt="a")),
            lambda: CardinalityEstimator(EstimatorConfig(seed_salt="b")),
            lambda: CardinalityEstimator(EstimatorConfig(sigma_scale=0.25)),
            PerfectCardinalityEstimator,
        )
        live = [make() for make in makers]
        ops = list(physical_join_plan.walk())
        interleaved = [[est.estimate(op) for est in live] for op in ops]
        again = [[est.estimate(op) for est in live] for op in reversed(ops)][::-1]
        assert again == interleaved
        # "Alone": the same config on a clone of the plan nobody else touched.
        clone_ops = list(pickle.loads(pickle.dumps(physical_join_plan)).walk())
        for column, make in enumerate(makers):
            alone = make()
            assert [alone.estimate(op) for op in clone_ops] == [
                row[column] for row in interleaved
            ]
        columns = list(zip(*interleaved))
        assert len(set(columns[:3])) == 3  # the three configs really disagree
        assert list(columns[3]) == [op.true_card for op in ops]

    def test_second_instance_with_equal_config_recomputes(self, physical_join_plan):
        """(d) Sessions share no estimator state: what the load replays time."""
        plan = physical_join_plan
        first = CardinalityEstimator()
        first_calls = _spy(first)
        first.estimate(plan)
        assert len(first_calls) == _n_logical(plan)
        for op in plan.walk():
            first.estimate(op)
            first.estimate_input(op)
        assert len(first_calls) == _n_logical(plan)  # every re-read is a slot hit

        second = CardinalityEstimator()
        second_calls = _spy(second)
        assert second.estimate(plan) == first.estimate(plan)
        assert len(second_calls) == _n_logical(plan)

    def test_copies_of_a_plan_carry_no_servable_entry(self, physical_join_plan):
        """(e) A rebuilt node is a new node: nothing computed for another
        node is ever served for it."""
        plan = physical_join_plan
        estimator = CardinalityEstimator()
        calls = _spy(estimator)
        value = estimator.estimate(plan)
        assert plan.logical is not None
        for rebuilt, recomputed in (
            (replace(plan), 1),  # a new root over the same (cached) children
            (plan.with_partition_count(plan.partition_count + 1), 1),
            (copy.deepcopy(plan), _n_logical(plan)),
            (pickle.loads(pickle.dumps(plan)), _n_logical(plan)),
        ):
            before = len(calls)
            assert estimator.estimate(rebuilt) == value
            assert len(calls) - before == recomputed
        # A rebuilt root over *different* children gets its own estimate.
        grandchild = plan.children[0].children[0]
        pruned = replace(plan, children=(grandchild,))
        assert estimator.estimate(pruned) == CardinalityEstimator().estimate(pruned)


def _trained_on(*plans) -> CardLearner:
    learner = CardLearner()
    for plan in plans:
        for _ in range(learner.min_samples):
            learner.observe_plan(plan)
    learner.fit()
    return learner


class TestCardLearnerOnTheSlot:
    def test_refit_never_serves_the_previous_models_answers(
        self, physical_simple_plan, physical_join_plan
    ):
        plan = physical_join_plan
        ops = list(plan.walk())
        learner = CardLearner()
        for _ in range(learner.min_samples):
            learner.observe_plan(physical_simple_plan)
        covered = learner.fit()
        base_calls = _spy(learner.base)
        before = [learner.estimate(op) for op in ops]
        computed = len(base_calls)
        assert [learner.estimate(op) for op in ops] == before
        assert [learner.estimate_input(op) for op in ops]
        assert len(base_calls) == computed  # no subtree is walked twice

        for _ in range(learner.min_samples):
            learner.observe_plan(plan)
        assert learner.fit() > covered
        after = [learner.estimate(op) for op in ops]
        # Equal training, a plan nobody has estimated: the answers a refit
        # must give, whatever the live nodes cached before it.
        clone = pickle.loads(pickle.dumps(plan))
        twin = _trained_on(physical_simple_plan, plan)
        assert after == [twin.estimate(op) for op in clone.walk()]
        assert after != before
