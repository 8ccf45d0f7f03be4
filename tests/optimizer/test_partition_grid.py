"""Partition exploration priced as P-grids (optimizer.partition + cost_model).

For a batched learned cost model, ``optimize_partitions`` prices a plan's
whole exploration as two columnar grids — every stage's candidate sweep in
one ``price_stage_sweep`` call, every stage's guard probes in another —
through ``predict_table``.  The contract is the scalar planner's, bit for
bit: ``CleoCostModel(batched=False)`` probing one ``(stage, candidate,
operator)`` at a time is the oracle, for every strategy family, guard on and
off, on a bare service with the prediction cache off and on, and through the
sharded router.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import FeatureValidationError
from repro.core.cost_model import CleoCostModel
from repro.core.predictor import CleoPredictor
from repro.cost.interface import plan_cost
from repro.features.extract import feature_input_for
from repro.optimizer.partition import (
    AnalyticalStrategy,
    ExhaustiveStrategy,
    SamplingStrategy,
    _stage_is_fixed,
    optimize_partitions,
)
from repro.plan.physical import PhysicalOp, PhysOpType
from repro.plan.properties import Partitioning
from repro.plan.signatures import SignatureBundle
from repro.plan.stages import build_stage_graph
from repro.serving.service import CleoService
from repro.serving.shard.router import ShardedCleoRouter
from tests.serving.test_validation import corrupt_most_specific

STRATEGIES = [
    pytest.param(SamplingStrategy(scheme="geometric"), 3000, id="geometric"),
    pytest.param(SamplingStrategy(scheme="uniform", n_samples=8), 500, id="uniform"),
    pytest.param(SamplingStrategy(scheme="random", n_samples=8, seed=3), 500, id="random"),
    pytest.param(ExhaustiveStrategy(), 24, id="exhaustive"),
    pytest.param(AnalyticalStrategy(), 3000, id="analytical"),
]


def _plans(bundle, limit=6):
    jobs = list(bundle.test_log())[:limit]
    return [bundle.runner.plans[job.job_id] for job in jobs]


def _explore(model, plans, strategy, max_partitions, guard):
    """Per plan: the rebuilt plan, every stage's count, the estimated cost
    (``plan_cost`` of the rebuilt plan — what ``QueryPlanner.plan`` reports)."""
    out = []
    for plan in plans:
        estimator = CardinalityEstimator()
        rebuilt = optimize_partitions(
            plan, model, estimator, strategy, max_partitions=max_partitions, guard=guard
        )
        out.append(
            (
                [(op.op_type.value, op.partition_count) for op in rebuilt.walk()],
                [stage.partition_count for stage in build_stage_graph(rebuilt).stages],
                plan_cost(model, rebuilt, estimator),
            )
        )
    return out


class TestGridEqualsScalarOracle:
    @pytest.fixture(scope="class")
    def oracle(self, tiny_bundle, tiny_predictor):
        """Scalar results and lookups, memoized per (strategy, guard)."""
        memo = {}

        def run(strategy, max_partitions, guard):
            key = (strategy.name, getattr(strategy, "scheme", ""), guard)
            if key not in memo:
                tiny_predictor.reset_lookup_count()
                results = _explore(
                    CleoCostModel(tiny_predictor, batched=False),
                    _plans(tiny_bundle),
                    strategy,
                    max_partitions,
                    guard,
                )
                memo[key] = (results, tiny_predictor.lookup_count)
            return memo[key]

        return run

    @pytest.mark.parametrize("guard", [True, False], ids=["guard", "noguard"])
    @pytest.mark.parametrize("strategy,max_partitions", STRATEGIES)
    def test_service_cache_off_values_and_lookups(
        self, tiny_bundle, tiny_predictor, oracle, strategy, max_partitions, guard
    ):
        expected, expected_lookups = oracle(strategy, max_partitions, guard)
        tiny_predictor.reset_lookup_count()
        got = _explore(
            CleoCostModel(tiny_predictor), _plans(tiny_bundle), strategy, max_partitions, guard
        )
        assert got == expected
        assert tiny_predictor.lookup_count == expected_lookups

    @pytest.mark.parametrize("guard", [True, False], ids=["guard", "noguard"])
    @pytest.mark.parametrize("strategy,max_partitions", STRATEGIES)
    def test_service_cache_on(
        self, tiny_bundle, tiny_predictor, oracle, strategy, max_partitions, guard
    ):
        expected, _ = oracle(strategy, max_partitions, guard)
        service = CleoService(tiny_predictor)
        assert service.prediction_cache_enabled
        got = _explore(
            service.cost_model(), _plans(tiny_bundle), strategy, max_partitions, guard
        )
        assert got == expected
        assert service.stats().scalar_predictions == 0

    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("guard", [True, False], ids=["guard", "noguard"])
    @pytest.mark.parametrize("strategy,max_partitions", STRATEGIES)
    def test_through_the_router(
        self, tiny_bundle, tiny_predictor, oracle, strategy, max_partitions, guard, n_shards
    ):
        expected, expected_lookups = oracle(strategy, max_partitions, guard)
        args = (_plans(tiny_bundle), strategy, max_partitions, guard)
        with ShardedCleoRouter({"c": tiny_predictor}, n_shards=n_shards) as router:
            assert _explore(router.cost_model("c"), *args) == expected
            assert router.stats().degraded_predictions == 0
        tiny_predictor.reset_lookup_count()
        with ShardedCleoRouter(
            {"c": tiny_predictor}, n_shards=n_shards, prediction_cache_size=0
        ) as router:
            assert _explore(router.cost_model("c"), *args) == expected
            assert router.lookup_count == expected_lookups

    def test_exploration_is_at_most_two_pricing_calls(self, tiny_bundle, tiny_predictor):
        """One grid for every stage's candidates, one for the guard probes
        (issued only when some stage's pick differs from its current count)."""
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        seen = set()
        for plan in _plans(tiny_bundle):
            stages = build_stage_graph(plan).stages
            explored = any(not _stage_is_fixed(stage.operators) for stage in stages)
            for guard in (False, True):
                before = service.stats().batches
                optimize_partitions(
                    plan, service.cost_model(), CardinalityEstimator(),
                    SamplingStrategy(), guard=guard,
                )  # fmt: skip
                calls = service.stats().batches - before
                seen.add(calls)
                assert calls <= (1 + guard if explored else 0)
        assert 2 in seen  # the two-grid case really occurred


class _Unpriceable:
    """A batched cost model that must never be asked for a price."""

    supports_batched_pricing = True

    def price_stage_sweep(self, stages, estimator, candidates):
        raise AssertionError("priced a plan with nothing to explore")

    operator_cost = price_stage_sweep


class _Flat:
    """Every stage costs the same at every partition count: all ties."""

    def __init__(self, batched: bool) -> None:
        self.supports_batched_pricing = batched

    def price_stage_sweep(self, stages, estimator, candidates):
        return [[1.0] * len(probes) for probes in candidates]

    def operator_cost(self, op, estimator, partition_override=None):
        return 1.0


class TestEdges:
    def test_all_fixed_plan_issues_no_pricing_call(self, builder):
        scan = builder.scan("users_2024_01_01")
        leaf = PhysicalOp(
            PhysOpType.EXTRACT, (), scan, partition_count=1,
            partitioning=Partitioning.singleton(),
        )  # fmt: skip
        plan = PhysicalOp(
            PhysOpType.OUTPUT, (leaf,), builder.output(scan), partition_count=1,
            partitioning=Partitioning.singleton(),
        )  # fmt: skip
        assert all(_stage_is_fixed(s.operators) for s in build_stage_graph(plan).stages)
        for strategy in (SamplingStrategy(), ExhaustiveStrategy(), AnalyticalStrategy()):
            same = optimize_partitions(plan, _Unpriceable(), CardinalityEstimator(), strategy)
            assert same is plan

    @pytest.mark.parametrize("batched", [True, False], ids=["grid", "scalar"])
    @pytest.mark.parametrize(
        "strategy", [SamplingStrategy(), SamplingStrategy("uniform"), ExhaustiveStrategy()]
    )
    def test_stage_tie_resolves_to_smallest_candidate(self, tiny_bundle, strategy, batched):
        smallest = min(strategy.candidates(64))
        for plan in _plans(tiny_bundle):
            rebuilt = optimize_partitions(
                plan, _Flat(batched), CardinalityEstimator(), strategy,
                max_partitions=64, guard=False,
            )  # fmt: skip
            for stage in build_stage_graph(rebuilt).stages:
                if not _stage_is_fixed(stage.operators):
                    assert stage.partition_count == smallest
            # With the guard on, a tie never moves a stage.
            kept = optimize_partitions(
                plan, _Flat(batched), CardinalityEstimator(), strategy, max_partitions=64
            )
            assert kept is plan

    @pytest.mark.parametrize("cache_size", [0, 1024], ids=["cache-off", "cache-on"])
    def test_non_finite_stem_is_rejected(self, tiny_predictor, builder, cache_size):
        scan = replace(builder.scan("events_2024_01_01"), true_card=float("inf"))
        leaf = PhysicalOp(
            PhysOpType.EXTRACT, (), scan, partition_count=8, partitioning=Partitioning.any()
        )
        estimator = CardinalityEstimator()
        service = CleoService(tiny_predictor, prediction_cache_size=cache_size)
        with pytest.raises(FeatureValidationError):
            service.cost_model().price_stage_sweep([[leaf]], estimator, [[1, 2, 4]])
        with ShardedCleoRouter(
            {"c": tiny_predictor}, n_shards=3, prediction_cache_size=cache_size
        ) as router:
            with pytest.raises(FeatureValidationError):
                router.cost_model("c").price_stage_sweep([[leaf]], estimator, [[1, 2, 4]])
            assert router.stats().degraded_predictions == 0  # not a shard fault

    def test_poisoned_model_is_quarantined_as_on_predict_inputs(self, tiny_bundle):
        """The grid goes through ``predict_table``'s output validation: a NaN
        model is quarantined and the rows repaired to exactly the values the
        ``predict_inputs`` path (cache on: ``predict_batch``) repairs them to."""
        plan = _plans(tiny_bundle, limit=1)[0]
        stage = max(build_stage_graph(plan).stages, key=lambda s: len(s.operators))
        ops = stage.operators
        probes = [1, 3, 17, 250]
        estimator = CardinalityEstimator()

        def poisoned_service(**kwargs):
            store = copy.deepcopy(tiny_bundle.predictor().store)
            victim = next(
                op for op in ops if store.most_specific(SignatureBundle.of(op))
            )
            corrupt_most_specific(store, SignatureBundle.of(victim))
            # Store-only: a combined tree ensemble would mask the NaN.
            return CleoService(CleoPredictor(store=store, combined=None), **kwargs)

        grid = poisoned_service()
        totals = grid.cost_model().price_stage_sweep([ops], estimator, [probes])[0]

        reference = poisoned_service()
        expected = []
        for p in probes:
            values = reference.predict_inputs(
                [feature_input_for(op, estimator, p) for op in ops],
                [SignatureBundle.of(op) for op in ops],
            )
            expected.append(sum(float(v) for v in values))
        assert totals == expected
        assert all(t >= 0.0 and t == t and t != float("inf") for t in totals)
        ours, theirs = grid.stats(), reference.stats()
        assert ours.quarantined_models == theirs.quarantined_models >= 1
        assert ours.degraded_predictions >= 1
        assert grid.store.count() == reference.store.count()
        # Repaired once, the bank stays clean: a second sweep degrades nothing.
        again = grid.cost_model().price_stage_sweep([ops], estimator, [probes])[0]
        assert again == totals
        assert grid.stats().degraded_predictions == ours.degraded_predictions
