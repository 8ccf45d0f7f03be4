"""Partition exploration priced as one P-grid (optimizer.partition + cost_model).

For a batched learned cost model, ``explore_partitions`` prices a wave's whole
exploration as ONE columnar grid through ``predict_table`` — every stage's
candidate sweep, the guard's current-count probes and the rows the plan total
reads — and ``optimize_partitions`` is its one-plan view.  The contract is the
scalar planner's, bit for bit and lookup for lookup: ``CleoCostModel(batched=
False)`` pricing the same grid one ``(stage, candidate, operator)`` at a time
is the oracle, for every strategy family, guard on and off, on a bare service
with the prediction cache off and on, and through the sharded router.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import FeatureValidationError, InvalidPlanError, OptimizationError
from repro.core.config import CleoConfig
from repro.core.cost_model import CleoCostModel
from repro.core.predictor import CleoPredictor
from repro.core.trainer import CleoTrainer
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import plan_cost
from repro.features.extract import feature_input_for
from repro.features.table import FeatureTable
from repro.optimizer.partition import (
    AnalyticalStrategy,
    DefaultHeuristicStrategy,
    ExhaustiveStrategy,
    SamplingStrategy,
    _stage_is_fixed,
    _stage_total,
    explore_partitions,
    optimize_partitions,
)
from repro.optimizer.planner import QueryPlanner
from repro.plan.physical import PhysicalOp, PhysOpType
from repro.plan.properties import Partitioning
from repro.plan.signatures import SignatureBundle
from repro.plan.stages import build_stage_graph
from repro.serving.service import CleoService
from repro.serving.shard.router import ShardedCleoRouter
from tests.optimizer.test_search_configs import logical_plans
from tests.plan.test_subtree_summary import physical_plans
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
        plans = _plans(tiny_bundle)
        got = _explore(service.cost_model(), plans, strategy, max_partitions, guard)
        assert got == expected
        # Per plan: the exploration's one grid and the rebuilt plan's
        # ``plan_cost`` — never an operator at a time.
        assert service.stats().batches == 2 * len(plans)

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

    @pytest.mark.parametrize("guard", [True, False], ids=["guard", "noguard"])
    def test_exploration_is_exactly_one_pricing_call(self, tiny_bundle, tiny_predictor, guard):
        """One grid per plan: ``E x G' + F`` rows — per operator of an
        explorable stage the candidates, plus the current count where the
        guard reads it and it is not one of them; per operator of a fixed
        stage its current count alone."""
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        strategy = SamplingStrategy()
        grid = strategy.candidates(3000)
        widened = False
        for plan in _plans(tiny_bundle):
            rows = 0
            for stage in build_stage_graph(plan).stages:
                probes = len(grid)
                if _stage_is_fixed(stage.operators):
                    probes = 1
                elif guard and stage.partition_count not in grid:
                    probes += 1
                    widened = True
                rows += probes * len(stage.operators)
            before = service.stats()
            optimize_partitions(
                plan, service.cost_model(), CardinalityEstimator(), strategy, guard=guard
            )
            after = service.stats()
            assert after.batches - before.batches == 1
            assert after.predictions - before.predictions == rows
        assert widened == guard  # some current count really was off the grid


class _Flat:
    """Every stage costs the same at every partition count: all ties."""

    def __init__(self, batched: bool) -> None:
        self.supports_batched_pricing = batched

    def price_stage_sweep(self, stages, estimator, candidates):
        return [[[1.0] * len(stage)] * len(probes) for stage, probes in zip(stages, candidates)]

    def operator_cost(self, op, estimator, partition_override=None):
        return 1.0


class _Recording(_Flat):
    """The batched flat model, recording the grids it is asked to price."""

    def __init__(self) -> None:
        super().__init__(batched=True)
        self.asked: list = []

    def price_stage_sweep(self, stages, estimator, candidates):
        self.asked.append(([len(stage) for stage in stages], candidates))
        return super().price_stage_sweep(stages, estimator, candidates)


class TestEdges:
    def test_all_fixed_plan_prices_each_operator_once_at_its_current_count(self, builder):
        """Nothing to explore, but the one-plan view prices what the wave
        prices — the rows a plan total reads; there is no totals switch."""
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
            model = _Recording()
            same = optimize_partitions(plan, model, CardinalityEstimator(), strategy)
            assert same is plan
            assert model.asked == [([2], [[1]])]

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

        def sweep_totals():
            (values,) = grid.cost_model().price_stage_sweep([ops], estimator, [probes])
            return [_stage_total(stage_values) for stage_values in values]

        totals = sweep_totals()

        reference = poisoned_service()
        expected = []
        for p in probes:
            values = reference.predict_inputs(
                FeatureTable.from_inputs(
                    [feature_input_for(op, estimator, p) for op in ops],
                    [SignatureBundle.of(op) for op in ops],
                )
            )
            expected.append(sum(float(v) for v in values))
        assert totals == expected
        assert all(t >= 0.0 and t == t and t != float("inf") for t in totals)
        ours, theirs = grid.stats(), reference.stats()
        assert ours.quarantined_models == theirs.quarantined_models >= 1
        assert ours.degraded_predictions >= 1
        assert grid.store.count() == reference.store.count()
        # Repaired once, the bank stays clean: a second sweep degrades nothing.
        assert sweep_totals() == totals
        assert grid.stats().degraded_predictions == ours.degraded_predictions


# --------------------------------------------------------------------- #
# The wave against the three-step finale it replaced
# --------------------------------------------------------------------- #


def oracle_stage_cost_at(stage_ops, cost_model, estimator, partitions):
    return sum(
        cost_model.operator_cost(op, estimator, partition_override=partitions)
        for op in stage_ops
    )


def oracle_finale(plan, cost_model, estimator, strategy, max_partitions, guard):
    """``optimize_partitions`` -> ``plan_cost`` as they stood before the wave:
    the scalar branch verbatim (a per-stage first-minimum sweep, a second
    round of ``(current, pick)`` guard probes, a deep-equality rebuild, then
    the rebuilt plan priced again for its total)."""
    graph = build_stage_graph(plan)
    stages = graph.topological_order()
    chosen = {stage.index: stage.partition_count for stage in stages}
    explore = [stage for stage in stages if not _stage_is_fixed(stage.operators)]
    picks = []
    for stage in explore:
        if hasattr(strategy, "candidates"):
            candidates = strategy.candidates(max_partitions)
            costs = [
                oracle_stage_cost_at(stage.operators, cost_model, estimator, p)
                for p in candidates
            ]
            picks.append(candidates[min(range(len(costs)), key=costs.__getitem__)])
        else:
            picks.append(strategy.choose(stage.operators, cost_model, estimator, max_partitions))
    moves = [
        (stage, pick) for stage, pick in zip(explore, picks) if pick != stage.partition_count
    ]
    if guard and moves:
        probes = [
            [
                oracle_stage_cost_at(stage.operators, cost_model, estimator, p)
                for p in (stage.partition_count, pick)
            ]
            for stage, pick in moves
        ]
        moves = [move for move, (current, new) in zip(moves, probes) if not new >= current]
    for stage, pick in moves:
        chosen[stage.index] = pick

    rebuilt: dict[int, PhysicalOp] = {}

    def rebuild(op: PhysicalOp) -> PhysicalOp:
        done = rebuilt.get(id(op))
        if done is not None:
            return done
        new_children = tuple(rebuild(child) for child in op.children)
        new_count = chosen[graph.stage_of[id(op)]]
        if new_children == op.children and new_count == op.partition_count:
            result = op
        else:
            result = replace(op, children=new_children, partition_count=new_count)
        rebuilt[id(op)] = result
        return result

    final = rebuild(plan)
    return final, plan_cost(cost_model, final, estimator)


def _restaged(plan: PhysicalOp, counts: list[int], all_fixed: bool) -> PhysicalOp:
    """``plan`` (sharing kept) with a drawn count per stage instead of the
    generator's uniform 4, and every stage pinned when ``all_fixed``."""
    stage_of = build_stage_graph(plan).stage_of
    done: dict[int, PhysicalOp] = {}

    def rebuild(op: PhysicalOp) -> PhysicalOp:
        if id(op) not in done:
            done[id(op)] = replace(
                op,
                children=tuple(rebuild(child) for child in op.children),
                partition_count=counts[stage_of[id(op)] % len(counts)],
                partitioning=Partitioning.singleton() if all_fixed else op.partitioning,
            )
        return done[id(op)]

    return rebuild(plan)


def _outcome(plan: PhysicalOp, total: float) -> tuple:
    return [(op.op_type.value, op.partition_count) for op in plan.walk()], float.hex(total)


_WAVE_STRATEGIES = st.sampled_from(
    [
        (SamplingStrategy(scheme="geometric"), 3000),
        (SamplingStrategy(scheme="uniform", n_samples=5), 90),
        (SamplingStrategy(scheme="random", n_samples=5, seed=1), 90),
        (ExhaustiveStrategy(), 12),
        (AnalyticalStrategy(), 3000),
        (DefaultHeuristicStrategy(), 3000),
    ]
)
_COUNTS = st.lists(st.sampled_from([1, 2, 4, 7, 12, 90, 3000]), min_size=1, max_size=4)


class TestWaveEqualsThreeStepFinale:
    @pytest.fixture(scope="class")
    def predictor(self, tiny_bundle):
        # Trained here: generated features may get a model quarantined.
        return CleoTrainer(CleoConfig()).train(
            tiny_bundle.log, individual_days=[1, 2], combined_days=[2]
        )

    def _check(self, predictor, plans, strategy, max_partitions, guard):
        scalar = CleoCostModel(predictor, batched=False)
        lookups = []
        for model, reference in (
            (CleoCostModel(predictor), scalar),
            (scalar, scalar),
            (DefaultCostModel(), DefaultCostModel()),
        ):
            if isinstance(strategy, AnalyticalStrategy) and reference is not scalar:
                continue  # the closed form needs learned resource profiles
            expected = [
                _outcome(*oracle_finale(
                    plan, reference, CardinalityEstimator(), strategy, max_partitions, guard
                ))
                for plan in plans
            ]  # fmt: skip
            before = predictor.lookup_count
            wave = explore_partitions(
                plans, model, CardinalityEstimator(), strategy, max_partitions, guard
            )
            lookups.append(predictor.lookup_count - before)
            assert [_outcome(plan, total) for plan, total in wave] == expected
            assert [type(total) for _, total in wave] == [float] * len(plans)
        assert lookups[0] == lookups[1] > 0  # batched == scalar, row for row

    @given(
        plans=st.lists(physical_plans(max_depth=4), min_size=1, max_size=3),
        counts=_COUNTS,
        all_fixed=st.booleans(),
        strategy=_WAVE_STRATEGIES,
        guard=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_physical_dags(self, predictor, plans, counts, all_fixed, strategy, guard):
        """Shared subtrees, multi-way unions, gather exchanges (fixed stages),
        plans with nothing to explore at all."""
        restaged = []
        for plan in plans:
            # Stages merged under a join must agree: one count for the whole
            # plan where the drawn ones do not survive ``build_stage_graph``.
            try:
                candidate = _restaged(plan, counts, all_fixed)
                build_stage_graph(candidate)
            except InvalidPlanError:
                candidate = _restaged(plan, counts[:1], all_fixed)
            restaged.append(candidate)
        self._check(predictor, restaged, *strategy, guard)

    @given(
        logicals=st.lists(logical_plans(max_depth=3), min_size=1, max_size=3),
        strategy=_WAVE_STRATEGIES,
        guard=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_planner_output(self, predictor, logicals, strategy, guard):
        """Default plans of generated logical DAGs: key-less aggregates
        (singleton stages), unions, enforcer chains."""
        planner = QueryPlanner(DefaultCostModel(), CardinalityEstimator())
        plans = []
        for logical in logicals:
            try:
                plans.append(planner.plan(logical).plan)
            except OptimizationError:
                pass  # no alignable join: pinned in test_search_configs
        if plans:
            self._check(predictor, plans, *strategy, guard)
