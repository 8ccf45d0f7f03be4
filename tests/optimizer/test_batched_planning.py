"""Batched learned-cost planning parity (optimizer.planner + partition).

The batched path must be *bitwise* identical to the scalar planner: same
plan shapes, same partition counts, same estimated costs, same candidate
counts — batching may only change how many vectorized model invocations
happen, never what they compute.  Per-prediction model-lookup accounting
differs by exactly the stragglers: ledger rows still pending when a search
finishes are read by no comparison and dropped unpriced, so cache-off scalar
lookups equal batched lookups plus ``LOOKUPS_PER_PREDICTION`` per unread
row.  These tests pin that contract over the trained tiny bundle, over
randomized ad-hoc plans, and for every partition strategy family; and that a
stock compile runs the replay, bit for bit the ``PhysicalOp``
configuration's plan.
"""

from __future__ import annotations

import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.core.predictor import CleoPredictor
from repro.cost.default_model import DefaultCostModel
from repro.optimizer.partition import (
    AnalyticalStrategy,
    ExhaustiveStrategy,
    SamplingStrategy,
    _stage_total,
)
from repro.optimizer.planner import (
    PlannerConfig,
    QueryPlanner,
    _DeferredCost,
    _resolve_cost,
)
from repro.plan.stages import build_stage_graph
from repro.workload.templates import instantiate
from tests.optimizer.test_golden_rules import OperatorPathEstimator, digest


def _fingerprint(planned):
    return (
        tuple((op.op_type.value, op.partition_count) for op in planned.plan.walk()),
        planned.estimated_cost,
        planned.candidates_considered,
    )


def _test_jobs(bundle, limit=None):
    day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(day)
    jobs = bundle.generator.jobs_for_day(day)
    if limit is not None:
        jobs = jobs[:limit]
    return [(job.job_id, instantiate(job, catalog)) for job in jobs]


def _plan_all(planner, jobs, predictor):
    fingerprints = []
    predictor.reset_lookup_count()
    for job_id, logical in jobs:
        planner.jitter_salt = job_id
        fingerprints.append(_fingerprint(planner.plan(logical)))
    return fingerprints, predictor.lookup_count


def _assert_scalar_is_batched_plus_unread(scalar, batched, scalar_lookups, batched_lookups):
    """Scalar costing (the ``PhysicalOp`` configuration: the reference
    schedule is opaque to the replay) prices every candidate; batched costing
    all but the stragglers its replay dropped unread (at least one per
    search)."""
    assert scalar._replay is None and scalar._rows_unread == 0
    unread = batched._replay.stats().rows_unread
    assert unread >= batched._replay.stats().jobs_replayed
    assert scalar_lookups == batched_lookups + unread * CleoPredictor.LOOKUPS_PER_PREDICTION


def _assert_one_flush_per_level(batched, jobs):
    """A search flushes once per level of its critical path, none for its
    stragglers."""
    # Imported here: test_sibling_waves imports this module.
    from tests.optimizer.test_sibling_waves import critical_path

    expected = sum(critical_path(logical) for _job_id, logical in jobs)
    assert batched._replay.stats().frontier_flushes == expected


class TestFrontierPricingParity:
    def test_structural_plans_and_lookups_identical(self, tiny_bundle, tiny_predictor):
        jobs = _test_jobs(tiny_bundle)
        config = PlannerConfig()
        scalar = QueryPlanner(
            CleoCostModel(tiny_predictor, batched=False), CardinalityEstimator(), config
        )
        batched = QueryPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), config
        )
        scalar_fps, scalar_lookups = _plan_all(scalar, jobs, tiny_predictor)
        batched_fps, batched_lookups = _plan_all(batched, jobs, tiny_predictor)
        assert scalar_fps == batched_fps
        _assert_scalar_is_batched_plus_unread(scalar, batched, scalar_lookups, batched_lookups)
        _assert_one_flush_per_level(batched, jobs)

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
        jobs = _test_jobs(tiny_bundle, limit=8)
        config = PlannerConfig(
            partition_strategy=strategy, max_partitions=max_partitions
        )
        scalar = QueryPlanner(
            CleoCostModel(tiny_predictor, batched=False), CardinalityEstimator(), config
        )
        batched = QueryPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), config
        )
        scalar_fps, scalar_lookups = _plan_all(scalar, jobs, tiny_predictor)
        batched_fps, batched_lookups = _plan_all(batched, jobs, tiny_predictor)
        assert scalar_fps == batched_fps
        _assert_scalar_is_batched_plus_unread(scalar, batched, scalar_lookups, batched_lookups)
        _assert_one_flush_per_level(batched, jobs)

    def test_randomized_adhoc_plans_identical(self, builder, tiny_predictor):
        """Parity across randomized plan shapes, not just recurring templates."""
        rng = np.random.default_rng(7)
        scalar = QueryPlanner(
            CleoCostModel(tiny_predictor, batched=False),
            CardinalityEstimator(),
            PlannerConfig(partition_jitter=0.35),
        )
        batched = QueryPlanner(
            CleoCostModel(tiny_predictor),
            CardinalityEstimator(),
            PlannerConfig(partition_jitter=0.35),
        )
        for i in range(12):
            events = builder.filter(
                builder.scan("events_2024_01_01"),
                "value",
                float(rng.uniform(0.05, 0.9)),
                tag=f"rt:f{i}",
            )
            users = builder.filter(
                builder.scan("users_2024_01_01"),
                "country",
                float(rng.uniform(0.1, 0.9)),
                tag=f"rt:g{i}",
            )
            joined = builder.join(
                events, users,
                keys=("user_id", "user_id"),
                fanout=float(rng.uniform(0.05, 1.5)),
                tag=f"rt:j{i}",
            )
            agg = builder.aggregate(
                joined,
                keys=("country",),
                group_count=int(rng.integers(5, 5000)),
                tag=f"rt:a{i}",
            )
            logical = builder.output(agg, name=f"rt:o{i}")
            scalar.jitter_salt = batched.jitter_salt = f"rt{i}"
            assert _fingerprint(scalar.plan(logical)) == _fingerprint(
                batched.plan(logical)
            )

    def test_cache_enabled_service_plans_identical(self, tiny_bundle, tiny_predictor):
        """service.cost_model() (LRU enabled, the whatif/allocation shape)."""
        from repro.serving.service import CleoService

        jobs = _test_jobs(tiny_bundle, limit=10)
        config = PlannerConfig(partition_strategy=SamplingStrategy())
        scalar_service = CleoService(tiny_predictor)
        batched_service = CleoService(tiny_predictor)
        scalar = QueryPlanner(
            CleoCostModel(tiny_predictor, service=scalar_service, batched=False),
            CardinalityEstimator(),
            config,
        )
        batched = QueryPlanner(
            batched_service.cost_model(), CardinalityEstimator(), config
        )
        scalar_fps, _ = _plan_all(scalar, jobs, tiny_predictor)
        batched_fps, _ = _plan_all(batched, jobs, tiny_predictor)
        assert scalar_fps == batched_fps
        # The batched planner really priced through batches, not one-by-one.
        stats = batched_service.stats()
        assert 0 < stats.batches < stats.predictions

    def test_batched_flag_off_means_scalar_path(self, tiny_predictor):
        model = CleoCostModel(tiny_predictor, batched=False)
        assert not model.supports_batched_pricing
        assert CleoCostModel(tiny_predictor).supports_batched_pricing


class TestStageSweepPricing:
    def test_sweep_matches_scalar_stage_costs(self, tiny_bundle, tiny_predictor):
        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        estimator = CardinalityEstimator()
        model = CleoCostModel(tiny_predictor)
        graph = build_stage_graph(plan)
        stages = [stage.operators for stage in graph.stages]
        # A different candidate list per stage: the grid is ragged.
        candidates = [[1, 2, 7, 33, 250][: 1 + i % 5] for i in range(len(stages))]
        batched = [
            [_stage_total(values) for values in stage]
            for stage in model.price_stage_sweep(stages, estimator, candidates)
        ]
        scalar = [
            [
                sum(model.operator_cost(op, estimator, partition_override=p) for op in ops)
                for p in probes
            ]
            for ops, probes in zip(stages, candidates)
        ]
        assert batched == scalar  # exact float equality, not approx

    def test_price_operators_matches_operator_cost(self, tiny_bundle, tiny_predictor):
        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        estimator = CardinalityEstimator()
        model = CleoCostModel(tiny_predictor)
        ops = list(plan.walk())
        tiny_predictor.reset_lookup_count()
        batched = model.price_operators(ops, estimator)
        batched_lookups = tiny_predictor.lookup_count
        tiny_predictor.reset_lookup_count()
        scalar = [model.operator_cost(op, estimator) for op in ops]
        assert tiny_predictor.lookup_count == batched_lookups
        assert list(batched) == scalar


def _resolve_without_memo(cost, priced: list[float]) -> float:
    """The resolution walk with no memo across calls: every call re-walks
    its expression, evaluating a node shared within it once."""
    if not isinstance(cost, _DeferredCost):
        return cost
    values: dict[int, float] = {}
    stack = [(cost, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in values:
            continue
        if node.kind == _DeferredCost.LEAF:
            values[id(node)] = priced[node.a]
        elif expanded:
            a = values[id(node.a)] if isinstance(node.a, _DeferredCost) else node.a
            b = values[id(node.b)] if isinstance(node.b, _DeferredCost) else node.b
            values[id(node)] = a + b if node.kind == _DeferredCost.ADD else a - b
        else:
            stack.append((node, True))
            for operand in (node.b, node.a):
                if isinstance(operand, _DeferredCost):
                    stack.append((operand, False))
    return values[id(cost)]


class TestDeferredCostArithmetic:
    def test_replay_preserves_operand_order(self):
        priced = [0.1, 0.2, 0.7]
        leaf = lambda i: _DeferredCost(_DeferredCost.LEAF, i)  # noqa: E731
        # float + deferred, deferred + float, chains, and subtraction —
        # the shapes the planner's cost accumulation actually produces.
        assert _resolve_cost(0.5 + leaf(0), priced) == 0.5 + priced[0]
        assert _resolve_cost(leaf(1) + 0.5, priced) == priced[1] + 0.5
        chained = 0.25 + leaf(0) + leaf(1) + leaf(2)
        assert _resolve_cost(chained, priced) == ((0.25 + 0.1) + 0.2) + 0.7
        delta = 0.0 + (leaf(2) - leaf(0))
        assert _resolve_cost(delta, priced) == 0.0 + (0.7 - 0.1)
        assert _resolve_cost(1.25, priced) == 1.25

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_nodes_resolve_once_and_match_the_unmemoized_walk(self, data):
        """Random deferred-cost DAGs (each interior node reads earlier nodes,
        ledger leaves or floats, so subexpressions are shared within and
        across expressions), resolved one after another the way comparing
        frames resolve them: every answer equals, bit for bit, the walk that
        memoizes nothing across calls, and no node is evaluated twice —
        once resolved, a node's operands are poisoned, and resolving any
        later expression through it still succeeds."""
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        priced = data.draw(st.lists(values, min_size=1, max_size=8), label="ledger")
        nodes = [_DeferredCost(_DeferredCost.LEAF, i) for i in range(len(priced))]
        for _ in range(data.draw(st.integers(1, 40), label="interior")):
            node = data.draw(st.sampled_from(nodes))
            other = data.draw(st.one_of(st.sampled_from(nodes), values))
            a, b = (node, other) if data.draw(st.booleans()) else (other, node)
            add = data.draw(st.booleans())
            nodes.append(a + b if add else a - b)
        roots = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=10), label="roots"
        )
        expected = [_resolve_without_memo(root, priced) for root in roots]
        poison = object()
        for root, want in zip(roots, expected):
            got = _resolve_cost(root, priced)
            assert struct.pack("<d", got) == struct.pack("<d", want)
            assert root.value is got  # kept: the next frame reads it back
            for node in nodes:
                if node.value is not None:
                    node.a = node.b = poison

    def test_resolution_stays_iterative(self):
        """A chain far deeper than the recursion limit resolves."""
        priced = [0.1]
        cost = 0.0
        for _ in range(3 * sys.getrecursionlimit()):
            cost += _DeferredCost(_DeferredCost.LEAF, 0)
        expected = 0.0
        for _ in range(3 * sys.getrecursionlimit()):
            expected += 0.1
        assert _resolve_cost(cost, priced) == expected

    def test_wide_frontier_resolves_without_recursion_error(
        self, builder, tiny_predictor
    ):
        """A very wide union builds a deferred expression thousands of
        nodes deep; resolution must be iterative (pre-fix: RecursionError
        on the default batched path for plans the scalar path handled)."""
        branches = [
            builder.filter(
                builder.scan("events_2024_01_01"), "value", 0.2, tag=f"wide:f{i}"
            )
            for i in range(1100)
        ]
        logical = builder.output(
            builder.aggregate(
                builder.union(*branches, tag="wide:u"),
                keys=("user_id",),
                group_count=100,
                tag="wide:a",
            ),
            name="wide:o",
        )
        scalar = QueryPlanner(
            CleoCostModel(tiny_predictor, batched=False),
            CardinalityEstimator(),
            PlannerConfig(),
        )
        batched = QueryPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), PlannerConfig()
        )
        assert _fingerprint(scalar.plan(logical)) == _fingerprint(
            batched.plan(logical)
        )

    def test_planner_leaves_no_pending_ops(self, tiny_bundle, tiny_predictor):
        """Every deferred row is priced once, or dropped unread when its search
        finishes: none is left pending, and per plan the scalar path's lookups
        are the batched path's plus the unread rows'."""
        jobs = _test_jobs(tiny_bundle, limit=3)
        scalar = QueryPlanner(
            CleoCostModel(tiny_predictor, batched=False),
            CardinalityEstimator(),
            PlannerConfig(),
        )
        planner = QueryPlanner(
            CleoCostModel(tiny_predictor), CardinalityEstimator(), PlannerConfig()
        )
        for job in jobs:
            unread = planner._replay.stats().rows_unread
            _, lookups = _plan_all(planner, [job], tiny_predictor)
            assert planner._replay._job.pending == []
            unread = planner._replay.stats().rows_unread - unread
            assert unread > 0
            _, scalar_lookups = _plan_all(scalar, [job], tiny_predictor)
            assert scalar_lookups == lookups + unread * CleoPredictor.LOOKUPS_PER_PREDICTION


class TestApplicationRouting:
    def test_whatif_and_allocation_plan_batched(self, tiny_bundle, tiny_predictor):
        """The application layers inherit batched pricing automatically."""
        from repro.applications.whatif import WhatIfAnalyzer
        from repro.serving.service import CleoService

        service = CleoService(tiny_predictor)
        analyzer = WhatIfAnalyzer(service)
        assert service.cost_model().supports_batched_pricing
        job = next(iter(tiny_bundle.test_log()))
        catalog = tiny_bundle.generator.catalog_for_day(job.day)
        spec = next(
            j
            for j in tiny_bundle.generator.jobs_for_day(job.day)
            if j.job_id == job.job_id
        )
        logical = instantiate(spec, catalog)
        before = service.stats()
        outcome = analyzer.evaluate(logical, lambda plan: plan, job_id=job.job_id)
        assert outcome.baseline.latency_seconds > 0
        after = service.stats()
        assert 0 < after.batches - before.batches < after.predictions - before.predictions


_STRATEGIES = {
    "no-strategy": None,
    "geometric": SamplingStrategy(scheme="geometric"),
    "analytical": AnalyticalStrategy(),  # resource profiles: learned models only
}


class TestCompileRunsTheReplay:
    @pytest.mark.parametrize(
        "model,strategy",
        [
            pytest.param(model, _STRATEGIES[name], id=f"{model}-{name}")
            for model in ("cleo", "cleo-scalar", "default")
            for name in _STRATEGIES
            if model != "default" or name != "analytical"
        ],
    )
    def test_stock_compile_equals_the_operator_path(
        self, tiny_bundle, tiny_predictor, strategy, model
    ):
        """A stock pair compiles through the replay, bit for bit the
        ``PhysicalOp`` configuration: plan, cost and ``candidates_considered``
        on every tiny job.  A stock pair under ``batched=False`` (the bench's
        scalar oracle) is opaque to the replay and compiles on that
        configuration itself, with the same digests."""
        factory = {
            "cleo": lambda: CleoCostModel(tiny_predictor),
            "cleo-scalar": lambda: CleoCostModel(tiny_predictor, batched=False),
            "default": DefaultCostModel,
        }[model]
        config = PlannerConfig(partition_strategy=strategy, partition_jitter=0.35)
        compiled = QueryPlanner(factory(), CardinalityEstimator(), config)
        reference = QueryPlanner(factory(), OperatorPathEstimator(), config)
        assert reference._replay is None
        assert (compiled._replay is None) == (model == "cleo-scalar")
        jobs = _test_jobs(tiny_bundle)
        for job_id, logical in jobs:
            compiled.jitter_salt = reference.jitter_salt = job_id
            assert digest(compiled.plan(logical)) == digest(reference.plan(logical)), job_id
        if compiled._replay is not None:
            assert compiled._replay.stats().jobs_replayed == len(jobs)
