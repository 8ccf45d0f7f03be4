"""Tests for partition exploration strategies and plan-level optimization."""

from __future__ import annotations

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.cost.default_model import DefaultCostModel
from repro.optimizer.partition import (
    AnalyticalStrategy,
    DefaultHeuristicStrategy,
    ExhaustiveStrategy,
    SamplingStrategy,
    default_partition_heuristic,
    expected_lookups,
    optimize_partitions,
    stage_profile,
)
from repro.core.learned_model import ResourceProfile
from repro.plan.physical import ExchangeMode, PhysOpType, validate_physical_plan
from repro.plan.stages import build_stage_graph


class TestHeuristic:
    def test_scales_with_volume(self, physical_join_plan, estimator):
        ops = sorted(physical_join_plan.walk(), key=lambda o: o.input_card)
        small = default_partition_heuristic(ops[0], estimator)
        large = default_partition_heuristic(ops[-1], estimator)
        assert small <= large

    def test_cap_respected(self, physical_join_plan, estimator):
        for op in physical_join_plan.walk():
            assert 1 <= default_partition_heuristic(op, estimator, cap=250) <= 250


class TestStageProfile:
    def test_aggregates_thetas(self):
        aggregate = stage_profile(
            [ResourceProfile(10.0, 1.0, 2.0), None, ResourceProfile(90.0, 0.0, 1.0)]
        )
        assert aggregate == ResourceProfile(100.0, 1.0, 3.0)
        assert aggregate.cost_at(10) == pytest.approx(100.0 / 10 + 10.0 + 3.0)

    def test_optimal_matches_sqrt_rule(self):
        aggregate = stage_profile([ResourceProfile(400.0, 4.0, 0.0)])
        assert aggregate.optimal_partitions(3000) == 10

    def test_nothing_covered_is_none(self):
        assert stage_profile([None, None]) is None


class TestSamplingStrategies:
    def test_geometric_candidates_shape(self):
        strategy = SamplingStrategy(scheme="geometric", skip_coefficient=1.0)
        candidates = strategy.candidates(1000)
        assert candidates[0] == 1
        assert all(b > a for a, b in zip(candidates, candidates[1:]))

    def test_uniform_candidates_bounded(self):
        strategy = SamplingStrategy(scheme="uniform", n_samples=10)
        candidates = strategy.candidates(500)
        assert min(candidates) >= 1 and max(candidates) <= 500

    def test_random_deterministic_by_seed(self):
        a = SamplingStrategy(scheme="random", n_samples=8, seed=3).candidates(100)
        b = SamplingStrategy(scheme="random", n_samples=8, seed=3).candidates(100)
        assert a == b

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SamplingStrategy(scheme="fancy")


class TestOptimizePartitions:
    def test_gather_stages_stay_fixed(self, tiny_bundle, tiny_predictor, estimator):
        job = tiny_bundle.log.jobs[0]
        plan = tiny_bundle.runner.plans[job.job_id]
        cost_model = CleoCostModel(tiny_predictor)
        optimized = optimize_partitions(
            plan, cost_model, estimator, AnalyticalStrategy(), max_partitions=500
        )
        for op in optimized.walk():
            if op.op_type is PhysOpType.EXCHANGE and op.exchange_mode is ExchangeMode.GATHER:
                assert op.partition_count == 1

    def test_result_validates_and_keeps_structure(self, tiny_bundle, tiny_predictor, estimator):
        job = tiny_bundle.log.jobs[0]
        plan = tiny_bundle.runner.plans[job.job_id]
        cost_model = CleoCostModel(tiny_predictor)
        optimized = optimize_partitions(
            plan, cost_model, estimator, AnalyticalStrategy(), max_partitions=500
        )
        validate_physical_plan(optimized)
        assert [op.op_type for op in optimized.walk()] == [op.op_type for op in plan.walk()]

    def test_stage_counts_stay_consistent(self, tiny_bundle, tiny_predictor, estimator):
        job = tiny_bundle.log.jobs[1]
        plan = tiny_bundle.runner.plans[job.job_id]
        cost_model = CleoCostModel(tiny_predictor)
        optimized = optimize_partitions(
            plan, cost_model, estimator, SamplingStrategy(scheme="geometric"), max_partitions=500
        )
        graph = build_stage_graph(optimized)
        for stage in graph.stages:
            assert len({op.partition_count for op in stage.operators}) == 1

    def test_guard_blocks_predicted_regressions(self, tiny_bundle, tiny_predictor, estimator):
        """With the guard, predicted stage cost never increases."""
        job = tiny_bundle.log.jobs[2]
        plan = tiny_bundle.runner.plans[job.job_id]
        cost_model = CleoCostModel(tiny_predictor)
        optimized = optimize_partitions(
            plan, cost_model, estimator, AnalyticalStrategy(), max_partitions=500, guard=True
        )
        before = build_stage_graph(plan)
        after = build_stage_graph(optimized)
        for stage_before, stage_after in zip(before.stages, after.stages):
            cost_before = sum(
                cost_model.operator_cost(op, estimator) for op in stage_before.operators
            )
            cost_after = sum(
                cost_model.operator_cost(op, estimator) for op in stage_after.operators
            )
            assert cost_after <= cost_before * 1.001

    def test_analytical_requires_cleo(self, physical_simple_plan, estimator):
        with pytest.raises(TypeError):
            optimize_partitions(
                physical_simple_plan,
                DefaultCostModel(),
                estimator,
                AnalyticalStrategy(),
            )

    def test_heuristic_strategy_runs_with_default_model(
        self, physical_simple_plan, estimator
    ):
        optimized = optimize_partitions(
            physical_simple_plan,
            DefaultCostModel(),
            estimator,
            DefaultHeuristicStrategy(),
            max_partitions=400,
        )
        validate_physical_plan(optimized)

    def test_exhaustive_finds_no_worse_than_sampling(
        self, tiny_bundle, tiny_predictor, estimator
    ):
        job = tiny_bundle.log.jobs[3]
        plan = tiny_bundle.runner.plans[job.job_id]
        cost_model = CleoCostModel(tiny_predictor)
        graph = build_stage_graph(plan)
        stage = max(graph.stages, key=lambda s: len(s.operators))
        exhaustive = ExhaustiveStrategy().choose(stage.operators, cost_model, estimator, 64)
        sampled = SamplingStrategy(scheme="geometric", skip_coefficient=1.0).choose(
            stage.operators, cost_model, estimator, 64
        )

        def stage_cost_at(partitions):
            return sum(
                cost_model.operator_cost(op, estimator, partition_override=partitions)
                for op in stage.operators
            )

        assert stage_cost_at(exhaustive) <= stage_cost_at(sampled) + 1e-9


class TestExpectedLookups:
    def test_paper_figures(self):
        # Analytical: 5 lookups per operator -> 200 for 40 operators.
        assert expected_lookups(40, "analytical") == 200
        assert expected_lookups(1, "exhaustive", max_partitions=3000) == 15000

    def test_sampling_grows_with_skip(self):
        sparse = expected_lookups(10, "sampling-geometric", skip_coefficient=0.5)
        dense = expected_lookups(10, "sampling-geometric", skip_coefficient=5.0)
        assert dense > sparse

    def test_heuristic_is_free(self):
        assert expected_lookups(10, "heuristic") == 0

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            expected_lookups(1, "bogus")


class TestDagRebuild:
    """optimize_partitions on DAG-shaped caller input (shared subtrees)."""

    @staticmethod
    def _shared_plan(physical_simple_plan):
        """A hand-built DAG: one subtree consumed by two union inputs."""
        from repro.plan.physical import PhysicalOp
        from repro.plan.properties import Partitioning

        shared = physical_simple_plan.children[0]
        union = PhysicalOp(
            op_type=PhysOpType.UNION_ALL,
            children=(shared, shared),
            logical=None,
            partition_count=shared.partition_count,
            partitioning=Partitioning.random(),
        )
        return union

    def test_shared_subtree_keeps_shared_identity(
        self, physical_simple_plan, estimator
    ):
        from dataclasses import dataclass

        @dataclass
        class BumpStrategy:
            """Always picks a different count, forcing a real rebuild."""

            name: str = "bump"

            def stage_counts(self, stages, cost_model, estimator, max_partitions):
                return [[min(ops[0].partition_count + 3, max_partitions)] for ops in stages]

        plan = self._shared_plan(physical_simple_plan)
        optimized = optimize_partitions(
            plan,
            DefaultCostModel(),
            estimator,
            BumpStrategy(),
            max_partitions=64,
            guard=False,
        )
        # Counts actually changed, so every node was rebuilt — and the
        # rebuilt shared subtree must stay ONE object, not a duplicate per
        # consumer (pre-fix, the un-memoized rebuild split it).
        assert optimized is not plan
        assert optimized.children[0] is optimized.children[1]

    def test_deep_sharing_stays_linear(self, physical_simple_plan, estimator):
        """2^40 paths if the walk is exponential; must finish instantly."""
        from repro.plan.physical import PhysicalOp
        from repro.plan.properties import Partitioning

        node = physical_simple_plan.children[0]
        for _ in range(40):
            node = PhysicalOp(
                op_type=PhysOpType.UNION_ALL,
                children=(node, node),
                logical=None,
                partition_count=node.partition_count,
                partitioning=Partitioning.random(),
            )
        optimized = optimize_partitions(
            node,
            DefaultCostModel(),
            estimator,
            DefaultHeuristicStrategy(),
            max_partitions=64,
        )
        # Sharing preserved at every level.
        probe = optimized
        for _ in range(40):
            assert probe.children[0] is probe.children[1]
            probe = probe.children[0]

    def test_rebuild_compares_children_by_identity(self, builder, estimator, monkeypatch):
        """A moved leaf stage rebuilds every ancestor; none of them may
        deep-compare its subtree (``==`` on the frozen dataclass is O(depth)
        per node, ``logical`` trees included)."""
        from dataclasses import dataclass

        from repro.plan.physical import PhysicalOp
        from repro.plan.properties import Partitioning

        def physical(op_type, children, logical, **extra):
            return PhysicalOp(
                op_type, children, logical, partition_count=4,
                partitioning=Partitioning.any(), **extra,
            )  # fmt: skip

        logical = builder.scan("events_2024_01_01")
        node = physical(PhysOpType.EXTRACT, (), logical)
        for level in range(200):
            if level == 100:
                node = physical(
                    PhysOpType.EXCHANGE, (node,), None, exchange_mode=ExchangeMode.HASH
                )
            logical = builder.filter(logical, "value", 0.99, tag=f"deep:{level}")
            node = physical(PhysOpType.FILTER, (node,), logical)

        @dataclass
        class MoveLeafStage:
            name: str = "move-leaf"

            def stage_counts(self, stages, cost_model, estimator, max_partitions):
                moved = [any(op.op_type is PhysOpType.EXTRACT for op in ops) for ops in stages]
                return [[ops[0].partition_count + 3 * m] for ops, m in zip(stages, moved)]

        entered = []
        monkeypatch.setattr(PhysicalOp, "__eq__", lambda self, other: entered.append(1) or True)
        optimized = optimize_partitions(
            node, DefaultCostModel(), estimator, MoveLeafStage(), guard=False
        )
        counts = [op.partition_count for op in optimized.walk()]
        assert counts == [7] * 101 + [4] * 101 and not entered

    def test_stage_graph_counts_shared_ops_once(self, physical_simple_plan):
        plan = self._shared_plan(physical_simple_plan)
        graph = build_stage_graph(plan)
        for stage in graph.stages:
            ids = [id(op) for op in stage.operators]
            assert len(ids) == len(set(ids))
