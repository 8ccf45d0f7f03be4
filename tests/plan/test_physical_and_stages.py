"""Tests for physical plans, validation, and stage-graph construction."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidPlanError
from repro.plan.physical import (
    ExchangeMode,
    PhysOpType,
    PhysicalOp,
    validate_physical_plan,
)
from repro.plan.properties import Partitioning
from repro.plan.stages import build_stage_graph


def _stage_of(graph, op):
    """The stage ``op`` was put in."""
    return graph.stages[graph.stage_of[id(op)]]


def _extract(logical, partitions=4):
    return PhysicalOp(
        op_type=PhysOpType.EXTRACT,
        children=(),
        logical=logical,
        partition_count=partitions,
        partitioning=Partitioning.random(),
    )


class TestPhysicalOpValidation:
    def test_partition_count_positive(self, builder):
        scanned = builder.scan("users_2024_01_01")
        with pytest.raises(InvalidPlanError):
            _extract(scanned, partitions=0)

    def test_exchange_needs_mode(self, builder):
        scanned = builder.scan("users_2024_01_01")
        leaf = _extract(scanned)
        with pytest.raises(InvalidPlanError):
            PhysicalOp(
                op_type=PhysOpType.EXCHANGE,
                children=(leaf,),
                logical=None,
                partition_count=2,
                partitioning=Partitioning.random(),
            )

    def test_extract_must_be_leaf(self, builder):
        scanned = builder.scan("users_2024_01_01")
        leaf = _extract(scanned)
        with pytest.raises(InvalidPlanError):
            PhysicalOp(
                op_type=PhysOpType.EXTRACT,
                children=(leaf,),
                logical=scanned,
                partition_count=1,
                partitioning=Partitioning.random(),
            )

    def test_non_leaf_needs_children(self, builder):
        scanned = builder.scan("users_2024_01_01")
        with pytest.raises(InvalidPlanError):
            PhysicalOp(
                op_type=PhysOpType.FILTER,
                children=(),
                logical=scanned,
                partition_count=1,
                partitioning=Partitioning.random(),
            )


class TestPhysicalSemantics:
    def test_enforcer_passes_through_payload(self, builder):
        scanned = builder.scan("events_2024_01_01")
        leaf = _extract(scanned)
        exchange = PhysicalOp(
            op_type=PhysOpType.EXCHANGE,
            children=(leaf,),
            logical=None,
            partition_count=8,
            partitioning=Partitioning.hash("user_id"),
            exchange_mode=ExchangeMode.HASH,
        )
        assert exchange.true_card == leaf.true_card
        assert exchange.row_bytes == leaf.row_bytes
        assert exchange.is_enforcer
        assert exchange.template_tag == "xchg:hash"

    def test_child_context(self, physical_join_plan):
        for op in physical_join_plan.walk():
            context = op.child_context()
            if not op.children:
                assert context == ("leaf",)
            else:
                assert len(context) == len(op.children)

    def test_input_card_sums_children(self, builder):
        scanned = builder.scan("events_2024_01_01")
        leaf = _extract(scanned)
        assert leaf.input_card == leaf.true_card  # leaves report their own

    def test_with_partition_count(self, builder):
        leaf = _extract(builder.scan("users_2024_01_01"))
        changed = leaf.with_partition_count(16)
        assert changed.partition_count == 16
        assert leaf.partition_count == 4  # original untouched

    def test_validate_planner_output(self, physical_join_plan):
        validate_physical_plan(physical_join_plan)  # should not raise

    def test_logical_op_count_excludes_enforcers(self, physical_join_plan):
        total = physical_join_plan.node_count
        logical = physical_join_plan.logical_op_count()
        assert logical < total  # enforcers exist in a join plan
        assert logical == sum(
            1 for op in physical_join_plan.walk() if op.logical is not None
        )


class TestStageGraph:
    def test_every_op_has_a_stage(self, physical_join_plan):
        graph = build_stage_graph(physical_join_plan)
        for op in physical_join_plan.walk():
            assert op in _stage_of(graph, op)

    def test_stage_partition_consistency(self, physical_join_plan):
        graph = build_stage_graph(physical_join_plan)
        for stage in graph.stages:
            counts = {op.partition_count for op in stage.operators}
            assert len(counts) == 1

    def test_stages_start_at_partitioning_ops(self, physical_join_plan):
        graph = build_stage_graph(physical_join_plan)
        for stage in graph.stages:
            assert any(op.is_partitioning for op in stage.operators), (
                "every stage needs Extract/Exchange"
            )

    def test_topological_order_producers_first(self, physical_join_plan):
        graph = build_stage_graph(physical_join_plan)
        seen: set[int] = set()
        for stage in graph.topological_order():
            assert stage.upstream <= seen
            seen.add(stage.index)

    def test_join_children_merge_into_one_stage(self, physical_join_plan):
        graph = build_stage_graph(physical_join_plan)
        joins = [
            op
            for op in physical_join_plan.walk()
            if op.op_type in (PhysOpType.HASH_JOIN, PhysOpType.MERGE_JOIN)
        ]
        assert joins
        for join in joins:
            stage = _stage_of(graph, join)
            for child in join.children:
                assert _stage_of(graph, child) is stage

    def test_simple_plan_stage_count(self, physical_simple_plan):
        graph = build_stage_graph(physical_simple_plan)
        exchanges = sum(
            1 for op in physical_simple_plan.walk() if op.op_type is PhysOpType.EXCHANGE
        )
        extracts = sum(
            1 for op in physical_simple_plan.walk() if op.op_type is PhysOpType.EXTRACT
        )
        assert len(graph.stages) == exchanges + extracts


class TestStageGraphOverSharedLeaves:
    """DAG-shaped caller input: a later sibling's join merges (empties) the
    stage an earlier sibling was first put in."""

    @staticmethod
    def _op(op_type, children, logical, exchange_mode=None):
        return PhysicalOp(
            op_type=op_type,
            children=children,
            logical=logical,
            partition_count=4,
            partitioning=Partitioning.random(),
            exchange_mode=exchange_mode,
        )

    @pytest.fixture()
    def leaves(self, builder):
        users = builder.scan("users_2024_01_01")
        events = builder.scan("events_2024_01_01")
        a, b = _extract(users), _extract(events)
        filter_a = self._op(
            PhysOpType.FILTER, (a,), builder.filter(users, "country", 0.5, tag="s:fa")
        )
        filter_b = self._op(
            PhysOpType.FILTER, (b,), builder.filter(events, "ts", 0.5, tag="s:fb")
        )
        joined = builder.join(
            users, events, keys=("user_id", "user_id"), fanout=1.0, tag="s:j"
        )
        join = self._op(PhysOpType.HASH_JOIN, (a, b), joined)
        union = builder.union(users, events, tag="s:u")
        return filter_a, filter_b, join, union

    def test_union_over_filters_and_their_join(self, leaves):
        """UNION(FILTER(a), FILTER(b), JOIN(a, b)): was ``empty stage``."""
        filter_a, filter_b, join, union = leaves
        root = self._op(PhysOpType.UNION_ALL, (filter_a, filter_b, join), union)
        graph = build_stage_graph(root)
        assert len(graph) == 1
        (stage,) = graph.stages
        assert len(stage.operators) == 6 and stage.upstream == set()
        for op in (root, filter_a, filter_b, join):
            assert _stage_of(graph, op) is stage

    def test_exchange_keeps_its_producer_when_that_stage_is_merged_later(self, leaves):
        """An exchange over FILTER(b) is staged before JOIN(a, b) merges b's
        stage into a's: its upstream edge follows the merge (was dropped)."""
        filter_a, filter_b, join, union = leaves

        def exchange(child):
            return self._op(PhysOpType.EXCHANGE, (child,), None, ExchangeMode.RANDOM)

        over_b = exchange(filter_b)
        root = self._op(
            PhysOpType.UNION_ALL,
            (exchange(filter_a), exchange(over_b), exchange(join)),
            union,
        )
        graph = build_stage_graph(root)
        producer = _stage_of(graph, filter_b)
        assert producer is _stage_of(graph, join) is _stage_of(graph, filter_a)
        assert _stage_of(graph, over_b).upstream == {producer.index}
        seen: set[int] = set()
        for stage in graph.topological_order():
            assert stage.upstream <= seen
            seen.add(stage.index)
        assert len(seen) == len(graph) == 3
