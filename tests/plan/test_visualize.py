"""Tests for plan visualization helpers."""

from __future__ import annotations

from repro.plan.physical import PhysOpType
from repro.plan.visualize import diff_plans, render_stages, render_tree


class TestRenderTree:
    def test_contains_every_operator(self, physical_join_plan):
        text = render_tree(physical_join_plan)
        for op in physical_join_plan.walk():
            assert op.op_type.value in text

    def test_line_count_matches_nodes(self, physical_join_plan):
        text = render_tree(physical_join_plan)
        assert len(text.splitlines()) == physical_join_plan.node_count

    def test_cards_toggle(self, physical_simple_plan):
        with_cards = render_tree(physical_simple_plan, show_cards=True)
        without = render_tree(physical_simple_plan, show_cards=False)
        assert "rows=" in with_cards and "rows=" not in without


class TestRenderStages:
    def test_one_line_per_stage(self, physical_join_plan):
        from repro.plan.stages import build_stage_graph

        text = render_stages(physical_join_plan)
        assert len(text.splitlines()) == len(build_stage_graph(physical_join_plan).stages)

    def test_dependencies_rendered(self, physical_join_plan):
        text = render_stages(physical_join_plan)
        assert "after [" in text


class TestDiffPlans:
    def test_identical_plans_no_changes(self, physical_simple_plan):
        assert diff_plans(physical_simple_plan, physical_simple_plan) == []

    def test_operator_changes_reported(self, physical_join_plan, physical_simple_plan):
        changes = diff_plans(physical_join_plan, physical_simple_plan)
        assert changes

    def test_partition_change_reported(self, physical_simple_plan):
        from repro.optimizer.partition import optimize_partitions  # noqa: F401

        rebuilt = physical_simple_plan
        # Rebuild the whole tree with shifted partition counts on one stage.
        def bump(op):
            children = tuple(bump(c) for c in op.children)
            count = op.partition_count + (3 if op.op_type is PhysOpType.EXTRACT else 0)
            from repro.plan.physical import PhysicalOp

            return PhysicalOp(
                op_type=op.op_type,
                children=children,
                logical=op.logical,
                partition_count=count if not children else (
                    count if op.is_partitioning else children[0].partition_count
                ),
                partitioning=op.partitioning,
                sorting=op.sorting,
                exchange_mode=op.exchange_mode,
                sort_keys=op.sort_keys,
            )

        changes = diff_plans(physical_simple_plan, bump(rebuilt))
        assert any("partitions" in c for c in changes)
