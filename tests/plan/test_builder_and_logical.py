"""Tests for the plan builder and logical operator semantics."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidPlanError
from repro.plan.logical import LogicalOpType, normalize_input_name


class TestNormalizeInputName:
    def test_strips_dates(self):
        a = normalize_input_name("clicks_2020_02_27")
        b = normalize_input_name("clicks_2021_11_03")
        assert a == b

    def test_distinct_bases_stay_distinct(self):
        assert normalize_input_name("clicks_01") != normalize_input_name("views_01")

    def test_lowercases(self):
        assert normalize_input_name("Clicks") == normalize_input_name("clicks")


class TestScan:
    def test_cardinality_from_catalog(self, builder):
        scanned = builder.scan("events_2024_01_01")
        assert scanned.true_card == 10_000_000
        assert scanned.op_type is LogicalOpType.GET

    def test_normalized_inputs(self, builder):
        scanned = builder.scan("events_2024_01_01")
        assert scanned.normalized_inputs == {normalize_input_name("events_2024_01_01")}

    def test_unknown_table(self, builder):
        with pytest.raises(KeyError):
            builder.scan("missing")


class TestFilter:
    def test_cardinality(self, builder):
        plan = builder.filter(builder.scan("events_2024_01_01"), "value", 0.25)
        assert plan.true_card == pytest.approx(2_500_000)
        assert plan.sel_true == 0.25

    def test_rejects_bad_selectivity(self, builder):
        scanned = builder.scan("events_2024_01_01")
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidPlanError):
                builder.filter(scanned, "value", bad)

    def test_preserves_width(self, builder):
        scanned = builder.scan("events_2024_01_01")
        assert builder.filter(scanned, "value", 0.5).row_bytes == scanned.row_bytes


class TestJoin:
    def test_fanout_semantics(self, builder):
        left = builder.scan("events_2024_01_01")
        right = builder.scan("users_2024_01_01")
        joined = builder.join(left, right, keys=("user_id", "user_id"), fanout=0.5)
        assert joined.true_card == pytest.approx(0.5 * left.true_card)

    def test_explicit_output_card(self, builder):
        left = builder.scan("events_2024_01_01")
        right = builder.scan("users_2024_01_01")
        joined = builder.join(left, right, keys=("user_id", "user_id"), output_card=123.0)
        assert joined.true_card == 123.0

    def test_both_specs_rejected(self, builder):
        left = builder.scan("events_2024_01_01")
        right = builder.scan("users_2024_01_01")
        with pytest.raises(InvalidPlanError):
            builder.join(left, right, keys=("a", "b"), fanout=1.0, output_card=5.0)

    def test_inputs_union(self, builder):
        left = builder.scan("events_2024_01_01")
        right = builder.scan("users_2024_01_01")
        joined = builder.join(left, right, keys=("user_id", "user_id"))
        assert len(joined.normalized_inputs) == 2


class TestAggregate:
    def test_group_count_caps_output(self, builder):
        scanned = builder.scan("events_2024_01_01")
        agg = builder.aggregate(scanned, keys=("user_id",), group_count=100)
        assert agg.true_card == 100

    def test_group_count_cannot_exceed_input(self, builder):
        scanned = builder.scan("users_2024_01_01")
        agg = builder.aggregate(scanned, keys=("user_id",), group_count=1e12)
        assert agg.true_card == scanned.true_card

    def test_default_group_count_sqrt(self, builder):
        scanned = builder.scan("events_2024_01_01")
        agg = builder.aggregate(scanned, keys=("user_id",))
        assert agg.true_card == pytest.approx(scanned.true_card**0.5)

    def test_narrows_rows(self, builder):
        scanned = builder.scan("events_2024_01_01")
        agg = builder.aggregate(scanned, keys=("user_id",), group_count=10)
        assert agg.row_bytes <= scanned.row_bytes


class TestOtherOperators:
    def test_topk_caps(self, builder):
        scanned = builder.scan("events_2024_01_01")
        top = builder.topk(scanned, keys=("value",), k=10)
        assert top.true_card == 10

    def test_topk_k_validation(self, builder):
        with pytest.raises(InvalidPlanError):
            builder.topk(builder.scan("users_2024_01_01"), keys=("a",), k=0)

    def test_sort_requires_keys(self, builder):
        with pytest.raises(InvalidPlanError):
            builder.sort(builder.scan("users_2024_01_01"), keys=())

    def test_union_sums(self, builder):
        a = builder.scan("events_2024_01_01")
        b = builder.scan("events_2024_01_01")
        union = builder.union(a, b)
        assert union.true_card == a.true_card * 2

    def test_union_needs_two(self, builder):
        with pytest.raises(InvalidPlanError):
            builder.union(builder.scan("users_2024_01_01"))

    def test_process_scales_both_axes(self, builder):
        scanned = builder.scan("events_2024_01_01")
        processed = builder.process(scanned, "udf_x", card_factor=2.0, width_factor=0.5)
        assert processed.true_card == 2 * scanned.true_card
        assert processed.row_bytes == pytest.approx(0.5 * scanned.row_bytes)


class TestTraversal:
    def test_walk_children_before_parents(self, simple_plan):
        nodes = list(simple_plan.walk())
        assert nodes[-1] is simple_plan
        assert nodes[0].op_type is LogicalOpType.GET

    def test_node_count_and_depth(self, simple_plan):
        assert simple_plan.node_count == 4
        assert simple_plan.depth == 4

    def test_base_card_sums_leaves(self, join_plan):
        assert join_plan.base_card == pytest.approx(10_000_000 + 100_000)

    def test_describe_contains_cards(self, simple_plan):
        text = simple_plan.describe()
        assert "Output" in text and "Get" in text
