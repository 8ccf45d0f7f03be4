"""Tests for the four signature kinds and the one-pass bundle computation."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.optimizer.skeleton import RNode
from repro.plan import signatures
from repro.plan.physical import post_order
from repro.plan.signatures import (
    SignatureBundle,
    input_signature_for,
    operator_signature_for,
    signed,
    strict_signature,
)
from repro.plan.summary import summarize
from tests.plan.test_subtree_summary import oracle_bundle, physical_plans


class TestStrictSignature:
    def test_deterministic(self, physical_join_plan):
        assert strict_signature(physical_join_plan) == strict_signature(physical_join_plan)

    def test_recurring_instances_share_signature(self, catalog, planner):
        """Same template on a different day (different sizes) -> same key."""
        from repro.plan.builder import PlanBuilder

        scaled = catalog.scaled(1.7)
        plans = []
        for cat in (catalog, scaled):
            b = PlanBuilder(cat)
            logical = b.output(
                b.filter(b.scan("events_2024_01_01"), "value", 0.1, tag="t:f"), name="o"
            )
            plans.append(planner.plan(logical).plan)
        assert strict_signature(plans[0]) == strict_signature(plans[1])

    def test_different_structure_different_signature(
        self, physical_join_plan, physical_simple_plan
    ):
        assert strict_signature(physical_join_plan) != strict_signature(physical_simple_plan)

    def test_signature_ignores_partition_count(self, physical_simple_plan):
        rebuilt = physical_simple_plan.with_partition_count(
            physical_simple_plan.partition_count + 5
        )
        assert strict_signature(rebuilt) == strict_signature(physical_simple_plan)


class TestApproxSignature:
    def test_differs_from_strict_keyspace(self, physical_join_plan):
        # Approx and strict signatures are in different hash namespaces.
        bundle = SignatureBundle.of(physical_join_plan)
        assert bundle.approx != bundle.strict

    def test_same_root_same_freq_same_inputs_match(self, builder, planner):
        """Reordered unary operators below the root map to the same approx key."""
        scan1 = builder.filter(
            builder.project(builder.scan("events_2024_01_01"), tag="t:p"), "v", 0.5, tag="t:f"
        )
        scan2 = builder.project(
            builder.filter(builder.scan("events_2024_01_01"), "v", 0.5, tag="t:f"), tag="t:p"
        )
        agg1 = builder.aggregate(scan1, keys=("user_id",), group_count=10, tag="t:a")
        agg2 = builder.aggregate(scan2, keys=("user_id",), group_count=10, tag="t:a")
        p1 = planner.plan(builder.output(agg1, name="o", tag="t:o")).plan
        p2 = planner.plan(builder.output(agg2, name="o", tag="t:o")).plan
        assert strict_signature(p1) != strict_signature(p2)
        assert SignatureBundle.of(p1).approx == SignatureBundle.of(p2).approx


class TestInputAndOperatorSignatures:
    def test_input_signature_depends_on_inputs(self, builder, planner):
        p1 = planner.plan(
            builder.output(builder.scan("events_2024_01_01"), name="o", tag="t:o")
        ).plan
        p2 = planner.plan(
            builder.output(builder.scan("users_2024_01_01"), name="o", tag="t:o")
        ).plan
        assert SignatureBundle.of(p1).input != SignatureBundle.of(p2).input
        assert SignatureBundle.of(p1).operator == SignatureBundle.of(p2).operator

    def test_operator_signature_by_type_only(self, physical_join_plan):
        sigs = {}
        for op in physical_join_plan.walk():
            sigs.setdefault(op.op_type, set()).add(SignatureBundle.of(op).operator)
        for values in sigs.values():
            assert len(values) == 1


class TestBundleComputation:
    def test_bundles_match_individual_functions(self, physical_join_plan):
        for op in physical_join_plan.walk():
            bundle = SignatureBundle.of(op)
            assert bundle.strict == strict_signature(op)
            assert bundle.input == input_signature_for(
                op.op_type.value, op.normalized_inputs
            )
            assert bundle.operator == operator_signature_for(op.op_type.value)

    def test_bundle_of_equals_computed(self, physical_simple_plan):
        root = physical_simple_plan
        assert SignatureBundle.of(root) == oracle_bundle(root)

    def test_all_nodes_covered(self, physical_join_plan):
        bundles = [SignatureBundle.of(op) for op in physical_join_plan.walk()]
        assert len(bundles) == physical_join_plan.node_count


# --------------------------------------------------------------------- #
# The per-structure tier memo
# --------------------------------------------------------------------- #


def _physical_copy(op, made=None):
    """A fresh ``PhysicalOp`` graph of the same structure, nothing computed."""
    made = {} if made is None else made
    if id(op) not in made:
        children = tuple(_physical_copy(child, made) for child in op.children)
        made[id(op)] = replace(op, children=children)
    return made[id(op)]


def _rnode_copy(op, made=None):
    """The same graph as replay ``RNode``s, summarized as the planner does."""
    made = {} if made is None else made
    if id(op) not in made:
        node = RNode()
        node.op_type = op.op_type
        node.children = tuple(_rnode_copy(child, made) for child in op.children)
        node.logical = op.logical
        node.template_tag = op.template_tag
        node.true_card = op.true_card
        node.summary = summarize(node)
        made[id(op)] = node
    return made[id(op)]


def _tiers(root) -> list[tuple[int, SignatureBundle]]:
    return [(signed(node).freq_incl, signed(node).bundle) for node in post_order(root)]


_COPIES = {"PhysicalOp": _physical_copy, "RNode": _rnode_copy}


class TestTierMemo:
    """A memo hit hands a new node exactly what a fresh recursion computes."""

    @pytest.mark.parametrize("first", sorted(_COPIES))
    @pytest.mark.parametrize("second", sorted(_COPIES))
    @given(plan=physical_plans())
    @settings(max_examples=40, deadline=None)
    def test_hit_equals_a_fresh_recursion(self, first, second, plan):
        signatures._TIER_CACHE.clear()
        fresh = _tiers(_COPIES[first](plan))
        assert [bundle for _, bundle in fresh] == [oracle_bundle(op) for op in plan.walk()]
        size = len(signatures._TIER_CACHE)
        assert 0 < size <= len(fresh)
        hits = _tiers(_COPIES[second](plan))
        assert len(signatures._TIER_CACHE) == size, "every node must be a hit"
        assert hits == fresh
        # A hit shares the bundle object instead of building a new one.
        assert all(a[1] is b[1] for a, b in zip(hits, fresh))
