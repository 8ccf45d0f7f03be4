"""Tests for the four signature kinds and the one-pass bundle computation."""

from __future__ import annotations

from repro.plan.signatures import (
    SignatureBundle,
    approx_signature,
    input_signature,
    operator_signature,
    strict_signature,
)


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
        assert approx_signature(physical_join_plan) != strict_signature(physical_join_plan)

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
        assert approx_signature(p1) == approx_signature(p2)


class TestInputAndOperatorSignatures:
    def test_input_signature_depends_on_inputs(self, builder, planner):
        p1 = planner.plan(
            builder.output(builder.scan("events_2024_01_01"), name="o", tag="t:o")
        ).plan
        p2 = planner.plan(
            builder.output(builder.scan("users_2024_01_01"), name="o", tag="t:o")
        ).plan
        assert input_signature(p1) != input_signature(p2)
        assert operator_signature(p1) == operator_signature(p2)

    def test_operator_signature_by_type_only(self, physical_join_plan):
        sigs = {}
        for op in physical_join_plan.walk():
            sigs.setdefault(op.op_type, set()).add(operator_signature(op))
        for values in sigs.values():
            assert len(values) == 1


class TestBundleComputation:
    def test_bundles_match_individual_functions(self, physical_join_plan):
        for op in physical_join_plan.walk():
            bundle = SignatureBundle.of(op)
            assert bundle.strict == strict_signature(op)
            assert bundle.approx == approx_signature(op)
            assert bundle.input == input_signature(op)
            assert bundle.operator == operator_signature(op)

    def test_bundle_of_equals_computed(self, physical_simple_plan):
        root = physical_simple_plan
        assert SignatureBundle.of(root) == SignatureBundle(
            strict_signature(root),
            approx_signature(root),
            input_signature(root),
            operator_signature(root),
        )

    def test_all_nodes_covered(self, physical_join_plan):
        bundles = [SignatureBundle.of(op) for op in physical_join_plan.walk()]
        assert len(bundles) == physical_join_plan.node_count
