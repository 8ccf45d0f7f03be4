"""Tests for the hidden ground-truth latency model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.common.hashing import stable_unit_float
from repro.execution.ground_truth import GroundTruthModel, GroundTruthParams
from repro.execution.hardware import DEFAULT_CLUSTERS, ClusterSpec
from repro.experiments.shared import workload_config
from repro.plan.physical import PhysOpType
from repro.plan.signatures import strict_signature
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner


@pytest.fixture()
def ground_truth(cluster):
    return GroundTruthModel(cluster)


class TestHiddenMultipliers:
    def test_deterministic(self, ground_truth, physical_join_plan):
        for op in physical_join_plan.walk():
            assert ground_truth.hidden_multiplier(op) == ground_truth.hidden_multiplier(op)

    def test_positive(self, ground_truth, physical_join_plan):
        for op in physical_join_plan.walk():
            assert ground_truth.hidden_multiplier(op) > 0

    def test_cluster_specific(self, physical_simple_plan):
        gt1 = GroundTruthModel(ClusterSpec(name="a"))
        gt2 = GroundTruthModel(ClusterSpec(name="b"))
        ops = list(physical_simple_plan.walk())
        m1 = [gt1.hidden_multiplier(op) for op in ops]
        m2 = [gt2.hidden_multiplier(op) for op in ops]
        assert m1 != m2

    def test_zero_sigmas_give_unit_multiplier(self, cluster, physical_simple_plan):
        params = GroundTruthParams(
            sigma_op=0, sigma_input=0, sigma_ctx=0, sigma_residual=0, sigma_udf=0
        )
        gt = GroundTruthModel(cluster, params)
        for op in physical_simple_plan.walk():
            if not any(child.is_blocking for child in op.children):
                assert gt.hidden_multiplier(op) == pytest.approx(1.0)

    def test_blocking_child_penalty(self, cluster, physical_join_plan):
        params = GroundTruthParams(
            sigma_op=0, sigma_input=0, sigma_ctx=0, sigma_residual=0, sigma_udf=0
        )
        gt = GroundTruthModel(cluster, params)
        blocked = [
            op
            for op in physical_join_plan.walk()
            if any(child.is_blocking for child in op.children)
        ]
        for op in blocked:
            assert gt.hidden_multiplier(op) == pytest.approx(1.15)


class TestLatency:
    def test_noise_free_is_deterministic(self, ground_truth, physical_join_plan):
        for op in physical_join_plan.walk():
            assert ground_truth.exclusive_latency(op) == ground_truth.exclusive_latency(op)

    def test_latency_floor(self, ground_truth, physical_simple_plan):
        for op in physical_simple_plan.walk():
            assert (
                ground_truth.exclusive_latency(op) >= ground_truth.params.min_latency
            )

    def test_noise_multiplies(self, physical_simple_plan):
        noisy_gt = GroundTruthModel(ClusterSpec(name="noisy", noise_sigma=0.2))
        op = physical_simple_plan
        rng = np.random.default_rng(0)
        noisy = [noisy_gt.exclusive_latency(op, rng=rng) for _ in range(20)]
        assert len(set(noisy)) > 1

    def test_work_decreases_with_partitions(self, ground_truth, physical_simple_plan):
        big = [
            op for op in physical_simple_plan.walk() if op.input_card > 1e6
        ]
        assert big
        op = big[0]
        w1 = ground_truth.work_per_partition(op.with_partition_count(1))
        w8 = ground_truth.work_per_partition(op.with_partition_count(8))
        assert w8 < w1

    def test_setup_term_creates_interior_optimum(self, ground_truth, physical_simple_plan):
        """Latency vs P must fall then rise: the resource trade-off exists."""
        big = [op for op in physical_simple_plan.walk() if op.input_card > 1e6]
        op = big[0]
        latencies = [
            ground_truth.exclusive_latency(op.with_partition_count(p))
            for p in (1, 8, 64, 512, 3000)
        ]
        best = int(np.argmin(latencies))
        assert 0 < best < len(latencies) - 1

    def test_hash_join_build_side_asymmetry(self, builder, planner, cluster):
        """Building on the bigger side must cost more than probing it."""
        from repro.optimizer.planner import PlannerConfig, QueryPlanner
        from repro.cost.default_model import DefaultCostModel
        from repro.cardinality import CardinalityEstimator
        from repro.plan.physical import PhysicalOp
        from repro.plan.properties import Partitioning

        gt = GroundTruthModel(cluster)
        big = builder.scan("events_2024_01_01")
        small = builder.scan("users_2024_01_01")
        joined = builder.join(big, small, keys=("user_id", "user_id"), tag="t:j")
        config = PlannerConfig(enable_join_commute=False, enable_merge_join=False)
        plan = QueryPlanner(DefaultCostModel(), CardinalityEstimator(), config).plan(
            builder.output(joined, name="o")
        ).plan
        join_op = next(op for op in plan.walk() if op.op_type is PhysOpType.HASH_JOIN)
        swapped = PhysicalOp(
            op_type=join_op.op_type,
            children=(join_op.children[1], join_op.children[0]),
            logical=join_op.logical,
            partition_count=join_op.partition_count,
            partitioning=join_op.partitioning,
        )
        # join_op probes big/builds small; swapped builds big -> more work.
        assert gt.work_per_partition(swapped) > gt.work_per_partition(join_op)

    def test_cpu_seconds_scale_with_partitions(self, ground_truth, physical_simple_plan):
        op = physical_simple_plan
        latency = ground_truth.exclusive_latency(op)
        cpu = ground_truth.cpu_seconds(op, latency)
        assert cpu == pytest.approx(
            latency * op.partition_count / ground_truth.skew_factor(op)
        )

    def test_udf_multiplier_varies_by_name(self, builder, planner, cluster):
        gt = GroundTruthModel(cluster)
        plans = []
        for udf in ("udf_a", "udf_b"):
            processed = builder.process(
                builder.scan("events_2024_01_01"), udf, tag=f"t:{udf}"
            )
            plans.append(planner.plan(builder.output(processed, name="o")).plan)
        multipliers = []
        for plan in plans:
            op = next(o for o in plan.walk() if o.op_type is PhysOpType.PROCESS)
            multipliers.append(gt.hidden_multiplier(op))
        assert multipliers[0] != multipliers[1]


def _draw(params: GroundTruthParams, sigma: float, *key: object) -> float:
    """One log-normal factor as two separate uniforms, uncached."""
    if sigma <= 0.0:
        return 1.0
    u = stable_unit_float(params.seed_salt, *key)
    v = stable_unit_float(params.seed_salt, "v", *key)
    u = min(max(u, 1e-12), 1 - 1e-12)
    z = math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v)
    return math.exp(sigma * z)


def _five_draw_product(gt: GroundTruthModel, op) -> float:
    """The multiplier drawn factor by factor, in the model's product order."""
    p, cluster, op_value = gt.params, gt.cluster.name, op.op_type.value
    m = _draw(p, p.sigma_op, "op", cluster, op_value)
    m *= _draw(p, p.sigma_input, "input", cluster, op_value, op.normalized_inputs)
    m *= _draw(p, p.sigma_ctx, "ctx", op_value, op.child_context())
    m *= _draw(p, p.sigma_residual, "res", cluster, strict_signature(op))
    if op.op_type is PhysOpType.PROCESS and op.logical is not None:
        m *= _draw(p, p.sigma_udf, "udf", op.logical.udf_name)
    if any(child.is_blocking for child in op.children):
        m *= 1.15
    return m


class TestFactorCache:
    """Each factor is drawn once at its own granularity and cached; the
    multiplier must still be the uncached five-draw product, bit for bit."""

    @pytest.mark.parametrize("spec", DEFAULT_CLUSTERS, ids=lambda spec: spec.name)
    def test_cached_multiplier_equals_the_five_draw_product(self, spec):
        runner = WorkloadRunner(cluster=spec, seed=0, keep_plans=True)
        runner.run_days(WorkloadGenerator(workload_config(spec.name, "small", 0)), [1])
        ops = [op for plan in runner.plans.values() for op in plan.walk()]
        assert any(
            op.op_type is PhysOpType.PROCESS and op.logical.udf_name for op in ops
        ), "the day must reach the per-UDF factor"
        assert any(any(child.is_blocking for child in op.children) for op in ops)
        reference, forward, backward = (GroundTruthModel(spec) for _ in range(3))
        expected = [_five_draw_product(reference, op) for op in ops]
        assert [forward.hidden_multiplier(op) for op in ops] == expected
        # Factors first reached by other templates give the same bits.
        assert [backward.hidden_multiplier(op) for op in reversed(ops)] == expected[::-1]
        assert len(forward._factor_cache) < len(ops)
