"""Tests for the machine-SKU advisor (applications.sku)."""

from __future__ import annotations

import pytest

from repro.applications.prediction import JobPerformancePredictor
from repro.applications.sku import MachineSku, SkuAdvisor, SkuEstimate
from repro.common.errors import ValidationError
from repro.execution.trace import STAGE_STARTUP_SECONDS, Timeline
from repro.plan.stages import build_stage_graph

STANDARD = MachineSku(name="standard", speed_factor=1.0, price_per_container_hour=0.10)
FAST = MachineSku(name="fast", speed_factor=2.0, price_per_container_hour=0.25)
SLOW_CHEAP = MachineSku(name="slow", speed_factor=0.5, price_per_container_hour=0.04)


@pytest.fixture()
def any_plan(tiny_bundle):
    job = next(iter(tiny_bundle.test_log()))
    return tiny_bundle.runner.plans[job.job_id]


@pytest.fixture()
def advisor(tiny_bundle, tiny_predictor):
    return SkuAdvisor(tiny_predictor, tiny_bundle.fresh_estimator())


class TestMachineSku:
    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValidationError):
            MachineSku(name="bad", speed_factor=0.0, price_per_container_hour=0.1)

    def test_rejects_negative_price(self):
        with pytest.raises(ValidationError):
            MachineSku(name="bad", speed_factor=1.0, price_per_container_hour=-1.0)


class TestScalingSemantics:
    def test_reference_sku_matches_unscaled_prediction(
        self, advisor, tiny_bundle, tiny_predictor, any_plan
    ):
        baseline = JobPerformancePredictor(
            tiny_predictor, tiny_bundle.fresh_estimator()
        ).predict(any_plan)
        estimate = advisor.estimate(any_plan, STANDARD)
        assert estimate.latency_seconds == pytest.approx(baseline.latency_seconds)
        assert estimate.cpu_seconds == pytest.approx(baseline.cpu_seconds)

    def test_faster_sku_is_never_slower(self, advisor, any_plan):
        standard = advisor.estimate(any_plan, STANDARD)
        fast = advisor.estimate(any_plan, FAST)
        assert fast.latency_seconds <= standard.latency_seconds
        assert fast.cpu_seconds <= standard.cpu_seconds

    def test_startup_charge_does_not_scale(self, advisor, any_plan):
        """Only operator work scales with speed: each stage on a SKU twice as
        fast is the start-up charge plus half the reference work, and the
        job latency is the critical path of those stages."""
        standard = advisor.estimate(any_plan, STANDARD).prediction
        fast = advisor.estimate(any_plan, FAST).prediction
        for reference, scaled in zip(standard.stages, fast.stages):
            assert scaled.seconds - STAGE_STARTUP_SECONDS == pytest.approx(
                (reference.seconds - STAGE_STARTUP_SECONDS) / FAST.speed_factor
            )
        finish: dict[int, float] = {}
        for stage in build_stage_graph(any_plan).topological_order():
            start = max((finish[u] for u in stage.upstream), default=0.0)
            finish[stage.index] = start + fast.stages[stage.index].seconds
        assert fast.latency_seconds == pytest.approx(max(finish.values()))

    def test_matches_simulator_across_speed_factors(self, tiny_bundle):
        """The advisor's scaling law is the simulator's: same cluster at
        double speed halves compute time exactly (startup fixed)."""
        from repro.execution.hardware import ClusterSpec
        from repro.execution.simulator import ExecutionSimulator

        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        base_cluster = tiny_bundle.cluster
        fast_cluster = ClusterSpec(
            name=base_cluster.name,
            speed_factor=base_cluster.speed_factor * 2.0,
            noise_sigma=0.0,
            outlier_probability=0.0,
        )
        base_sim = ExecutionSimulator(
            ClusterSpec(
                name=base_cluster.name,
                speed_factor=base_cluster.speed_factor,
                noise_sigma=0.0,
                outlier_probability=0.0,
            )
        )
        fast_sim = ExecutionSimulator(fast_cluster)

        n_stages_startup = STAGE_STARTUP_SECONDS  # charged per stage
        base_latency = base_sim.expected_job_latency(plan)
        fast_latency = fast_sim.expected_job_latency(plan)
        # Compute part halves; startup part is identical.  On a chain DAG
        # latency = startup*k + work, so work_fast = work_base / 2 holds
        # stage by stage; assert the aggregate inequality bounds.
        graph = build_stage_graph(plan)
        min_startup = n_stages_startup  # at least one stage on the path
        assert fast_latency < base_latency
        assert fast_latency >= (base_latency - min_startup * len(graph.stages)) / 2.0


class TestRecommendation:
    def test_no_deadline_picks_cheapest(self, advisor, any_plan):
        recommendation = advisor.recommend(any_plan, [STANDARD, FAST, SLOW_CHEAP])
        assert recommendation.chosen is not None
        cheapest = min(recommendation.estimates, key=lambda e: e.dollar_cost)
        assert recommendation.chosen.sku.name == cheapest.sku.name

    def test_deadline_picks_cheapest_feasible(self, advisor, any_plan):
        standard = advisor.estimate(any_plan, STANDARD)
        # Deadline only the fast SKU can definitely meet.
        fast = advisor.estimate(any_plan, FAST)
        deadline = (fast.latency_seconds + standard.latency_seconds) / 2
        recommendation = advisor.recommend(
            any_plan, [STANDARD, FAST, SLOW_CHEAP], deadline_seconds=deadline
        )
        if recommendation.chosen is None:
            pytest.skip("degenerate plan: even fast SKU misses the midpoint")
        assert recommendation.chosen.latency_seconds <= deadline
        for estimate in recommendation.estimates:
            if estimate.dollar_cost < recommendation.chosen.dollar_cost:
                assert estimate.latency_seconds > deadline

    def test_impossible_deadline_yields_none(self, advisor, any_plan):
        recommendation = advisor.recommend(
            any_plan, [STANDARD, FAST], deadline_seconds=1e-3
        )
        assert recommendation.chosen is None
        assert "no SKU meets" in recommendation.describe()

    def test_pareto_frontier_is_nondominated_and_sorted(self, advisor, any_plan):
        recommendation = advisor.recommend(any_plan, [STANDARD, FAST, SLOW_CHEAP])
        frontier = recommendation.pareto_frontier
        assert frontier
        latencies = [e.latency_seconds for e in frontier]
        assert latencies == sorted(latencies)
        for a in frontier:
            assert not any(b.dominates(a) for b in recommendation.estimates)

    def test_describe_marks_choice(self, advisor, any_plan):
        recommendation = advisor.recommend(any_plan, [STANDARD, FAST])
        assert "<- chosen" in recommendation.describe()

    def test_empty_skus_rejected(self, advisor, any_plan):
        with pytest.raises(ValidationError):
            advisor.recommend(any_plan, [])

    def test_bad_deadline_rejected(self, advisor, any_plan):
        with pytest.raises(ValidationError):
            advisor.recommend(any_plan, [STANDARD], deadline_seconds=0.0)

    def test_bad_reference_speed_rejected(self, tiny_predictor):
        with pytest.raises(ValidationError):
            SkuAdvisor(tiny_predictor, reference_speed=0.0)


class TestDominance:
    def test_strict_dominance(self, advisor, any_plan):
        fast = advisor.estimate(any_plan, FAST)
        # A SKU that is both faster and cheaper dominates.
        better = SkuEstimate(
            sku=MachineSku(name="better", speed_factor=4.0, price_per_container_hour=0.01),
            prediction=advisor.estimate(
                any_plan,
                MachineSku(name="better", speed_factor=4.0, price_per_container_hour=0.01),
            ).prediction,
        )
        assert better.dominates(fast)
        assert not fast.dominates(better)

    def test_equal_estimates_do_not_dominate(self, advisor, any_plan):
        one = advisor.estimate(any_plan, STANDARD)
        two = advisor.estimate(any_plan, STANDARD)
        assert not one.dominates(two)
        assert not two.dominates(one)


class TestParetoProperties:
    """Pure-logic hypothesis tests on synthetic (latency, price) sets."""

    @staticmethod
    def _estimate(name: str, latency: float, cpu: float, price: float) -> SkuEstimate:
        return SkuEstimate(
            sku=MachineSku(name=name, speed_factor=1.0, price_per_container_hour=price),
            prediction=Timeline(stages=(), latency_seconds=latency, cpu_seconds=cpu),
        )

    def test_frontier_properties(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.applications.sku import SkuRecommendation

        values = st.floats(min_value=0.1, max_value=1e4, allow_nan=False)

        @given(
            points=st.lists(
                st.tuples(values, values, values), min_size=1, max_size=12
            )
        )
        @settings(max_examples=100, deadline=None)
        def run(points):
            estimates = tuple(
                self._estimate(f"sku{i}", lat, cpu, price)
                for i, (lat, cpu, price) in enumerate(points)
            )
            recommendation = SkuRecommendation(
                deadline_seconds=None, chosen=None, estimates=estimates
            )
            frontier = recommendation.pareto_frontier
            assert frontier
            # Sorted by latency, and no frontier member dominated by anyone.
            latencies = [e.latency_seconds for e in frontier]
            assert latencies == sorted(latencies)
            for member in frontier:
                assert not any(other.dominates(member) for other in estimates)
            # Everyone off the frontier is dominated by someone.
            off = [e for e in estimates if e not in frontier]
            for loser in off:
                assert any(winner.dominates(loser) for winner in estimates)

        run()
