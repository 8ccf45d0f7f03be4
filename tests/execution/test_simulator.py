"""Tests for the execution simulator's oracle and the per-operator
reference executor (``repro.reference.run_job``), and run logs."""

from __future__ import annotations

import pytest

from repro.execution.runtime_log import RunLog
from repro.execution.simulator import ExecutionSimulator
from repro.execution.trace import STAGE_STARTUP_SECONDS
from repro.plan.stages import build_stage_graph
from repro.reference import run_job


@pytest.fixture()
def simulator(cluster):
    return ExecutionSimulator(cluster, seed=0)


class TestRunJob:
    def test_one_record_per_operator(self, simulator, physical_join_plan):
        result = run_job(simulator, physical_join_plan, job_id="j1")
        assert len(result.record.operators) == physical_join_plan.node_count

    def test_records_align_with_walk_order(self, simulator, physical_join_plan):
        result = run_job(simulator, physical_join_plan, job_id="j1")
        for op, record in zip(physical_join_plan.walk(), result.record.operators):
            assert record.op_type == op.op_type.value
            assert record.actual_output_card == op.true_card

    def test_deterministic_given_job_id(self, simulator, physical_simple_plan):
        r1 = run_job(simulator, physical_simple_plan, job_id="same")
        r2 = run_job(simulator, physical_simple_plan, job_id="same")
        assert r1.record.latency_seconds == r2.record.latency_seconds

    def test_different_jobs_different_noise(self, cluster, physical_simple_plan):
        noisy_cluster = type(cluster)(name=cluster.name, noise_sigma=0.2)
        sim = ExecutionSimulator(noisy_cluster, seed=0)
        r1 = run_job(sim, physical_simple_plan, job_id="a")
        r2 = run_job(sim, physical_simple_plan, job_id="b")
        assert r1.record.latency_seconds != r2.record.latency_seconds

    def test_latency_is_critical_path(self, simulator, physical_join_plan):
        result = run_job(simulator, physical_join_plan, job_id="j", with_noise=False)
        graph = build_stage_graph(physical_join_plan)
        # Job latency must be at least the largest single-stage latency and
        # no more than the sum of all stages.
        assert max(result.stage_latencies) <= result.record.latency_seconds
        assert result.record.latency_seconds <= sum(result.stage_latencies) + 1e-9
        assert len(result.stage_latencies) == len(graph.stages)

    def test_stage_latency_includes_startup(self, simulator, physical_simple_plan):
        result = run_job(simulator, physical_simple_plan, job_id="j", with_noise=False)
        assert all(s >= STAGE_STARTUP_SECONDS for s in result.stage_latencies)

    def test_expected_latency_matches_noise_free_run(self, simulator, physical_join_plan):
        expected = simulator.expected_job_latency(physical_join_plan)
        run = run_job(simulator, physical_join_plan, job_id="x", with_noise=False)
        assert expected == pytest.approx(run.record.latency_seconds)

    def test_cpu_seconds_positive_and_exceed_none(self, simulator, physical_join_plan):
        assert simulator.expected_cpu_seconds(physical_join_plan) > 0

    def test_input_bytes_from_leaves(self, simulator, physical_join_plan):
        result = run_job(simulator, physical_join_plan, job_id="j")
        leaves = [op for op in physical_join_plan.walk() if not op.children]
        expected = sum(leaf.true_card * leaf.row_bytes for leaf in leaves)
        assert result.record.input_bytes == pytest.approx(expected)

    def test_features_use_estimates(self, simulator, physical_simple_plan, estimator):
        result = run_job(simulator, physical_simple_plan, job_id="j", estimator=estimator)
        for op, record in zip(physical_simple_plan.walk(), result.record.operators):
            assert record.features.output_card == pytest.approx(estimator.estimate(op))


class TestRunLog:
    def _log_with(self, simulator, plan) -> RunLog:
        log = RunLog()
        for day in (1, 2):
            for i in range(3):
                result = run_job(
                    simulator, plan, job_id=f"d{day}i{i}", day=day, is_adhoc=(i == 2)
                )
                log.append(result.record)
        return log

    def test_filter_by_day(self, simulator, physical_simple_plan):
        log = self._log_with(simulator, physical_simple_plan)
        assert len(log.filter(days=[1])) == 3
        assert log.filter(days=[1]).days == [1]

    def test_filter_by_adhoc(self, simulator, physical_simple_plan):
        log = self._log_with(simulator, physical_simple_plan)
        assert len(log.filter(adhoc=True)) == 2
        assert len(log.filter(adhoc=False)) == 4

    def test_operator_records_count(self, simulator, physical_simple_plan):
        log = self._log_with(simulator, physical_simple_plan)
        assert log.operator_count == 6 * physical_simple_plan.node_count

    def test_filters_compose(self, simulator, physical_simple_plan):
        log = self._log_with(simulator, physical_simple_plan)
        assert len(log.filter(days=[2], adhoc=True)) == 1

    def test_clusters_listing(self, simulator, physical_simple_plan):
        log = self._log_with(simulator, physical_simple_plan)
        assert log.clusters == [simulator.cluster.name]
