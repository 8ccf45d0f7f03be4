"""Tests for task-runtime estimation and scheduling (applications.scheduling)."""

from __future__ import annotations

import pytest

from repro.applications.scheduling import (
    ClusterScheduler,
    SchedulingStudy,
    TaskSpec,
    job_to_tasks,
)
from repro.common.errors import ValidationError
from repro.core.cost_model import CleoCostModel
from repro.cost.default_model import DefaultCostModel
from repro.plan.stages import build_stage_graph


def task(
    job: str,
    stage: int,
    containers: int = 1,
    estimated: float = 10.0,
    actual: float = 10.0,
    upstream: tuple[int, ...] = (),
) -> TaskSpec:
    return TaskSpec(
        job_id=job,
        stage_index=stage,
        containers=containers,
        estimated_seconds=estimated,
        actual_seconds=actual,
        upstream=upstream,
    )


class TestTaskSpec:
    def test_rejects_zero_containers(self):
        with pytest.raises(ValidationError):
            task("j", 0, containers=0)

    def test_rejects_negative_runtime(self):
        with pytest.raises(ValidationError):
            task("j", 0, estimated=-1.0)

    def test_key(self):
        assert task("j", 3).key == ("j", 3)


class TestJobToTasks:
    def test_one_task_per_stage(self, tiny_bundle, tiny_predictor):
        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        tasks = job_to_tasks(
            plan,
            job.job_id,
            CleoCostModel(tiny_predictor),
            tiny_bundle.fresh_estimator(),
            tiny_bundle.runner.simulator,
        )
        assert len(tasks) == len(build_stage_graph(plan))

    def test_upstream_indices_are_valid_stages(self, tiny_bundle, tiny_predictor):
        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        tasks = job_to_tasks(
            plan,
            job.job_id,
            CleoCostModel(tiny_predictor),
            tiny_bundle.fresh_estimator(),
            tiny_bundle.runner.simulator,
        )
        indices = {t.stage_index for t in tasks}
        for t in tasks:
            assert set(t.upstream) <= indices
            assert t.stage_index not in t.upstream

    def test_runtimes_include_startup(self, tiny_bundle, tiny_predictor):
        from repro.execution.trace import STAGE_STARTUP_SECONDS

        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        tasks = job_to_tasks(
            plan,
            job.job_id,
            CleoCostModel(tiny_predictor),
            tiny_bundle.fresh_estimator(),
            tiny_bundle.runner.simulator,
        )
        for t in tasks:
            assert t.estimated_seconds >= STAGE_STARTUP_SECONDS
            assert t.actual_seconds >= STAGE_STARTUP_SECONDS


class TestClusterScheduler:
    def test_chain_runs_sequentially(self):
        jobs = {
            "j": [
                task("j", 0, actual=5.0),
                task("j", 1, actual=7.0, upstream=(0,)),
                task("j", 2, actual=3.0, upstream=(1,)),
            ]
        }
        outcome = ClusterScheduler(total_containers=8).run(jobs)
        assert outcome.makespan == pytest.approx(15.0)
        assert outcome.job_completion["j"] == pytest.approx(15.0)

    def test_independent_tasks_run_in_parallel(self):
        jobs = {
            "a": [task("a", 0, actual=10.0)],
            "b": [task("b", 0, actual=6.0)],
        }
        outcome = ClusterScheduler(total_containers=2).run(jobs)
        assert outcome.makespan == pytest.approx(10.0)
        assert outcome.job_completion["b"] == pytest.approx(6.0)

    def test_contention_serializes(self):
        jobs = {
            "a": [task("a", 0, actual=10.0)],
            "b": [task("b", 0, actual=6.0)],
        }
        outcome = ClusterScheduler(total_containers=1).run(jobs)
        assert outcome.makespan == pytest.approx(16.0)

    def test_lpt_starts_longest_first(self):
        jobs = {
            "short": [task("short", 0, estimated=2.0, actual=2.0)],
            "long": [task("long", 0, estimated=20.0, actual=20.0)],
        }
        outcome = ClusterScheduler(total_containers=1, policy="lpt").run(jobs)
        # Long first: short finishes at 22; LPT sacrifices mean JCT.
        assert outcome.job_completion["short"] == pytest.approx(22.0)

    def test_sjf_starts_shortest_job_first(self):
        jobs = {
            "short": [task("short", 0, estimated=2.0, actual=2.0)],
            "long": [task("long", 0, estimated=20.0, actual=20.0)],
        }
        outcome = ClusterScheduler(total_containers=1, policy="sjf").run(jobs)
        assert outcome.job_completion["short"] == pytest.approx(2.0)

    def test_fifo_respects_submission_order(self):
        jobs = {
            "first": [task("first", 0, estimated=1.0, actual=20.0)],
            "second": [task("second", 0, estimated=100.0, actual=2.0)],
        }
        outcome = ClusterScheduler(total_containers=1, policy="fifo").run(jobs)
        assert outcome.job_completion["first"] == pytest.approx(20.0)
        assert outcome.job_completion["second"] == pytest.approx(22.0)

    def test_misleading_estimates_change_the_schedule(self):
        # SJF trusts estimates; lying estimates flip the order.
        honest = {
            "short": [task("short", 0, estimated=2.0, actual=2.0)],
            "long": [task("long", 0, estimated=20.0, actual=20.0)],
        }
        lying = {
            "short": [task("short", 0, estimated=30.0, actual=2.0)],
            "long": [task("long", 0, estimated=1.0, actual=20.0)],
        }
        scheduler = ClusterScheduler(total_containers=1, policy="sjf")
        good = scheduler.run(honest)
        bad = scheduler.run(lying)
        assert good.mean_job_completion < bad.mean_job_completion

    def test_gang_larger_than_pool_is_clamped(self):
        jobs = {"j": [task("j", 0, containers=100, actual=5.0)]}
        outcome = ClusterScheduler(total_containers=4).run(jobs)
        assert outcome.makespan == pytest.approx(5.0)
        assert outcome.utilization <= 1.0

    def test_busy_seconds_conservation(self):
        jobs = {
            "a": [task("a", 0, containers=2, actual=10.0)],
            "b": [task("b", 0, containers=1, actual=4.0)],
        }
        outcome = ClusterScheduler(total_containers=4).run(jobs)
        assert outcome.container_busy_seconds == pytest.approx(2 * 10.0 + 1 * 4.0)
        assert 0.0 <= outcome.utilization <= 1.0

    def test_duplicate_task_keys_rejected(self):
        jobs = {"j": [task("j", 0), task("j", 0)]}
        with pytest.raises(ValidationError):
            ClusterScheduler(total_containers=1).run(jobs)

    def test_dangling_upstream_rejected(self):
        jobs = {"j": [task("j", 0, upstream=(99,))]}
        with pytest.raises(ValidationError):
            ClusterScheduler(total_containers=1).run(jobs)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValidationError):
            ClusterScheduler(total_containers=1, policy="random")

    def test_bad_pool_rejected(self):
        with pytest.raises(ValidationError):
            ClusterScheduler(total_containers=0)

    def test_empty_jobs(self):
        outcome = ClusterScheduler(total_containers=1).run({})
        assert outcome.makespan == 0.0
        assert outcome.job_completion == {}


class TestSchedulingStudy:
    @pytest.fixture()
    def study_inputs(self, tiny_bundle):
        jobs = list(tiny_bundle.test_log())[:6]
        plans = {job.job_id: tiny_bundle.runner.plans[job.job_id] for job in jobs}
        return plans

    def test_busy_seconds_identical_across_estimators(
        self, tiny_bundle, tiny_predictor, study_inputs
    ):
        study = SchedulingStudy(
            simulator=tiny_bundle.runner.simulator,
            estimator=tiny_bundle.fresh_estimator(),
            total_containers=64,
        )
        results = study.run(
            study_inputs,
            {
                "learned": CleoCostModel(tiny_predictor),
                "default": DefaultCostModel(),
            },
        )
        # Actual runtimes and gang sizes do not depend on the estimator:
        # only the ordering decisions differ.
        busy = {name: out.container_busy_seconds for name, out in results.items()}
        assert busy["learned"] == pytest.approx(busy["default"], rel=1e-9)

    def test_oracle_runs(self, tiny_bundle, tiny_predictor, study_inputs):
        study = SchedulingStudy(
            simulator=tiny_bundle.runner.simulator,
            estimator=tiny_bundle.fresh_estimator(),
            total_containers=64,
        )
        oracle = study.oracle(study_inputs)
        assert oracle.makespan > 0
        assert set(oracle.job_completion) == set(study_inputs)

    def test_empty_plans_rejected(self, tiny_bundle):
        study = SchedulingStudy(
            simulator=tiny_bundle.runner.simulator,
            estimator=tiny_bundle.fresh_estimator(),
            total_containers=4,
        )
        with pytest.raises(ValidationError):
            study.run({}, {})
