"""Property-based tests (hypothesis) for the applications package."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.progress import ProgressEstimator, stage_count_progress
from repro.applications.scheduling import ClusterScheduler, TaskSpec
from repro.applications.whatif import scale_tables, subtree_key
from repro.execution.trace import StageTiming, Timeline
from repro.plan.builder import PlanBuilder
from tests.conftest import make_test_catalog

# ----------------------------------------------------------------------- #
# Scheduler conservation properties over random task systems
# ----------------------------------------------------------------------- #

_durations = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)


@st.composite
def task_systems(draw) -> dict[str, list[TaskSpec]]:
    """Random jobs whose stages form chains with random branch joins.

    Upstream edges only point to lower stage indices, so the system is
    always acyclic and schedulable.
    """
    jobs: dict[str, list[TaskSpec]] = {}
    n_jobs = draw(st.integers(min_value=1, max_value=4))
    for j in range(n_jobs):
        job_id = f"job{j}"
        n_stages = draw(st.integers(min_value=1, max_value=5))
        tasks = []
        for index in range(n_stages):
            upstream: tuple[int, ...] = ()
            if index > 0:
                pool = list(range(index))
                upstream = tuple(
                    sorted(
                        draw(
                            st.sets(
                                st.sampled_from(pool),
                                min_size=0,
                                max_size=min(2, len(pool)),
                            )
                        )
                    )
                )
            tasks.append(
                TaskSpec(
                    job_id=job_id,
                    stage_index=index,
                    containers=draw(st.integers(min_value=1, max_value=6)),
                    estimated_seconds=draw(_durations),
                    actual_seconds=draw(_durations),
                    upstream=upstream,
                )
            )
        jobs[job_id] = tasks
    return jobs


class TestSchedulerProperties:
    @given(jobs=task_systems(), containers=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_bounds(self, jobs, containers):
        outcome = ClusterScheduler(total_containers=containers).run(jobs)
        expected_busy = sum(
            min(t.containers, containers) * t.actual_seconds
            for tasks in jobs.values()
            for t in tasks
        )
        assert outcome.container_busy_seconds == pytest.approx(expected_busy)
        assert 0.0 <= outcome.utilization <= 1.0
        # Makespan is at least the pool-capacity bound and at least any
        # single task's duration.
        longest = max(t.actual_seconds for tasks in jobs.values() for t in tasks)
        assert outcome.makespan >= longest - 1e-9
        assert outcome.makespan >= expected_busy / containers - 1e-9
        assert set(outcome.job_completion) == set(jobs)

    @given(jobs=task_systems())
    @settings(max_examples=25, deadline=None)
    def test_policies_agree_on_total_work(self, jobs):
        outcomes = [
            ClusterScheduler(total_containers=4, policy=policy).run(jobs)
            for policy in ClusterScheduler.POLICIES
        ]
        busies = {round(o.container_busy_seconds, 6) for o in outcomes}
        assert len(busies) == 1

    @given(jobs=task_systems())
    @settings(max_examples=25, deadline=None)
    def test_infinite_pool_reaches_critical_path(self, jobs):
        """With unbounded containers, every job finishes at its chain length."""
        outcome = ClusterScheduler(total_containers=10_000).run(jobs)
        for job_id, tasks in jobs.items():
            finish: dict[int, float] = {}
            for task in tasks:  # stage_index ascending by construction
                start = max((finish[u] for u in task.upstream), default=0.0)
                finish[task.stage_index] = start + task.actual_seconds
            assert outcome.job_completion[job_id] == pytest.approx(max(finish.values()))


# ----------------------------------------------------------------------- #
# Progress estimation properties over random stage timelines
# ----------------------------------------------------------------------- #


@st.composite
def traced_predictions(draw) -> tuple[Timeline, Timeline]:
    """A random sequential stage timeline plus predicted weights."""
    n = draw(st.integers(min_value=1, max_value=6))
    starts = [0.0]
    actual = [draw(_durations) for _ in range(n)]
    for duration in actual[:-1]:
        starts.append(starts[-1] + duration)
    predicted = [draw(_durations) for _ in range(n)]

    def stage(i: int, seconds: float, start: float) -> StageTiming:
        return StageTiming(
            index=i,
            partition_count=1,
            operator_types=("Extract",),
            upstream=(),
            seconds=seconds,
            cpu_seconds=seconds,
            start_seconds=start,
            finish_seconds=start + seconds,
            on_critical_path=True,
        )

    prediction = Timeline(
        stages=tuple(stage(i, predicted[i], 0.0) for i in range(n)),
        latency_seconds=sum(predicted),
        cpu_seconds=sum(predicted),
    )
    trace = Timeline(
        stages=tuple(stage(i, actual[i], starts[i]) for i in range(n)),
        latency_seconds=starts[-1] + actual[-1],
        cpu_seconds=sum(actual),
    )
    return prediction, trace


class TestProgressProperties:
    @given(data=traced_predictions())
    @settings(max_examples=50, deadline=None)
    def test_progress_is_monotone_and_bounded(self, data):
        prediction, trace = data
        estimator = ProgressEstimator(prediction)
        total = trace.latency_seconds
        previous = -1.0
        for k in range(11):
            value = estimator.progress_at(trace, total * k / 10)
            assert 0.0 <= value <= 1.0
            assert value >= previous - 1e-12
            previous = value
        assert estimator.progress_at(trace, total) == pytest.approx(1.0)

    @given(data=traced_predictions())
    @settings(max_examples=50, deadline=None)
    def test_stage_count_progress_bounded(self, data):
        _, trace = data
        for k in range(11):
            value = stage_count_progress(trace, trace.latency_seconds * k / 10)
            assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------- #
# What-if transform properties
# ----------------------------------------------------------------------- #

_factors = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestScaleTablesProperties:
    @given(first=_factors, second=_factors)
    @settings(max_examples=50, deadline=None)
    def test_scaling_composes(self, first, second):
        builder = PlanBuilder(make_test_catalog())
        plan = builder.output(
            builder.filter(builder.scan("events_2024_01_01"), "ts", 0.3, tag="p:f"),
            name="p",
        )
        table = "events_2024_01_01"
        stepwise = scale_tables(scale_tables(plan, {table: first}), {table: second})
        direct = scale_tables(plan, {table: first * second})
        for node_a, node_b in zip(stepwise.walk(), direct.walk()):
            assert node_a.true_card == pytest.approx(node_b.true_card, rel=1e-9)

    @given(factor=_factors)
    @settings(max_examples=50, deadline=None)
    def test_scaling_preserves_structure_and_keys(self, factor):
        builder = PlanBuilder(make_test_catalog())
        plan = builder.output(
            builder.aggregate(
                builder.join(
                    builder.scan("events_2024_01_01"),
                    builder.scan("users_2024_01_01"),
                    keys=("user_id", "user_id"),
                    fanout=0.4,
                    tag="p:j",
                ),
                keys=("country",),
                group_count=50,
                tag="p:a",
            ),
            name="p",
        )
        scaled = scale_tables(plan, {"events_2024_01_01": factor})
        assert scaled.node_count == plan.node_count
        for before, after in zip(plan.walk(), scaled.walk()):
            assert before.op_type is after.op_type
            assert before.template_tag == after.template_tag
            assert subtree_key(before) == subtree_key(after)
            assert after.true_card >= 0
            assert math.isfinite(after.true_card)
