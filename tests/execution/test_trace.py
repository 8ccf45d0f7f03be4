"""Tests for execution traces and critical-path analysis."""

from __future__ import annotations

import pytest

from repro.execution.simulator import ExecutionSimulator
from repro.execution.trace import compare_traces, trace_job
from repro.plan.stages import build_stage_graph


@pytest.fixture()
def simulator(cluster):
    return ExecutionSimulator(cluster, seed=0)


class TestTraceJob:
    def test_total_matches_simulator(self, simulator, physical_join_plan):
        trace = trace_job(simulator, physical_join_plan)
        assert trace.latency_seconds == pytest.approx(
            simulator.expected_job_latency(physical_join_plan)
        )

    def test_one_trace_per_stage(self, simulator, physical_join_plan):
        trace = trace_job(simulator, physical_join_plan)
        graph = build_stage_graph(physical_join_plan)
        assert len(trace.stages) == len(graph.stages)

    def test_stages_start_after_upstreams(self, simulator, physical_join_plan):
        trace = trace_job(simulator, physical_join_plan)
        graph = build_stage_graph(physical_join_plan)
        finish = {s.index: s.finish_seconds for s in trace.stages}
        for stage_trace in trace.stages:
            upstream = graph.stages[stage_trace.index].upstream
            for u in upstream:
                assert stage_trace.start_seconds >= finish[u] - 1e-9

    def test_critical_path_nonempty_and_connected(self, simulator, physical_join_plan):
        trace = trace_job(simulator, physical_join_plan)
        critical = trace.critical_path
        assert critical
        # The final stage is always on the critical path.
        last = max(trace.stages, key=lambda s: s.finish_seconds)
        assert last.on_critical_path

    def test_critical_path_duration_equals_total(self, simulator, physical_join_plan):
        trace = trace_job(simulator, physical_join_plan)
        critical_duration = sum(s.seconds for s in trace.critical_path)
        assert critical_duration == pytest.approx(trace.latency_seconds)

    def test_bottleneck_is_longest_critical_stage(self, simulator, physical_join_plan):
        trace = trace_job(simulator, physical_join_plan)
        bottleneck = trace.bottleneck()
        assert bottleneck.seconds == max(s.seconds for s in trace.critical_path)

    def test_describe_mentions_all_stages(self, simulator, physical_simple_plan):
        trace = trace_job(simulator, physical_simple_plan)
        text = trace.describe()
        assert text.count("stage") >= len(trace.stages)

    def test_compare_traces_reports_delta(self, simulator, physical_join_plan, physical_simple_plan):
        before = trace_job(simulator, physical_join_plan)
        after = trace_job(simulator, physical_simple_plan)
        text = compare_traces(before, after)
        assert "latency:" in text and "bottleneck" in text
