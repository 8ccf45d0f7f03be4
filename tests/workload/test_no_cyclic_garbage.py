"""A night of the feedback loop leaves nothing for the cyclic collector.

Reference counting frees an acyclic object the moment its last reference
goes; only a cycle (a recursive closure, a bound method stored on its own
instance) waits for the cyclic collector, and on a long loop that garbage
is what makes full collections frequent and slow.  This runs one night's
stages on a tiny fleet with the collector off, then counts what a
collection finds unreachable: it must be nothing, the trained predictor
and the router included once the night drops them.
"""

from __future__ import annotations

import gc

from repro.applications.whatif import WhatIfAnalyzer, scale_tables
from repro.cardinality.estimator import CardinalityEstimator
from repro.core.trainer import CleoTrainer
from repro.execution.hardware import DEFAULT_CLUSTERS
from repro.optimizer.partition import AnalyticalStrategy, SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.serving.shard.router import ShardedCleoRouter
from repro.workload.generator import ClusterWorkloadConfig, WorkloadGenerator
from repro.workload.runner import WorkloadRunner
from repro.workload.templates import instantiate


def _night() -> None:
    cluster = DEFAULT_CLUSTERS[3]
    generator = WorkloadGenerator(
        ClusterWorkloadConfig(
            cluster_name=cluster.name,
            n_tables=5,
            n_fragments=9,
            n_templates=12,
            adhoc_fraction=0.15,
            seed=3,
        )
    )
    runner = WorkloadRunner(cluster=cluster, seed=3, keep_plans=True)
    log = runner.run_days(generator, [1, 2])
    predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])
    router = ShardedCleoRouter({cluster.name: predictor}, n_shards=2, n_workers=1)

    catalog = generator.catalog_for_day(3)
    specs = generator.jobs_for_day(3)
    jobs = [
        ReplanJob(spec.job_id, spec.template.template_id, spec.day, instantiate(spec, catalog))
        for spec in specs
    ]
    replanner = FleetReplanner(
        router.cost_model(cluster.name), CardinalityEstimator(), PlannerConfig()
    )
    planned = replanner.replan_jobs(jobs)
    day_log = runner.run_days(generator, [3])
    assert len(day_log) == len(jobs)
    simulator = runner.simulator
    for plan in planned:
        assert simulator.expected_job_latency(plan.plan) > 0

    for strategy in (SamplingStrategy(), AnalyticalStrategy()):
        planner = QueryPlanner(
            router.cost_model(cluster.name),
            CardinalityEstimator(),
            PlannerConfig(partition_strategy=strategy),
        )
        for job in jobs[:3]:
            assert planner.plan(job.logical).estimated_cost > 0

    logical = jobs[0].logical
    node = logical
    while node.children:
        node = node.children[0]
    outcome = WhatIfAnalyzer(predictor).evaluate(
        logical, lambda plan: scale_tables(plan, {node.table: 2.0})
    )
    assert outcome.variant.latency_seconds > 0


def test_a_night_makes_no_cyclic_garbage():
    # A first night pays the one-time costs (lazy imports build cyclic
    # module state); the second is the steady state.
    _night()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _night()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
