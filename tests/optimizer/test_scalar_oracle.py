"""The scalar oracle shares no planner path with the replay it checks.

The paper's retrofit swaps only the cost call of Optimize Inputs (Section 5,
Figure 8a step 10), so Cleo must pick the same plan whether it prices one
candidate at a time or a whole frontier at once.  The bench checks that with
``QueryPlanner(CleoCostModel(p, batched=False), CardinalityEstimator(), cfg)``
(``nightly_loop``'s oracle without, ``online_compile``'s with a geometric
partition strategy).  That check means something only if the oracle runs
another search than the one it checks: a ``batched=False`` model is opaque
to the skeleton replay, so ``QueryPlanner`` plans it on the ``PhysicalOp``
configuration (one ``operator_cost`` per candidate, ``plan_cost`` for the
total, ``_price_grid``'s per-row branch), and the replay refuses it.
"""

from __future__ import annotations

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.core.cost_model import CleoCostModel
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.optimizer.skeleton import SkeletonPlanner, supports_replay
from repro.serving.shard import ShardedCleoRouter
from repro.workload.templates import instantiate
from tests.optimizer.test_golden_rules import digest

#: The bench oracles' two configurations.
CONFIGS = {
    "plain": PlannerConfig(),
    "geometric": PlannerConfig(partition_strategy=SamplingStrategy("geometric")),
}


@pytest.fixture(scope="module")
def day_three_jobs(tiny_bundle) -> list[ReplanJob]:
    catalog = tiny_bundle.generator.catalog_for_day(3)
    return [
        ReplanJob(spec.job_id, spec.template.template_id, spec.day, instantiate(spec, catalog))
        for spec in tiny_bundle.generator.jobs_for_day(3)
    ]


@pytest.mark.parametrize("name", CONFIGS)
def test_oracle_plans_every_job_as_the_fleet_does(tiny_predictor, day_three_jobs, name):
    config = CONFIGS[name]
    oracle = QueryPlanner(
        CleoCostModel(tiny_predictor, batched=False), CardinalityEstimator(), config
    )
    assert oracle._replay is None
    router = ShardedCleoRouter({"cluster1": tiny_predictor}, n_shards=2)
    fleet = FleetReplanner(router.cost_model("cluster1"), CardinalityEstimator(), config)
    planned = fleet.replan_jobs(day_three_jobs)
    assert len(planned) == len(day_three_jobs) > 30
    for job, expected in zip(day_three_jobs, planned):
        oracle.jitter_salt = job.salt
        assert digest(oracle.plan(job.logical)) == digest(expected), job.job_id


def test_the_replay_refuses_the_reference_schedule(tiny_predictor):
    scalar = CleoCostModel(tiny_predictor, batched=False)
    assert not supports_replay(scalar, CardinalityEstimator())
    with pytest.raises(OptimizationError, match="supports_replay_costing"):
        SkeletonPlanner(scalar, CardinalityEstimator(), PlannerConfig())
    with pytest.raises(OptimizationError, match="supports_replay_costing"):
        FleetReplanner(scalar)
