"""The engine's shape-statics cache: its key, and what it saves.

``BatchedExecutionEngine`` keys a plan's :class:`ShapeStatics` by each
node's ``(op_type, template_tag, child count)`` in post order, for replay
winners (``add_job``) and ``PhysicalOp`` plans (``add_plan``) alike.  The
key is only sound if every job it maps to one entry would have built the
same statics itself; and the cache only pays if jobs share shapes.
"""

from __future__ import annotations

import pytest

from repro.execution import batch
from repro.execution.batch import BatchedExecutionEngine, ShapeStatics
from repro.execution.hardware import DEFAULT_CLUSTERS
from repro.experiments.shared import workload_config
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig
from repro.optimizer.skeleton import materialize
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner

_GEOMETRIC = PlannerConfig(
    partition_strategy=SamplingStrategy("geometric"),
    partition_jitter=WorkloadRunner.DEFAULT_PARTITION_JITTER,
)


def _runner(cluster, config: PlannerConfig | None) -> WorkloadRunner:
    return WorkloadRunner(cluster=cluster, seed=0, planner_config=config)


def _log_bytes(log) -> tuple[bytes, ...]:
    table = log.to_table()
    # A float's repr round-trips its bits, sign of zero included.
    return (
        repr(log.jobs).encode(),
        table.features.tobytes(),
        table.signatures.tobytes(),
        table.latency.tobytes(),
    )


@pytest.mark.parametrize("config", [None, _GEOMETRIC], ids=["stock", "geometric"])
@pytest.mark.parametrize("cluster", DEFAULT_CLUSTERS, ids=lambda c: c.name)
def test_every_job_gets_the_statics_it_would_build(monkeypatch, cluster, config):
    """Each job's fresh ``build_shape_statics`` equals, slot for slot, the
    statics the cache hands it under its key."""
    original = BatchedExecutionEngine._statics
    calls = []

    def checked(self, nodes, plan):
        statics = original(self, nodes, plan)
        fresh = batch.build_shape_statics(plan or materialize(nodes[-1]), self.simulator)
        for slot in ShapeStatics.__slots__:  # all 26
            assert getattr(statics, slot) == getattr(fresh, slot), slot
        calls.append(statics)
        return statics

    monkeypatch.setattr(BatchedExecutionEngine, "_statics", checked)
    generator = WorkloadGenerator(workload_config(cluster.name, "tiny", 0))
    log = _runner(cluster, config).run_days(generator, range(1, 4))
    assert len(calls) == len(log.jobs)
    shared = len(calls) - len({id(statics) for statics in calls})
    assert shared > len(calls) // 3, "most shapes must repeat, or no hit is checked"


def test_add_plan_builds_once_per_shape_and_logs_the_same_bytes(monkeypatch):
    """A non-stock ``run_days`` (plans through ``QueryPlanner`` and
    ``add_plan``) builds statics once per distinct shape, not once per job,
    and logs exactly what a run without the cache logs."""
    cluster = DEFAULT_CLUSTERS[0]
    builds = []

    def counted(plan, simulator):
        builds.append(plan)
        return build(plan, simulator)

    build = batch.build_shape_statics
    monkeypatch.setattr(batch, "build_shape_statics", counted)
    generator = WorkloadGenerator(workload_config(cluster.name, "small", 0))
    runner = _runner(cluster, _GEOMETRIC)
    cached = runner.run_days(generator, [1, 2])
    assert runner._skeleton_planner is None
    assert (len(cached.jobs), len(builds)) == (154, 79)

    monkeypatch.setattr(
        BatchedExecutionEngine,
        "_statics",
        lambda self, nodes, plan: build(plan, self.simulator),
    )
    uncached = _runner(cluster, _GEOMETRIC).run_days(generator, [1, 2])
    assert _log_bytes(uncached) == _log_bytes(cached)
