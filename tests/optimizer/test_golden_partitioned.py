"""Resource-aware planning pinned as digests (``golden_partitioned.json``).

Recorded on the commit *before* the three-step finale (``optimize_partitions``
sweep grid -> guard grid -> ``plan_cost``) became one P-grid per wave — a
change to the batched finale *and* to its scalar twin, so the twin alone no
longer witnesses the old bits.  Per partition strategy and ``tiny`` seed-0
test-day job, one digest — sha256 over ``(operator type, partition count)`` in
walk order, and ``float.hex`` of the estimated cost:

* ``planned`` — the full resource-aware compile; ``QueryPlanner`` on the
  ``PhysicalOp`` configuration (an
  :class:`~tests.optimizer.test_golden_rules.OperatorPathEstimator`; a stock
  pair compiles through the replay, like ``FleetReplanner``), batched and
  ``batched=False``, the bench's scalar oracle (a stock pair under
  ``batched=False``, which the replay refuses) and ``FleetReplanner`` must
  all reproduce it;
* ``explored_guard`` / ``explored_noguard`` — ``optimize_partitions`` over
  the day's default plans followed by ``plan_cost``, batched and scalar.

The scalar paths price one row per round trip, so they replay every third job.

Regenerate with ``PYTHONPATH=src python -m tests.optimizer.test_golden_partitioned``
— only when a change to partition choices or plan totals is intended.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.cost.interface import plan_cost
from repro.optimizer.partition import (
    AnalyticalStrategy,
    ExhaustiveStrategy,
    SamplingStrategy,
    optimize_partitions,
)
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.workload.templates import instantiate
from tests.optimizer.test_golden_rules import OperatorPathEstimator

GOLDEN = Path(__file__).with_name("golden_partitioned.json")

#: name -> (strategy, max_partitions).
STRATEGIES = {
    "geometric": (SamplingStrategy(scheme="geometric"), 3000),
    "uniform": (SamplingStrategy(scheme="uniform", n_samples=8), 500),
    "random": (SamplingStrategy(scheme="random", n_samples=8, seed=3), 500),
    "exhaustive": (ExhaustiveStrategy(), 24),
    "analytical": (AnalyticalStrategy(), 3000),
}
#: id -> (batched, stride over the day's jobs).
PATHS = [pytest.param(True, 1, id="batched"), pytest.param(False, 3, id="scalar")]


def _digest(plan, cost: float) -> str:
    shape = tuple((op.op_type.value, op.partition_count) for op in plan.walk())
    return f"{hashlib.sha256(repr(shape).encode()).hexdigest()[:16]} {float.hex(cost)}"


def _jobs(bundle, stride: int) -> list[ReplanJob]:
    day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(day)
    return [
        ReplanJob(spec.job_id, spec.template.template_id, spec.day, instantiate(spec, catalog))
        for spec in bundle.generator.jobs_for_day(day)[::stride]
    ]


def _config(name: str) -> PlannerConfig:
    strategy, max_partitions = STRATEGIES[name]
    return PlannerConfig(partition_strategy=strategy, max_partitions=max_partitions)


def planner_digests(bundle, model, name: str, stride: int = 1, estimator=None) -> list[str]:
    planner = QueryPlanner(model, estimator or OperatorPathEstimator(), _config(name))
    assert planner._replay is None
    out = []
    for job in _jobs(bundle, stride):
        planner.jitter_salt = job.salt
        planned = planner.plan(job.logical)
        out.append(_digest(planned.plan, planned.estimated_cost))
    return out


def fleet_digests(bundle, model, name: str, stride: int = 1) -> list[str]:
    replanner = FleetReplanner(model, CardinalityEstimator(), _config(name))
    planned = replanner.replan_jobs(_jobs(bundle, stride))
    return [_digest(p.plan, p.estimated_cost) for p in planned]


def explored_digests(bundle, model, name: str, guard: bool, stride: int = 1) -> list[str]:
    strategy, max_partitions = STRATEGIES[name]
    out = []
    for job in list(bundle.test_log())[::stride]:
        estimator = CardinalityEstimator()
        rebuilt = optimize_partitions(
            bundle.runner.plans[job.job_id],
            model,
            estimator,
            strategy,
            max_partitions=max_partitions,
            guard=guard,
        )
        out.append(_digest(rebuilt, plan_cost(model, rebuilt, estimator)))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_strategy_and_job(tiny_bundle, golden):
    assert sorted(golden) == sorted(STRATEGIES)
    n_jobs = len(_jobs(tiny_bundle, 1))
    assert n_jobs == len(list(tiny_bundle.test_log())) > 30
    for rows in golden.values():
        assert sorted(rows) == ["explored_guard", "explored_noguard", "planned"]
        assert [len(digests) for digests in rows.values()] == [n_jobs] * 3


@pytest.mark.parametrize("batched,stride", PATHS)
@pytest.mark.parametrize("name", STRATEGIES)
def test_query_planner_reproduces_golden(
    tiny_bundle, tiny_predictor, golden, name, batched, stride
):
    model = CleoCostModel(tiny_predictor, batched=batched)
    got = planner_digests(tiny_bundle, model, name, stride)
    assert got == golden[name]["planned"][::stride]


@pytest.mark.parametrize("name", STRATEGIES)
def test_scalar_oracle_reproduces_golden(tiny_bundle, tiny_predictor, golden, name):
    model = CleoCostModel(tiny_predictor, batched=False)
    got = planner_digests(tiny_bundle, model, name, 3, CardinalityEstimator())
    assert got == golden[name]["planned"][::3]


@pytest.mark.parametrize("name", STRATEGIES)
def test_fleet_replanner_reproduces_golden(tiny_bundle, tiny_predictor, golden, name):
    got = fleet_digests(tiny_bundle, CleoCostModel(tiny_predictor), name)
    assert got == golden[name]["planned"]


@pytest.mark.parametrize("batched,stride", PATHS)
@pytest.mark.parametrize("guard", [True, False], ids=["guard", "noguard"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_optimize_partitions_reproduces_golden(
    tiny_bundle, tiny_predictor, golden, name, guard, batched, stride
):
    model = CleoCostModel(tiny_predictor, batched=batched)
    row = "explored_guard" if guard else "explored_noguard"
    got = explored_digests(tiny_bundle, model, name, guard, stride)
    assert got == golden[name][row][::stride]


if __name__ == "__main__":
    from repro.experiments.shared import get_bundle

    tiny = get_bundle("cluster1", scale="tiny", seed=0)
    reference = CleoCostModel(tiny.predictor())
    GOLDEN.write_text(
        json.dumps(
            {
                name: {
                    "planned": planner_digests(tiny, reference, name),
                    "explored_guard": explored_digests(tiny, reference, name, True),
                    "explored_noguard": explored_digests(tiny, reference, name, False),
                }
                for name in STRATEGIES
            },
            indent=0,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN} ({len(STRATEGIES)} strategies x 3 rows)")
