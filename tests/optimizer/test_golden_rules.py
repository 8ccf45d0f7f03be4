"""The Cascades rule set, pinned as per-job digests (``golden_rules.json``).

Recorded on the commit *before* the two searches were merged into
``repro.optimizer.search``: for TPC-H Q1-Q22 x 2 parameter runs and the
``tiny`` seed-0 workload's day-1 jobs, under every heuristic configuration
the rules branch on, one digest per job — the plan fingerprint (operator
type, partition count, partitioning, sorting, exchange mode, recursively),
``float.hex`` of the estimated cost, and ``candidates_considered``.  Both
configurations of the search core must reproduce them: the ``PhysicalOp``
configuration on every row (``QueryPlanner`` handed an
:class:`OperatorPathEstimator`, since a stock pair runs the replay), and
``SkeletonPlanner`` on every row it ``supports_replay``.  (The file holds
``QueryPlanner``'s digests.  At that commit the skeleton reproduced all
of them but TPC-H Q17's candidate counts — it gave the query's shared
subexpression two memo entries; it now reads the reference's.)

Regenerate with ``PYTHONPATH=src python -m tests.optimizer.test_golden_rules``
— only when a rule change is intended.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.cardinality.perfect import PerfectCardinalityEstimator
from repro.cost.default_model import DefaultCostModel
from repro.cost.tuned_model import TunedCostModel
from repro.data.tpch import tpch_catalog
from repro.experiments.shared import workload_config
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.skeleton import SkeletonPlanner, supports_replay
from repro.workload.generator import WorkloadGenerator
from repro.workload.templates import instantiate
from repro.workload.tpch_queries import TpchQuerySet

GOLDEN = Path(__file__).with_name("golden_rules.json")


class OperatorPathEstimator(CardinalityEstimator):
    """The stock estimator under a type ``supports_replay`` rejects: a
    ``QueryPlanner`` given it runs the ``PhysicalOp`` configuration, the
    independent reference every replay parity test compares against."""


def operator_path(estimator: CardinalityEstimator) -> CardinalityEstimator:
    """``estimator``, moved onto the ``PhysicalOp`` configuration if stock."""
    if type(estimator) is CardinalityEstimator:
        return OperatorPathEstimator(estimator.config)
    return estimator


class OpaqueModel:
    """A duck-typed cost model: ``operator_cost`` and nothing else."""

    def operator_cost(self, op, estimator, partition_override=None):
        partitions = partition_override or op.partition_count
        rows = estimator.estimate_input(op) + 0.5 * estimator.estimate(op)
        return rows * op.row_bytes / partitions * 1e-9 + 0.02 * partitions + 1e-3 * (
            len(op.op_type.value) + len(op.children)
        )


_BASE = PlannerConfig()
#: name -> (cost model, estimator, config).
ROWS = {
    "default": (DefaultCostModel, CardinalityEstimator, _BASE),
    "default_jitter": (
        DefaultCostModel,
        CardinalityEstimator,
        replace(_BASE, partition_jitter=0.35),
    ),
    "tuned": (TunedCostModel, CardinalityEstimator, _BASE),
    "no_merge_join": (
        DefaultCostModel,
        CardinalityEstimator,
        replace(_BASE, enable_merge_join=False),
    ),
    "no_stream_aggregate": (
        DefaultCostModel,
        CardinalityEstimator,
        replace(_BASE, enable_stream_aggregate=False),
    ),
    "no_local_aggregate": (
        DefaultCostModel,
        CardinalityEstimator,
        replace(_BASE, enable_local_aggregate=False),
    ),
    "no_join_commute": (
        DefaultCostModel,
        CardinalityEstimator,
        replace(_BASE, enable_join_commute=False),
    ),
    "perfect_cardinality": (DefaultCostModel, PerfectCardinalityEstimator, _BASE),
    "opaque": (OpaqueModel, CardinalityEstimator, replace(_BASE, partition_jitter=0.35)),
}


def golden_jobs() -> list[tuple[str, str, int, object, str]]:
    """``(key, template_id, day, logical, salt)`` of every pinned job."""
    jobs = []
    queries = TpchQuerySet(tpch_catalog(1000.0), seed=0)
    for run in (0, 1):
        for query in queries.all_queries(run=run):
            name = f"q{query.query_id}"
            jobs.append(
                (f"tpch/{name}/r{run}", name, 1, query.plan, f"tpch_r{run}_{name}")
            )
    generator = WorkloadGenerator(workload_config("cluster1", "tiny", 0))
    catalog = generator.catalog_for_day(1)
    for spec in generator.jobs_for_day(1):
        jobs.append(
            (
                f"tiny/{spec.job_id}",
                spec.template.template_id,
                spec.day,
                instantiate(spec, catalog),
                spec.job_id,
            )
        )
    return jobs


def fingerprint(op) -> tuple:
    return (
        op.op_type.value,
        op.partition_count,
        op.partitioning.describe(),
        op.sorting.describe(),
        op.exchange_mode.value if op.exchange_mode is not None else None,
        tuple(fingerprint(child) for child in op.children),
    )


def digest(planned) -> str:
    shape = hashlib.sha256(repr(fingerprint(planned.plan)).encode()).hexdigest()[:16]
    return f"{shape} {float.hex(planned.estimated_cost)} {planned.candidates_considered}"


def reference_digests(row: str, jobs) -> dict[str, str]:
    model, estimator, config = ROWS[row]
    planner = QueryPlanner(model(), operator_path(estimator()), config)
    assert planner._replay is None
    out = {}
    for key, _template_id, _day, logical, salt in jobs:
        planner.jitter_salt = salt
        out[key] = digest(planner.plan(logical))
    return out


def skeleton_digests(row: str, jobs) -> dict[str, str] | None:
    model, estimator, config = ROWS[row]
    model, estimator = model(), estimator()
    if not supports_replay(model, estimator):
        return None
    planner = SkeletonPlanner(model, estimator, config)
    return {
        key: digest(planner.replan_job(template_id, day, logical, salt))
        for key, template_id, day, logical, salt in jobs
    }


@pytest.fixture(scope="module")
def jobs():
    return golden_jobs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_row_and_job(golden, jobs):
    assert sorted(golden) == sorted(ROWS)
    keys = [key for key, *_ in jobs]
    assert len(keys) == len(set(keys)) and len(keys) > 44
    for row in ROWS:
        assert list(golden[row]) == keys


@pytest.mark.parametrize("row", ROWS)
def test_physical_op_configuration_reproduces_golden(row, golden, jobs):
    assert reference_digests(row, jobs) == golden[row]


#: Rows only ``QueryPlanner`` can serve: an estimator subclass, an opaque model.
REFERENCE_ONLY = ("perfect_cardinality", "opaque")


@pytest.mark.parametrize("row", [row for row in ROWS if row not in REFERENCE_ONLY])
def test_rnode_configuration_reproduces_golden(row, golden, jobs):
    assert skeleton_digests(row, jobs) == golden[row]


def test_replay_declines_the_reference_only_rows():
    for row in REFERENCE_ONLY:
        assert skeleton_digests(row, []) is None


if __name__ == "__main__":
    pinned = golden_jobs()
    GOLDEN.write_text(
        json.dumps({row: reference_digests(row, pinned) for row in ROWS}, indent=0)
        + "\n"
    )
    print(f"wrote {GOLDEN} ({len(ROWS)} rows x {len(pinned)} jobs)")
