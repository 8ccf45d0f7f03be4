"""Shared fixtures for the test suite.

The expensive fixtures (workload bundle, trained predictor) are session
scoped and deliberately tiny; tests that need statistical signal assert
*shape* invariants (orderings, monotonicity, coverage bands) rather than
absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.data.catalog import Catalog
from repro.data.schema import Column, DataType, TableDef
from repro.data.statistics import ColumnStats, TableStats
from repro.execution.hardware import ClusterSpec
from repro.plan.builder import PlanBuilder


def pytest_report_header(config) -> str:
    """Names the numpy a run used: the golden tree digests and the binner's
    quantile parity are bit-level claims about its arithmetic."""
    return f"numpy: {np.__version__}"


def make_test_catalog() -> Catalog:
    """A small two-table catalog used across plan/optimizer tests."""
    catalog = Catalog(name="test")
    events = TableDef(
        "events_2024_01_01",
        (
            Column("user_id", DataType.BIGINT),
            Column("ts", DataType.DATE),
            Column("value", DataType.FLOAT),
        ),
    )
    users = TableDef(
        "users_2024_01_01",
        (
            Column("user_id", DataType.BIGINT),
            Column("country", DataType.STRING),
        ),
    )
    catalog.add_table(
        events,
        TableStats(
            row_count=10_000_000,
            avg_row_bytes=64.0,
            columns={"user_id": ColumnStats(distinct_count=100_000)},
            partition_count=8,
        ),
    )
    catalog.add_table(
        users,
        TableStats(
            row_count=100_000,
            avg_row_bytes=48.0,
            columns={"user_id": ColumnStats(distinct_count=100_000)},
            partition_count=2,
        ),
    )
    return catalog


@pytest.fixture()
def catalog() -> Catalog:
    return make_test_catalog()


@pytest.fixture()
def builder(catalog: Catalog) -> PlanBuilder:
    return PlanBuilder(catalog)


@pytest.fixture()
def simple_plan(builder: PlanBuilder):
    """scan -> filter -> aggregate -> output."""
    scanned = builder.scan("events_2024_01_01")
    filtered = builder.filter(scanned, "value", 0.1, tag="t:f")
    aggregated = builder.aggregate(filtered, keys=("user_id",), group_count=50_000, tag="t:agg")
    return builder.output(aggregated, name="report")


@pytest.fixture()
def join_plan(builder: PlanBuilder):
    """Two-table join with filters and aggregation."""
    events = builder.filter(builder.scan("events_2024_01_01"), "ts", 0.2, tag="t:fe")
    users = builder.filter(builder.scan("users_2024_01_01"), "country", 0.5, tag="t:fu")
    joined = builder.join(events, users, keys=("user_id", "user_id"), fanout=0.2, tag="t:j")
    aggregated = builder.aggregate(joined, keys=("country",), group_count=25, tag="t:agg")
    return builder.output(builder.sort(aggregated, keys=("country",), tag="t:s"), name="out")


@pytest.fixture()
def estimator() -> CardinalityEstimator:
    return CardinalityEstimator()


@pytest.fixture()
def cluster() -> ClusterSpec:
    return ClusterSpec(name="testcluster", noise_sigma=0.0, outlier_probability=0.0)


@pytest.fixture()
def planner(estimator):
    from repro.cost.default_model import DefaultCostModel
    from repro.optimizer.planner import PlannerConfig, QueryPlanner

    return QueryPlanner(DefaultCostModel(), estimator, PlannerConfig())


@pytest.fixture()
def physical_join_plan(planner, join_plan):
    return planner.plan(join_plan).plan


@pytest.fixture()
def physical_simple_plan(planner, simple_plan):
    return planner.plan(simple_plan).plan


# --------------------------------------------------------------------- #
# Session-scoped trained bundle (expensive; built once)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def tiny_bundle():
    """A tiny cluster-1 workload bundle with plans kept."""
    from repro.experiments.shared import get_bundle

    return get_bundle("cluster1", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_predictor(tiny_bundle):
    return tiny_bundle.predictor()
