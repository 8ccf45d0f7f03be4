"""Table-driven structural expectations for all 22 TPC-H queries.

Each query's logical plan must contain the operator mix its SQL dictates
(number of joins, aggregates, sorts/top-k) and produce a plausible output
cardinality; these pin the query builders against accidental rewrites.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.data.tpch import tpch_catalog
from repro.workload.tpch_queries import TpchQuerySet

#: query -> (min joins, min aggregates, has sort-or-topk, max output rows)
EXPECTED = {
    1: (0, 1, True, 10),
    2: (4, 1, True, 100),
    3: (2, 1, True, 10),
    4: (1, 1, True, 5),
    5: (5, 1, True, 25),
    6: (0, 1, False, 1),
    7: (3, 1, True, 200),
    8: (5, 1, True, 10),
    9: (5, 1, True, 200),
    10: (3, 1, True, 20),
    11: (2, 1, True, 1e7),
    12: (1, 1, True, 7),
    13: (1, 2, True, 100),
    14: (1, 1, False, 1),
    15: (1, 1, True, 1),
    16: (1, 1, True, 1e6),
    17: (2, 2, False, 1),
    18: (3, 2, True, 100),
    19: (1, 1, False, 1),
    20: (3, 1, True, 1e7),
    21: (3, 1, True, 100),
    22: (0, 1, True, 7),
}


@pytest.fixture(scope="module")
def query_set():
    return TpchQuerySet(tpch_catalog(100.0), seed=4)


@pytest.mark.parametrize("number", sorted(EXPECTED))
def test_query_structure(query_set, number):
    min_joins, min_aggs, has_order, max_output = EXPECTED[number]
    query = query_set.query(number, run=0)
    freq = Counter(node.op_type.value for node in query.plan.walk())
    assert freq.get("Join", 0) >= min_joins, f"Q{number} joins"
    assert freq.get("Aggregate", 0) >= min_aggs, f"Q{number} aggregates"
    if has_order:
        assert freq.get("Sort", 0) + freq.get("TopK", 0) >= 1, f"Q{number} ordering"
    assert query.plan.true_card <= max_output, f"Q{number} output size"


@pytest.mark.parametrize("number", sorted(EXPECTED))
def test_query_cardinalities_positive_and_bounded(query_set, number):
    query = query_set.query(number, run=1)
    base = query.plan.base_card
    for node in query.plan.walk():
        assert node.true_card >= 0
        # No intermediate result should exceed a plausible blow-up of the
        # base input (guards against mis-specified join fan-outs).
        assert node.true_card <= 50 * base


def test_all_queries_have_distinct_tags(query_set):
    """Template tags must never collide across different queries."""
    seen: dict[str, int] = {}
    for query in query_set.all_queries(run=0):
        for node in query.plan.walk():
            if node.template_tag.startswith("tpch:get:"):
                continue  # scans are intentionally shared
            previous = seen.setdefault(node.template_tag, query.query_id)
            assert previous == query.query_id, node.template_tag
