"""Plan walks are one explicit-stack post-order (``repro.plan.physical.post_order``).

``PhysicalOp.walk``, ``PhysicalOp.node_count`` and the skeleton replay's
plan walks all read :func:`post_order`.  Its order is pinned here to the
recursive definition — children left to right, then the node, a subtree
shared by several parents once per occurrence — on generated DAG-shaped
plans and on generated chains, and a chain far deeper than the recursion
limit still walks.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.physical import ExchangeMode, PhysicalOp, PhysOpType, post_order
from repro.plan.properties import Partitioning
from tests.plan.test_subtree_summary import physical_plans


def recursive_walk(node):
    """The definition: every child's walk, left to right, then the node."""
    for child in node.children:
        yield from recursive_walk(child)
    yield node


def _ids(nodes) -> list[int]:
    return [id(node) for node in nodes]


def _chain(kinds: list[str]) -> list[PhysicalOp]:
    """A unary chain over one leaf, bottom-up: its nodes in build order."""
    node = PhysicalOp(PhysOpType.EXTRACT, (), None, 4, Partitioning.any())
    nodes = [node]
    for kind in kinds:
        if kind == "exchange":
            node = PhysicalOp(
                PhysOpType.EXCHANGE, (node,), None, 4, Partitioning.any(),
                exchange_mode=ExchangeMode.HASH,
            )  # fmt: skip
        else:
            node = PhysicalOp(PhysOpType.FILTER, (node,), None, 4, Partitioning.any())
        nodes.append(node)
    return nodes


class TestPostOrder:
    @settings(max_examples=80, deadline=None)
    @given(physical_plans())
    def test_generated_dag_plans_match_the_recursive_definition(self, plan):
        expected = list(recursive_walk(plan))
        assert _ids(post_order(plan)) == _ids(expected)
        assert _ids(plan.walk()) == _ids(expected)
        assert plan.node_count == len(expected)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(["filter", "exchange"]), min_size=1, max_size=400))
    def test_generated_chains_match_the_recursive_definition(self, kinds):
        nodes = _chain(kinds)
        root = nodes[-1]
        assert _ids(root.walk()) == _ids(recursive_walk(root)) == _ids(nodes)

    def test_shared_subtree_yields_once_per_occurrence(self, physical_simple_plan):
        shared = physical_simple_plan.children[0]
        union = PhysicalOp(
            PhysOpType.UNION_ALL, (shared, physical_simple_plan, shared), None,
            shared.partition_count, Partitioning.random(),
        )  # fmt: skip
        expected = [
            *recursive_walk(shared),
            *recursive_walk(physical_simple_plan),
            *recursive_walk(shared),
            union,
        ]
        assert _ids(union.walk()) == _ids(expected)
        assert union.node_count == len(expected) == 3 * shared.node_count + 2

    def test_chain_deeper_than_the_recursion_limit(self):
        nodes = _chain(["filter"] * (2 * sys.getrecursionlimit()))
        assert _ids(nodes[-1].walk()) == _ids(nodes)
        assert nodes[-1].node_count == len(nodes)
