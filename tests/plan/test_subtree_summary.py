"""Subtree summaries against a walk-based oracle (repro.plan.summary).

Every plan node carries one lazily computed, P-independent summary of the
subtree it roots, built from its children's summaries.  The oracle below is
the code the summary replaced — the ``PhysicalOp.base_card`` / ``depth`` /
``logical_op_count`` / ``normalized_inputs`` and ``strict_signature`` /
``approx_signature`` bodies, verbatim, each re-walking the subtree — and the
summary must agree with it bit for bit on generated plans: enforcer chains,
multi-way unions, multi-child enforcers and DAG-shaped inputs included.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardinality.estimator import CardinalityEstimator, EstimatorConfig
from repro.cardinality.perfect import PerfectCardinalityEstimator
from repro.common.hashing import combine_hashes, combine_hashes_unordered, stable_hash
from repro.core.cost_model import CleoCostModel
from repro.cost.default_model import DefaultCostModel
from repro.features.extract import feature_input_for
from repro.optimizer.partition import SamplingStrategy, optimize_partitions
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.skeleton import SkeletonPlanner, materialize
from repro.plan.logical import LogicalOp, LogicalOpType
from repro.plan.physical import ExchangeMode, PhysicalOp, PhysOpType, post_order
from repro.plan.properties import Partitioning
from repro.plan.signatures import (
    SignatureBundle,
    _approx_hash,
    _own_hash,
    input_signature_for,
    logical_frequencies,
    operator_signature_for,
    signed,
    strict_signature,
)
from repro.plan.summary import summarize
from repro.workload.templates import instantiate

# --------------------------------------------------------------------- #
# The walk-based oracle (the replaced bodies, verbatim)
# --------------------------------------------------------------------- #


def oracle_base_card(op: PhysicalOp) -> float:
    return float(sum(leaf.true_card for leaf in op.walk() if not leaf.children))


def oracle_depth(op: PhysicalOp) -> int:
    if not op.children:
        return 1
    return 1 + max(oracle_depth(child) for child in op.children)


def oracle_logical_op_count(op: PhysicalOp) -> int:
    return sum(1 for node in op.walk() if node.logical is not None)


def oracle_normalized_inputs(op: PhysicalOp) -> frozenset[str]:
    if op.logical is not None:
        return op.logical.normalized_inputs
    result: set[str] = set()
    for child in op.children:
        result |= oracle_normalized_inputs(child)
    return frozenset(result)


def oracle_strict_signature(op: PhysicalOp) -> int:
    child_sigs = [oracle_strict_signature(child) for child in op.children]
    own = _own_hash(op.op_type.value, op.template_tag)
    return combine_hashes(child_sigs + [own])


def oracle_freq_below(op: PhysicalOp) -> dict[str, int]:
    freq: dict[str, int] = {}
    for node in op.walk():
        if node is op:
            continue
        if node.logical is not None:
            key = node.logical.op_type.value
            freq[key] = freq.get(key, 0) + 1
    return freq


def oracle_freq_hash(freq: dict[str, int]) -> int:
    return combine_hashes_unordered(
        stable_hash("freq", name, count) for name, count in freq.items()
    )


def oracle_approx_signature(op: PhysicalOp) -> int:
    freq_hash = oracle_freq_hash(oracle_freq_below(op))
    return _approx_hash(
        op.op_type.value, freq_hash, frozenset(oracle_normalized_inputs(op))
    )


def oracle_bundle(op: PhysicalOp) -> SignatureBundle:
    inputs = frozenset(oracle_normalized_inputs(op))
    return SignatureBundle(
        strict=oracle_strict_signature(op),
        approx=oracle_approx_signature(op),
        input=input_signature_for(op.op_type.value, inputs),
        operator=operator_signature_for(op.op_type.value),
    )


def assert_matches_oracle(op: PhysicalOp) -> None:
    """Every summary field, every property over it, and the bundle."""
    summary = op.summary
    leaves = tuple(leaf.true_card for leaf in op.walk() if not leaf.children)
    assert summary.leaf_cards == leaves
    base = oracle_base_card(op)
    assert summary.base_card == base and type(summary.base_card) is float
    assert op.base_card == base
    assert summary.inputs == op.normalized_inputs == oracle_normalized_inputs(op)
    assert summary.n_logical == oracle_logical_op_count(op)
    assert summary.depth == op.depth == oracle_depth(op)
    bundle = oracle_bundle(op)
    assert SignatureBundle.of(op) == bundle
    assert strict_signature(op) == bundle.strict
    own = [op.logical.op_type.value] if op.logical is not None else []
    expected = oracle_freq_below(op)
    for name in own:
        expected[name] = expected.get(name, 0) + 1
    assert logical_frequencies(signed(op).freq_incl) == expected


# --------------------------------------------------------------------- #
# Generated physical plans
# --------------------------------------------------------------------- #

_ANY = Partitioning.any()
#: Awkward magnitudes on purpose: summing the children's ``base_card``s
#: instead of left-folding the leaves would re-associate these floats.
_CARDS = st.one_of(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, 1.0, 3.0]),
)
_TABLES = st.sampled_from(["events_#", "users_#", "clicks_#", "orders_#"])
_UNARY = [
    (LogicalOpType.FILTER, PhysOpType.FILTER),
    (LogicalOpType.PROJECT, PhysOpType.COMPUTE),
    (LogicalOpType.AGGREGATE, PhysOpType.HASH_AGGREGATE),
    (LogicalOpType.SORT, PhysOpType.SORT),
]


def _logical(op_type, children, tag, card, inputs) -> LogicalOp:
    return LogicalOp(
        op_type=op_type,
        children=children,
        template_tag=tag,
        true_card=card,
        row_bytes=8.0,
        normalized_inputs=inputs,
    )


def _physical(op_type, children, logical, **extra) -> PhysicalOp:
    return PhysicalOp(
        op_type=op_type,
        children=children,
        logical=logical,
        partition_count=4,
        partitioning=_ANY,
        **extra,
    )


@st.composite
def physical_plans(draw, max_depth: int = 5) -> PhysicalOp:
    """A random physical plan, built bottom-up next to its logical plan.

    Shapes the planner never emits are included on purpose — multi-child
    enforcers, a subtree shared by several parents — because the summary is
    defined on any :class:`PhysicalOp` graph, not only on planner output.
    """
    built: list[tuple[PhysicalOp, LogicalOp]] = []
    counter = iter(range(10_000))

    def build(depth: int) -> tuple[PhysicalOp, LogicalOp]:
        if built and draw(st.integers(0, 5)) == 0:
            return draw(st.sampled_from(built))  # DAG: share a built subtree
        kind = draw(
            st.sampled_from(
                ["leaf"]
                if depth >= max_depth
                else ["leaf", "unary", "enforcers", "join", "union", "gather"]
            )
        )
        tag = f"g:{next(counter)}"
        if kind == "leaf":
            logical = _logical(
                LogicalOpType.GET, (), tag, draw(_CARDS), frozenset({draw(_TABLES)})
            )
            node = _physical(PhysOpType.EXTRACT, (), logical)
        elif kind == "unary":
            child, below = build(depth + 1)
            logical_type, physical_type = draw(st.sampled_from(_UNARY))
            logical = _logical(
                logical_type, (below,), tag, draw(_CARDS), below.normalized_inputs
            )
            node = _physical(physical_type, (child,), logical)
        elif kind == "enforcers":
            node, logical = build(depth + 1)
            for _ in range(draw(st.integers(1, 3))):  # an enforcer chain
                if draw(st.booleans()):
                    node = _physical(
                        PhysOpType.EXCHANGE, (node,), None, exchange_mode=ExchangeMode.HASH
                    )
                else:
                    node = _physical(PhysOpType.SORT, (node,), None, sort_keys=("k",))
        elif kind == "gather":
            # An enforcer over several children: unions their inputs.
            parts = [build(depth + 1) for _ in range(draw(st.integers(2, 3)))]
            node = _physical(
                PhysOpType.EXCHANGE,
                tuple(part for part, _ in parts),
                None,
                exchange_mode=ExchangeMode.GATHER,
            )
            logical = parts[0][1]
        else:
            arity = 2 if kind == "join" else draw(st.integers(2, 4))
            parts = [build(depth + 1) for _ in range(arity)]
            inputs = frozenset().union(*(below.normalized_inputs for _, below in parts))
            logical = _logical(
                LogicalOpType.JOIN if kind == "join" else LogicalOpType.UNION,
                tuple(below for _, below in parts),
                tag,
                draw(_CARDS),
                inputs,
            )
            node = _physical(
                PhysOpType.HASH_JOIN if kind == "join" else PhysOpType.UNION_ALL,
                tuple(part for part, _ in parts),
                logical,
            )
        built.append((node, logical))
        return node, logical

    return build(0)[0]


class TestAgainstWalkOracle:
    @given(plan=physical_plans())
    @settings(max_examples=120, deadline=None)
    def test_every_node_matches_the_oracle(self, plan):
        for op in plan.walk():
            assert_matches_oracle(op)
            assert SignatureBundle.of(op) == oracle_bundle(op)

    @given(plan=physical_plans(), count=st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_with_partition_count_copy_matches(self, plan, count):
        """The summary never looks at a partition count."""
        for op in plan.walk():
            copy = op.with_partition_count(count)
            assert_matches_oracle(copy)
            assert SignatureBundle.of(copy) == SignatureBundle.of(op)

    @given(plan=physical_plans())
    @settings(max_examples=60, deadline=None)
    def test_cache_slot_is_not_part_of_the_value(self, plan):
        fresh = replace(plan)  # same fields, nothing computed yet
        assert fresh._summary is None
        plan.summary  # noqa: B018 - fill the cache on one side only
        signed(plan)
        CardinalityEstimator().estimate(plan)
        assert plan._summary is not None and plan._estimate is not None
        assert plan == fresh and hash(plan) == hash(fresh)
        assert repr(plan) == repr(fresh) and "_summary" not in repr(plan)
        assert "_estimate" not in repr(plan)
        assert replace(plan, partition_count=9)._summary is None
        assert replace(plan, partition_count=9)._estimate is None
        with pytest.raises(TypeError):
            PhysicalOp(**{**_fields(plan), "_summary": plan.summary})
        with pytest.raises(TypeError):
            PhysicalOp(**{**_fields(plan), "_estimate": plan._estimate})
        for subject in (plan, fresh):
            clone = pickle.loads(pickle.dumps(subject))
            assert clone == plan and hash(clone) == hash(plan)
            assert_matches_oracle(clone)


#: Estimators that must be able to share one plan's nodes.
_ESTIMATORS = (
    CardinalityEstimator,
    lambda: CardinalityEstimator(EstimatorConfig(seed_salt="other")),
    lambda: CardinalityEstimator(EstimatorConfig(sigma_scale=0.5)),
    PerfectCardinalityEstimator,
)


def oracle_estimate(estimator: CardinalityEstimator, op: PhysicalOp) -> float:
    """The estimate recursion with no cache at all: re-walks the subtree."""
    if isinstance(estimator, PerfectCardinalityEstimator):
        return op.true_card
    children = [oracle_estimate(estimator, child) for child in op.children]
    if op.logical is None:
        return children[0]
    return estimator.estimate_logical(op.logical, children)


class TestEstimatesOnTheNode:
    @given(plan=physical_plans(max_depth=4))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_equals_alone_equals_fresh(self, plan):
        """Estimates are cached on the node under the estimator's own tag:
        several estimators reading one (DAG-shaped) plan operator by operator
        each answer what a fresh instance computes from scratch."""
        live = [make() for make in _ESTIMATORS]
        ops = list(plan.walk())
        interleaved = [[est.estimate(op) for est in live] for op in ops]
        inputs = [[est.estimate_input(op) for est in live] for op in ops]
        for column, make in enumerate(_ESTIMATORS):
            alone, fresh = make(), make()
            assert [alone.estimate(op) for op in ops] == [row[column] for row in interleaved]
            assert [alone.estimate_input(op) for op in ops] == [row[column] for row in inputs]
            assert [oracle_estimate(fresh, op) for op in ops] == [
                row[column] for row in interleaved
            ]


def _fields(op: PhysicalOp) -> dict:
    return {
        "op_type": op.op_type,
        "children": op.children,
        "logical": op.logical,
        "partition_count": op.partition_count,
        "partitioning": op.partitioning,
    }


# --------------------------------------------------------------------- #
# Planner output: rebuilt copies, RNode trees, the walk-count guard
# --------------------------------------------------------------------- #


def _jobs(bundle, limit=None):
    day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(day)
    return [
        (spec, instantiate(spec, catalog))
        for spec in bundle.generator.jobs_for_day(day)[:limit]
    ]


class TestPlannerOutput:
    def test_planned_and_partition_rebuilt_plans_match(self, tiny_bundle):
        planner = QueryPlanner(DefaultCostModel(), CardinalityEstimator())
        for spec, logical in _jobs(tiny_bundle, limit=12):
            planner.jitter_salt = spec.job_id
            plan = planner.plan(logical).plan
            rebuilt = optimize_partitions(
                plan,
                DefaultCostModel(),
                CardinalityEstimator(),
                SamplingStrategy(scheme="geometric"),
                max_partitions=500,
                guard=False,
            )
            assert any(
                a.partition_count != b.partition_count
                for a, b in zip(plan.walk(), rebuilt.walk())
            )
            for before, after in zip(plan.walk(), rebuilt.walk()):
                assert_matches_oracle(before)
                assert_matches_oracle(after)
                assert SignatureBundle.of(after) == SignatureBundle.of(before)

    def test_rnode_tree_equals_materialized_plan(self, tiny_bundle, tiny_predictor):
        """One routine, two node types: the replay's ``RNode``s carry exactly
        what the materialized ``PhysicalOp``s compute for themselves."""
        estimator = CardinalityEstimator()
        planner = SkeletonPlanner(CleoCostModel(tiny_predictor), estimator)
        for spec, logical in _jobs(tiny_bundle):
            win = planner.plan_job(
                spec.template.template_id, spec.day, logical, spec.job_id
            )
            plan = materialize(win)
            pairs = list(zip(post_order(win), plan.walk(), strict=True))
            for node, op in pairs:
                ours, theirs = signed(node), signed(op)
                for name in type(ours).__slots__:
                    assert getattr(ours, name) == getattr(theirs, name), name
                assert_matches_oracle(op)
                # The summary is all the replay adds to featurize a node.
                assert summarize(node).base_card == feature_input_for(
                    op, estimator
                ).base_card

    def test_plan_enters_walk_linearly(self, tiny_bundle, tiny_predictor, monkeypatch):
        """One resource-aware ``plan()`` visits O(plan size) nodes through
        ``PhysicalOp.walk``: the stage sweep no longer re-walks every
        operator's subtree per candidate (that was ~22 000 node visits a job,
        O(candidates x size^2))."""
        frames = 0
        walk = PhysicalOp.walk

        def counting_walk(self):
            nonlocal frames
            nodes = list(walk(self))
            frames += len(nodes)
            return iter(nodes)

        planner = QueryPlanner(
            CleoCostModel(tiny_predictor),
            CardinalityEstimator(),
            PlannerConfig(partition_strategy=SamplingStrategy("geometric")),
        )
        monkeypatch.setattr(PhysicalOp, "walk", counting_walk)
        for spec, logical in _jobs(tiny_bundle):
            planner.jitter_salt = spec.job_id
            frames = 0
            planned = planner.plan(logical)
            budget = frames
            frames = 0
            size = sum(1 for _ in planned.plan.walk())
            assert size == frames  # the monkeypatch counts every node a walk visits
            # plan_cost walks the final plan once; nothing else may walk.
            assert budget <= 2 * size, (spec.job_id, budget, size)


# --------------------------------------------------------------------- #
# Winners keep their summaries: materialize carries, never recomputes
# --------------------------------------------------------------------- #


def _fresh(op: PhysicalOp) -> PhysicalOp:
    """The same tree rebuilt from its fields alone: nothing computed yet."""
    return PhysicalOp(
        op.op_type,
        tuple(_fresh(child) for child in op.children),
        op.logical,
        op.partition_count,
        op.partitioning,
        op.sorting,
        op.exchange_mode,
        op.sort_keys,
    )


def assert_carried(plan: PhysicalOp, estimator: CardinalityEstimator | None) -> None:
    """Every operator of a materialized ``plan`` holds the summary (bundle
    included) it was handed, equal field by field to what a fresh copy of
    the tree computes for itself; with ``estimator``, its carried estimate
    too."""
    fresh_estimator = type(estimator)() if estimator is not None else None
    fresh_plan = _fresh(plan)
    for op, fresh in zip(plan.walk(), fresh_plan.walk(), strict=True):
        carried = op._summary
        assert carried is not None and carried.bundle is not None
        expected = signed(fresh)
        for name in type(carried).__slots__:
            assert getattr(carried, name) == getattr(expected, name), name
        assert type(carried.base_card) is float
        assert_matches_oracle(op)
        if estimator is not None:
            tag, value = op._estimate
            assert tag is estimator._tag
            assert value == oracle_estimate(fresh_estimator, fresh)
            assert value == fresh_estimator.estimate(fresh)


def _search_win(planner, template_id: str, logical: LogicalOp, salt: str):
    """The winning search node of one job, before anything materializes it."""
    (job,) = planner._search([(template_id, 1, logical, salt)])
    return job.win


def _tpch_jobs():
    from repro.data.tpch import tpch_catalog
    from repro.workload.tpch_queries import TpchQuerySet

    queries = TpchQuerySet(tpch_catalog(1000.0), seed=0)
    return [(f"q{query.query_id}", query.plan) for query in queries.all_queries(run=0)]


class TestWinnersKeepTheirSummaries:
    @given(plan=physical_plans())
    @settings(max_examples=80, deadline=None)
    def test_materialized_dag_carries_summary_and_estimate(self, plan):
        """A ``PhysicalOp`` winner — DAG-shaped, shared subtrees included —
        hands every copy its summary and its estimate."""
        estimator = CardinalityEstimator()
        for op in plan.walk():
            signed(op)
            estimator.estimate(op)
        tree = materialize(plan)
        assert sum(1 for _ in tree.walk()) == sum(1 for _ in plan.walk())
        assert_carried(tree, estimator)

    @pytest.mark.parametrize("planner_type", [QueryPlanner, SkeletonPlanner])
    def test_planner_winners_carry_exact_summaries(
        self, tiny_bundle, tiny_predictor, planner_type
    ):
        """Both planners' winners under a learned model, TPC-H Q1-Q22 (Q17's
        shared lineitem branch included) and the tiny workload's jobs: the
        materialized plan's summaries — and, for ``QueryPlanner``'s
        ``PhysicalOp`` winners, its estimates — are the recomputation's.
        The replay's deferred search drops its stragglers unpriced, so those
        nodes carry no signature tier yet; it is computed on demand, from
        the carried summary."""
        estimator = CardinalityEstimator()
        planner = planner_type(CleoCostModel(tiny_predictor), estimator)
        jobs = _tpch_jobs() + [
            (spec.template.template_id, logical) for spec, logical in _jobs(tiny_bundle, 12)
        ]
        untiered = 0
        for template_id, logical in jobs:
            plan = materialize(_search_win(planner, template_id, logical, template_id))
            untiered += sum(op._summary.bundle is None for op in plan.walk())
            for op in plan.walk():
                assert signed(op) is op._summary  # a straggler's tier, on demand
            assert_carried(plan, estimator if planner_type is QueryPlanner else None)
        # Only the deferred replay leaves stragglers unpriced.
        assert (untiered > 0) == (planner_type is SkeletonPlanner)

    def test_heuristic_replay_winners_carry_nothing(self, tiny_bundle):
        """Heuristic backends give ``RNode``s no summary; their plans compute
        their own on first read."""
        planner = SkeletonPlanner(DefaultCostModel(), CardinalityEstimator())
        for spec, logical in _jobs(tiny_bundle, 4):
            plan = materialize(
                _search_win(planner, spec.template.template_id, logical, spec.job_id)
            )
            assert all(op._summary is None for op in plan.walk())
            for op in plan.walk():
                assert_matches_oracle(op)
