"""Differential property test: the two configurations of the search core.

``QueryPlanner`` (frozen ``PhysicalOp`` candidates, the estimator,
``operator_cost`` / ``price_operators``) and ``SkeletonPlanner`` (slotted
``RNode`` candidates, primed estimates, inlined / stats / packed pricing) run
one rule set (``repro.optimizer.search``); what they supply themselves — node
construction, estimates, costing — must be unobservable in the result.  For
generated logical plans (shared subexpressions, key-less aggregates and
multi-way unions included), salts and rule toggles, both return equal plan
fingerprints, bit-equal costs, equal ``candidates_considered`` and equal
model-lookup counts, and every plan is a tree.  ``QueryPlanner`` is handed
an :class:`~tests.optimizer.test_golden_rules.OperatorPathEstimator`: with a
stock pair its ``plan`` would run the replay itself.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.core.cost_model import CleoCostModel
from repro.core.predictor import CleoPredictor
from repro.cost.default_model import DefaultCostModel
from repro.cost.tuned_model import TunedCostModel
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.optimizer.skeleton import SkeletonPlanner
from repro.plan.logical import LogicalOp, LogicalOpType
from tests.optimizer.test_golden_rules import OperatorPathEstimator, digest
from tests.plan.test_subtree_summary import _CARDS, _TABLES

_COLUMNS = ("a", "b", "c")
_UNARY = (
    LogicalOpType.FILTER,
    LogicalOpType.PROJECT,
    LogicalOpType.PROCESS,
    LogicalOpType.AGGREGATE,
    LogicalOpType.SORT,
    LogicalOpType.TOP_K,
)


@st.composite
def logical_plans(draw, max_depth: int = 4) -> LogicalOp:
    """A random logical plan the planner accepts, rooted at an OUTPUT.

    The shape vocabulary of ``tests/plan/test_subtree_summary.physical_plans``
    (same cardinalities, same inputs, DAG sharing), on the logical side and
    with the payload the rules read: join / aggregate / sort keys, key-less
    aggregates, group counts, limits, selectivities, row widths.
    """
    built: list[LogicalOp] = []
    counter = iter(range(10_000))

    def node(op_type, children, inputs, **payload) -> LogicalOp:
        logical = LogicalOp(
            op_type=op_type,
            children=children,
            template_tag=f"g:{next(counter)}",
            true_card=draw(_CARDS),
            row_bytes=draw(st.sampled_from([8.0, 64.0, 300.0])),
            normalized_inputs=inputs,
            sel_true=draw(st.sampled_from([1.0, 0.5, 0.01, 3.0])),
            **payload,
        )
        built.append(logical)
        return logical

    def build(depth: int) -> LogicalOp:
        if built and draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(built))  # DAG: a shared subexpression
        kind = draw(
            st.sampled_from(
                ["leaf"] if depth >= max_depth else ["leaf", "unary", "join", "union"]
            )
        )
        if kind == "leaf":
            return node(LogicalOpType.GET, (), frozenset({draw(_TABLES)}))
        if kind == "unary":
            child = build(depth + 1)
            op_type = draw(st.sampled_from(_UNARY))
            payload = {}
            if op_type is LogicalOpType.AGGREGATE:
                payload["keys"] = tuple(
                    draw(st.lists(st.sampled_from(_COLUMNS), max_size=2, unique=True))
                )
                payload["group_count"] = draw(
                    st.sampled_from([None, 1.0, 40.0, 2.5e6])
                )
            elif op_type in (LogicalOpType.SORT, LogicalOpType.TOP_K):
                payload["keys"] = (draw(st.sampled_from(_COLUMNS)),)
                if op_type is LogicalOpType.TOP_K:
                    payload["limit"] = draw(st.sampled_from([None, 10]))
            return node(op_type, (child,), child.normalized_inputs, **payload)
        arity = 2 if kind == "join" else draw(st.integers(2, 4))
        children = tuple(build(depth + 1) for _ in range(arity))
        inputs = frozenset().union(*(c.normalized_inputs for c in children))
        if kind == "union":
            return node(LogicalOpType.UNION, children, inputs)
        keys = (draw(st.sampled_from(_COLUMNS)), draw(st.sampled_from(_COLUMNS)))
        return node(LogicalOpType.JOIN, children, inputs, keys=keys)

    top = build(0)
    return node(LogicalOpType.OUTPUT, (top,), top.normalized_inputs)


class _Learned:
    """The session's trained predictor, with a repr hypothesis can print."""

    def __init__(self, predictor) -> None:
        self.predictor = predictor

    def __repr__(self) -> str:
        return "<tiny predictor>"


@pytest.fixture(scope="module")
def learned(tiny_predictor) -> _Learned:
    return _Learned(tiny_predictor)


_CONFIGS = st.builds(
    PlannerConfig,
    enable_merge_join=st.booleans(),
    enable_stream_aggregate=st.booleans(),
    enable_local_aggregate=st.booleans(),
    enable_join_commute=st.booleans(),
    partition_jitter=st.sampled_from([0.0, 0.35]),
)
_SALTS = st.lists(st.text("abcxyz", max_size=4), min_size=2, max_size=2)


def _outcome(plan_one):
    """The digest of a planning call, or the typed failure both must share
    (e.g. a join whose inputs are pinned to different partition counts)."""
    try:
        planned = plan_one()
    except OptimizationError as error:
        return ("error", str(error))
    ids = [id(op) for op in planned.plan.walk()]
    assert len(ids) == len(set(ids)), "the returned plan shares a node"
    return digest(planned)


def _both(model_factory, logical, config, salts, lookups=lambda: 0):
    """Per salt, ``(QueryPlanner outcome, lookups, unread rows,
    SkeletonPlanner outcome, lookups, unread rows)``.  One planner of each
    kind serves every salt, so the second replay runs over the cached
    skeleton."""
    reference = QueryPlanner(model_factory(), OperatorPathEstimator(), config)
    replay = SkeletonPlanner(model_factory(), CardinalityEstimator(), config)
    rows = []
    for salt in salts:
        reference.jitter_salt = salt
        before, unread = lookups(), reference._rows_unread
        expected = _outcome(lambda: reference.plan(logical))
        middle, replay_unread = lookups(), replay._rows_unread
        got = _outcome(lambda salt=salt: replay.replan_job("t", 1, logical, salt))
        rows.append(
            (
                expected,
                middle - before,
                reference._rows_unread - unread,
                got,
                lookups() - middle,
                replay._rows_unread - replay_unread,
            )
        )
    return rows


@given(logical=logical_plans(), config=_CONFIGS, salts=_SALTS)
@settings(max_examples=150, deadline=None)
def test_heuristic_models_agree(logical, config, salts):
    for model in (DefaultCostModel, TunedCostModel):
        for expected, _, _, got, _, _ in _both(model, logical, config, salts):
            assert got == expected


@given(logical=logical_plans(max_depth=3), config=_CONFIGS, salts=_SALTS)
@settings(max_examples=60, deadline=None)
def test_learned_model_agrees_scalar_and_deferred(learned, logical, config, salts):
    predictor = learned.predictor
    rows = _both(
        lambda: CleoCostModel(predictor),
        logical,
        config,
        salts,
        lookups=lambda: predictor.lookup_count,
    )
    # The reference schedule is opaque to the replay: a stock pair plans it
    # on the PhysicalOp configuration, one operator_cost per candidate.
    scalar = QueryPlanner(
        CleoCostModel(predictor, batched=False), CardinalityEstimator(), config
    )
    assert scalar._replay is None
    for salt, (expected, expected_lookups, expected_unread, got, got_lookups, unread) in zip(
        salts, rows
    ):
        assert got == expected
        assert got_lookups == expected_lookups
        assert unread == expected_unread
        # Deferred costing replays scalar costing's arithmetic; its accounting
        # is scalar costing's minus the stragglers a finished search drops
        # unread (a search that fails leaves its unflushed ledger rows
        # unpriced, uncounted).
        scalar.jitter_salt = salt
        before = predictor.lookup_count
        outcome = _outcome(lambda: scalar.plan(logical))
        assert outcome == got
        assert scalar._rows_unread == 0
        unread_lookups = unread * CleoPredictor.LOOKUPS_PER_PREDICTION
        assert (
            got_lookups + unread_lookups == predictor.lookup_count - before
            or isinstance(outcome, tuple)
        )


@given(plans=st.lists(logical_plans(max_depth=3), min_size=2, max_size=5))
@settings(max_examples=25, deadline=None)
def test_fleet_waves_agree_with_solo_searches(learned, plans):
    """Several open searches priced together equal one search at a time."""
    config = PlannerConfig(partition_jitter=0.35)
    solo = QueryPlanner(CleoCostModel(learned.predictor), OperatorPathEstimator(), config)
    expected = []
    for i, logical in enumerate(plans):
        solo.jitter_salt = f"j{i}"
        expected.append(_outcome(lambda logical=logical: solo.plan(logical)))
    if any(isinstance(outcome, tuple) for outcome in expected):
        return  # a fleet call fails as a whole; the solo errors are pinned above
    fleet = FleetReplanner(
        CleoCostModel(learned.predictor), CardinalityEstimator(), config
    )
    jobs = [ReplanJob(f"j{i}", f"t{i}", 1, logical) for i, logical in enumerate(plans)]
    assert [digest(planned) for planned in fleet.replan_jobs(jobs)] == expected
