"""What-if analysis for physical design, priced by learned cost models.

Section 6.7 cites "running what-if analysis for physical design selection
[12]" as a cost-model use case; reference [23] of the paper ("Selecting
Subexpressions to Materialize at Datacenter Scale") is the concrete SCOPE
instance: given the common subexpressions a workload shares, which are
worth materializing?  Answering either question requires *hypothetically*
editing plans and pricing the edit — precisely a cost model call, and one
where the heuristic models' three-orders-of-magnitude errors make rankings
meaningless.

Two what-if transforms are provided:

* **Materialized view** — :func:`replace_subtree` swaps a logical subtree
  for a Get over the (hypothetically precomputed) view with identical
  output statistics; :func:`find_materialization_candidates` discovers the
  repeated subtrees of a workload to feed it.
* **Input growth** — :func:`scale_tables` rescales base-table cardinalities
  and recomputes every downstream cardinality with the plan builder's own
  composition rules (capacity planning: "what happens when clicks double?").

:class:`WhatIfAnalyzer` wraps both: it re-plans the baseline and the
variant with the learned cost model and reports predicted latency and
CPU-hour deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Callable

from repro.applications.prediction import JobPerformancePredictor
from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import ValidationError
from repro.common.hashing import combine_hashes, stable_hash
from repro.core.predictor import CleoPredictor
from repro.execution.trace import Timeline
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.plan.logical import LogicalOp, LogicalOpType, normalize_input_name
from repro.serving.service import CleoService


# --------------------------------------------------------------------- #
# Structural identity of logical subtrees
# --------------------------------------------------------------------- #


def subtree_key(node: LogicalOp) -> int:
    """Order-sensitive structural hash of a logical subtree.

    Built from template tags only, so two instances of the same recurring
    subexpression (different dates, parameters, input sizes) share a key —
    the same notion of identity the strict subgraph models use.
    """
    return combine_hashes(
        [stable_hash("whatif-key", node.template_tag)]
        + [subtree_key(child) for child in node.children]
    )


@dataclass(frozen=True)
class MaterializationCandidate:
    """A repeated subexpression that could be materialized."""

    key: int
    root_tag: str
    node_count: int
    occurrences: int
    job_ids: tuple[str, ...]
    example: LogicalOp

    def describe(self) -> str:
        return (
            f"{self.root_tag} ({self.node_count} ops): "
            f"{self.occurrences} occurrences across {len(self.job_ids)} jobs"
        )


def find_materialization_candidates(
    plans: dict[str, LogicalOp],
    min_occurrences: int = 2,
    min_nodes: int = 2,
) -> list[MaterializationCandidate]:
    """Repeated subtrees of a workload, most frequent first.

    Subtrees are keyed with :func:`subtree_key`; whole plans and Output
    roots are excluded (materializing the entire job is not a view), as are
    subtrees smaller than ``min_nodes`` operators.
    """
    if min_occurrences < 2:
        raise ValidationError("a candidate needs at least two occurrences")
    occurrences: dict[int, int] = {}
    jobs: dict[int, set[str]] = {}
    example: dict[int, LogicalOp] = {}
    for job_id, plan in plans.items():
        for node in plan.walk():
            if node is plan or node.op_type is LogicalOpType.OUTPUT:
                continue
            if node.node_count < min_nodes:
                continue
            key = subtree_key(node)
            occurrences[key] = occurrences.get(key, 0) + 1
            jobs.setdefault(key, set()).add(job_id)
            example.setdefault(key, node)

    candidates = [
        MaterializationCandidate(
            key=key,
            root_tag=example[key].template_tag,
            node_count=example[key].node_count,
            occurrences=count,
            job_ids=tuple(sorted(jobs[key])),
            example=example[key],
        )
        for key, count in occurrences.items()
        if count >= min_occurrences
    ]
    # Most frequent first; bigger subtrees break ties (more work saved).
    candidates.sort(key=lambda c: (-c.occurrences, -c.node_count, c.root_tag))
    return candidates


# --------------------------------------------------------------------- #
# Logical-plan transforms
# --------------------------------------------------------------------- #


def replace_subtree(
    root: LogicalOp,
    match: Callable[[LogicalOp], bool],
    view_name: str,
) -> LogicalOp:
    """Replace every matched subtree with a Get over ``view_name``.

    The replacement Get inherits the subtree's output statistics (row count
    and width), which is exactly what reading a materialized copy of the
    subexpression's result would deliver.  Matching is outermost-first: a
    matched subtree's interior is not searched again.
    """
    result, replaced = _replace_matches(root, match, view_name)
    if replaced == 0:
        raise ValidationError("no subtree matched the predicate")
    return result


def _replace_matches(
    node: LogicalOp, match: Callable[[LogicalOp], bool], view_name: str
) -> tuple[LogicalOp, int]:
    """:func:`replace_subtree` below ``node``: the rebuilt node and how many
    subtrees were replaced."""
    if match(node):
        view = LogicalOp(
            op_type=LogicalOpType.GET,
            children=(),
            template_tag=f"get:{normalize_input_name(view_name)}",
            true_card=node.true_card,
            row_bytes=node.row_bytes,
            normalized_inputs=frozenset({normalize_input_name(view_name)}),
            table=view_name,
        )
        return view, 1
    if not node.children:
        return node, 0
    children = []
    replaced = 0
    for child in node.children:
        new, count = _replace_matches(child, match, view_name)
        children.append(new)
        replaced += count
    if all(new is old for new, old in zip(children, node.children)):
        return node, replaced
    return dc_replace(node, children=tuple(children)), replaced


def scale_tables(root: LogicalOp, factors: dict[str, float]) -> LogicalOp:
    """Rescale base tables and recompute downstream cardinalities.

    Every Get over a table in ``factors`` has its cardinality multiplied by
    the factor; interior cardinalities are recomputed bottom-up using the
    same composition rules the plan builder applies (filters keep their
    true selectivity, joins their fan-out relative to the larger input,
    aggregates their group counts, top-k its limit).
    """
    for table, factor in factors.items():
        if factor <= 0:
            raise ValidationError(f"growth factor for {table} must be positive")
    return _rescaled(root, factors)


def _rescaled(node: LogicalOp, factors: dict[str, float]) -> LogicalOp:
    """:func:`scale_tables` below ``node``."""
    children = tuple(_rescaled(child, factors) for child in node.children)
    kind = node.op_type
    if kind is LogicalOpType.GET:
        factor = factors.get(node.table or "", 1.0)
        if factor == 1.0:
            return node
        return dc_replace(node, true_card=node.true_card * factor)

    child_cards = [child.true_card for child in children]
    if kind in (LogicalOpType.FILTER, LogicalOpType.PROCESS):
        card = child_cards[0] * node.sel_true
    elif kind in (LogicalOpType.PROJECT, LogicalOpType.SORT, LogicalOpType.OUTPUT):
        card = child_cards[0]
    elif kind is LogicalOpType.JOIN:
        card = max(child_cards) * node.sel_true
    elif kind is LogicalOpType.AGGREGATE:
        groups = node.group_count if node.group_count is not None else node.true_card
        card = min(child_cards[0], float(groups)) if child_cards[0] > 0 else 0.0
        card = max(card, 1.0 if child_cards[0] > 0 else 0.0)
    elif kind is LogicalOpType.TOP_K:
        card = min(float(node.limit or node.true_card), child_cards[0])
    elif kind is LogicalOpType.UNION:
        card = float(sum(child_cards))
    else:  # pragma: no cover - exhaustive over LogicalOpType
        raise ValidationError(f"cannot recompute cardinality for {kind}")
    if all(new is old for new, old in zip(children, node.children)) and (
        card == node.true_card
    ):
        return node
    return dc_replace(node, children=children, true_card=card)


# --------------------------------------------------------------------- #
# The analyzer
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WhatIfOutcome:
    """Predicted effect of one hypothetical change on one job."""

    job_id: str
    baseline: Timeline
    variant: Timeline

    @property
    def latency_delta_pct(self) -> float:
        """Negative = the change is predicted to make the job faster."""
        base = self.baseline.latency_seconds
        if base <= 0:
            return 0.0
        return 100.0 * (self.variant.latency_seconds - base) / base

    @property
    def cpu_delta_pct(self) -> float:
        base = self.baseline.cpu_seconds
        if base <= 0:
            return 0.0
        return 100.0 * (self.variant.cpu_seconds - base) / base

    def describe(self) -> str:
        return (
            f"{self.job_id}: latency {self.baseline.latency_seconds:.1f}s -> "
            f"{self.variant.latency_seconds:.1f}s ({self.latency_delta_pct:+.1f}%), "
            f"cpu {self.cpu_delta_pct:+.1f}%"
        )


class WhatIfAnalyzer:
    """Prices hypothetical plan changes with the learned cost models."""

    def __init__(
        self,
        predictor: CleoService | CleoPredictor,
        estimator: CardinalityEstimator | None = None,
        planner_config: PlannerConfig | None = None,
    ) -> None:
        self.service = CleoService.ensure(predictor)
        self.estimator = estimator or CardinalityEstimator()
        self.planner_config = planner_config or PlannerConfig()
        self.performance = JobPerformancePredictor(self.service, self.estimator)

    # ------------------------------------------------------------------ #
    # Generic transform evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        logical: LogicalOp,
        transform: Callable[[LogicalOp], LogicalOp],
        job_id: str = "job",
    ) -> WhatIfOutcome:
        """Plan + predict the job before and after ``transform``."""
        return WhatIfOutcome(
            job_id=job_id,
            baseline=self._plan_and_predict(logical),
            variant=self._plan_and_predict(transform(logical)),
        )

    # ------------------------------------------------------------------ #
    # Canned analyses
    # ------------------------------------------------------------------ #

    def evaluate_materialization(
        self,
        plans: dict[str, LogicalOp],
        candidate: MaterializationCandidate,
        view_name: str | None = None,
    ) -> list[WhatIfOutcome]:
        """Predicted effect of materializing ``candidate`` on each user job.

        Only jobs that contain the candidate subexpression are evaluated;
        the cost of *building* the view is out of scope (it is amortized
        across its consumers in the reference work).
        """
        view = view_name or f"view_{candidate.key & 0xFFFF:04x}"
        outcomes: list[WhatIfOutcome] = []
        for job_id in candidate.job_ids:
            logical = plans[job_id]
            outcomes.append(
                self.evaluate(
                    logical,
                    lambda plan: replace_subtree(
                        plan, lambda node: subtree_key(node) == candidate.key, view
                    ),
                    job_id=job_id,
                )
            )
        return outcomes

    def evaluate_growth(
        self,
        logical: LogicalOp,
        table: str,
        factors: list[float],
        job_id: str = "job",
    ) -> list[tuple[float, WhatIfOutcome]]:
        """Predicted latency/CPU as ``table`` grows by each factor."""
        if not factors:
            raise ValidationError("at least one growth factor is required")
        return [
            (
                factor,
                self.evaluate(
                    logical, lambda plan: scale_tables(plan, {table: factor}), job_id
                ),
            )
            for factor in factors
        ]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _plan_and_predict(self, logical: LogicalOp) -> Timeline:
        planner = QueryPlanner(
            self.service.cost_model(), self.estimator, self.planner_config
        )
        planned = planner.plan(logical)
        return self.performance.predict(planned.plan)
