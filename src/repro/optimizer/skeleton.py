"""``SkeletonPlanner``: the Cascades search replayed over a memoized skeleton.

Recurring jobs instantiate the same template over and over: the logical
structure, the requirement contexts the search explores, and every property
object (hash partitionings, sort orders) are identical across instances —
only the numbers differ (wobbled cardinalities, per-job partition jitter).
The rules live in :mod:`repro.optimizer.search`; this is the configuration
of that core which makes one job's search cheap:

* the template's static search data (``_skeleton``) is memoized per
  ``(template_id, day)`` instead of rebuilt per job;
* candidates are slotted :class:`RNode` objects (``_mk`` / ``_with_partitions``)
  that cache the estimates the rules and the pricing need — one estimate per
  logical node is *primed* when the search opens, and only subplans holding
  a synthesized local aggregate compute estimates live
  (:meth:`CardinalityEstimator.estimate_logical` either way, so the numbers
  are the estimator's own);
* ``_heuristic_partitions`` is :func:`default_partition_heuristic`'s formula
  on those cached estimates;
* ``_cost`` is one of two backends chosen at construction from the cost
  model's capabilities — *stats* (a heuristic model: its own
  ``operator_cost_from_stats`` on the node's cached estimates, the one
  formula its ``operator_cost`` runs), *deferred* (models exposing
  the packed pricing hooks, a batching
  :class:`~repro.core.cost_model.CleoCostModel`: the core's ledger is flushed
  through ``price_inputs``, ``_price``, each call ONE feature table of its
  nodes' cached estimates and :class:`~repro.plan.summary.SubtreeSummary`
  reads, :func:`feature_row` as for a :class:`PhysicalOp`).

The decisions themselves are re-run per job — instance wobble can genuinely
flip cost ties (build-side choice, local pre-aggregation, push-down vs
enforcement) — by the very code :class:`QueryPlanner` runs, so plans, costs,
candidate counts and lookup accounting are the reference's bit for bit
(``tests/workload/test_batched_parity.py``,
``tests/optimizer/test_search_configs.py``).

Models opt in through ``supports_replay_costing``
(:class:`~repro.cost.interface.CostModelBase`); the replay additionally
requires the plain :class:`CardinalityEstimator` (:func:`supports_replay`),
and the workload runner's replay no partition strategy
(:func:`supports_fast_path`).  ``replan_job`` — and the fleet driver in
:mod:`repro.optimizer.replan` — runs the partition-strategy pass itself, so
recurring-job replanning supports strategies too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.features.extract import feature_row
from repro.features.table import FeatureTable
from repro.optimizer.planner import PlannedJob, PlannerConfig
from repro.optimizer.search import (
    _NO_SORT,
    CascadesSearch,
    SkelNode,
    _build_skeleton,
    _Search,
    materialize,
)
from repro.plan.logical import LogicalOp, LogicalOpType
from repro.plan.physical import ExchangeMode, PhysOpType, PhysicalOp, post_order
from repro.plan.properties import Partitioning, SortOrder
from repro.plan.signatures import signed
from repro.plan.summary import summarize


class RNode:
    """One node of a replayed physical plan: a slim PhysicalOp stand-in.

    Carries the same structural payload as :class:`PhysicalOp` plus the
    estimates the search needs, without frozen-dataclass construction cost.
    ``true_card`` / ``row_bytes`` / ``est_out`` / ``est_in`` are resolved at
    construction (enforcers inherit their child's), so costing is O(1).

    It satisfies the node protocol :func:`~repro.plan.summary.summarize` and
    :func:`~repro.plan.signatures.signed` are written against (``op_type``,
    ``children``, ``logical``, ``template_tag``, ``true_card``, ``summary``),
    so under a learned cost model ``summary`` holds exactly what the
    materialized :class:`PhysicalOp` would compute for itself — built from
    the children's summaries as the node is made (unset for heuristic
    backends), and shared with every ``_with_partitions`` copy, since
    nothing in it depends on a partition count.
    """

    __slots__ = (
        "op_type",
        "children",
        "logical",
        "partition_count",
        "partitioning",
        "sorting",
        "exchange_mode",
        "sort_keys",
        "template_tag",
        "true_card",
        "row_bytes",
        "est_out",
        "est_in",
        "primed",
        "summary",  # learned backends only
    )

def supports_replay(cost_model: object, estimator: object) -> bool:
    """True when :class:`SkeletonPlanner` can serve this model and estimator.

    Cost models opt in through the ``supports_replay_costing`` capability
    flag (see :class:`~repro.cost.interface.CostModelBase`) — heuristic
    models whose formula the replay can reproduce from cached statistics,
    retuned subclasses included, and learned models exposing the packed
    pricing hooks.  The estimate formulas are the stock estimator's
    (subclasses could override them).  The replanning entry points
    (:meth:`SkeletonPlanner.replan_job`,
    :func:`repro.optimizer.replan.replan_jobs`) gate on this.
    """
    return bool(
        getattr(cost_model, "supports_replay_costing", False)
    ) and type(estimator) is CardinalityEstimator


def supports_fast_path(
    cost_model: object, estimator: object, config: PlannerConfig
) -> bool:
    """Whether :meth:`~repro.workload.runner.WorkloadRunner.run_days` plans
    by skeleton replay: :func:`supports_replay`, and no partition strategy
    (a separate optimization pass the runner's replay does not run).  Any
    other configuration plans each job through :class:`QueryPlanner`; both
    execute on the same engine."""
    return supports_replay(cost_model, estimator) and config.partition_strategy is None


def _same_structure(skeleton: list[SkelNode], bound: list[LogicalOp]) -> bool:
    """Whether ``skeleton`` holds what :func:`_build_skeleton` reads off each
    position of ``bound``: op type, child positions, keys, an aggregate's tag."""
    if len(skeleton) != len(bound):
        return False
    for sn, node in zip(skeleton, bound):
        if (
            sn.op_type is not node.op_type
            or sn.keys != node.keys
            or len(sn.children) != len(node.children)
            or (sn.op_type is LogicalOpType.AGGREGATE
                and sn.local_tag != f"{node.template_tag}#local")
        ):
            return False
        for index, child in zip(sn.children, node.children):
            if bound[index] is not child:  # positions hold distinct nodes
                return False
    return True


def _replay_table(nodes: list[RNode]) -> FeatureTable:
    """The rows of some replay nodes, from their cached statistics."""
    return FeatureTable.from_rows(
        [feature_row(n, n.est_in, n.est_out, n.partition_count) for n in nodes],
        [signed(n).bundle for n in nodes],
    )


@dataclass(frozen=True)
class SkeletonPlannerStats:
    """Telemetry counters of one :class:`SkeletonPlanner`.

    ``skeleton_hits``/``skeleton_builds`` split replays that reused a cached
    skeleton from ones that had to analyze the template structure;
    ``skeleton_evictions`` counts entries dropped by the clear-at-limit cap
    or by :meth:`SkeletonPlanner.keep_days`.
    ``frontier_flushes`` counts pricing calls: one per wave that had rows to
    price, i.e. per level of the deepest open search's critical path;
    ``rows_unread`` the stragglers' ledger rows, dropped unpriced.  A search's
    memo needs no cap of its own: bounded by one template's frame count,
    dropped when the winner is known.
    """

    jobs_replayed: int
    skeleton_hits: int
    skeleton_builds: int
    skeleton_evictions: int
    skeletons_cached: int
    frontier_flushes: int
    rows_unread: int


class SkeletonPlanner(CascadesSearch):
    """Replays the Cascades search over a memoized template skeleton.

    One instance per (cost model, estimator, config) triple — i.e. per
    :class:`~repro.workload.runner.WorkloadRunner`.  ``plan_job`` returns the
    winning :class:`RNode` tree; :func:`materialize` converts it to a real
    :class:`PhysicalOp` plan when one is needed (``keep_plans``, shape-static
    extraction).
    """

    #: Clear-at-limit cap on the per-``(template_id, day)`` skeleton cache,
    #: like the module-level signature-hash caches: wholesale clearing keeps
    #: the common case allocation-free and the worst case bounded.
    _SKELETON_CACHE_LIMIT = 1 << 12

    def __init__(
        self,
        cost_model,
        estimator: CardinalityEstimator,
        config: PlannerConfig | None = None,
    ) -> None:
        if not getattr(cost_model, "supports_replay_costing", False):
            raise OptimizationError(
                "SkeletonPlanner requires a cost model that advertises "
                "supports_replay_costing; "
                f"{type(cost_model).__name__} does not (its pricing formula "
                "is opaque to the replay)"
            )
        super().__init__(cost_model, estimator, config or PlannerConfig())
        self._skeletons: dict[tuple[str, int], list[SkelNode]] = {}
        self._estimate_logical = estimator.estimate_logical
        # Costing backend (see module docstring): learned models defer to
        # the ledger the packed hooks flush, heuristic models go through
        # their own operator_cost_from_stats.
        self._deferred = hasattr(cost_model, "price_inputs")
        if self._deferred:
            self._coster = type(self)._cost_deferred
        elif hasattr(cost_model, "operator_cost_from_stats"):
            self._coster = type(self)._cost_stats
        else:  # pragma: no cover - supports_replay_costing implies a backend
            raise OptimizationError(
                f"{type(cost_model).__name__} advertises replay costing but "
                "exposes neither the packed pricing hooks nor "
                "operator_cost_from_stats"
            )
        # Telemetry (see stats()).
        self._jobs_replayed = 0
        self._skeleton_hits = 0
        self._skeleton_builds = 0
        self._skeleton_evictions = 0
        self._frontier_flushes = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def plan_job(
        self, template_id: str, day: int, logical_root: LogicalOp, jitter_salt: str
    ) -> RNode:
        """Optimize one job instance through the memoized skeleton; returns
        the winning :class:`RNode` tree."""
        (job,) = self._search([(template_id, day, logical_root, jitter_salt)])
        return job.win

    def replan_job(
        self, template_id: str, day: int, logical_root: LogicalOp, jitter_salt: str
    ) -> PlannedJob:
        """One job end to end (:meth:`QueryPlanner.plan` for a stock pair).

        Beyond :meth:`plan_job` it materializes the winner, runs the
        partition-strategy pass when one is configured, and reports the total
        plan cost — everything :class:`~repro.optimizer.planner.PlannedJob`
        carries — bitwise identical to the ``PhysicalOp`` configuration.
        """
        (planned,) = self._plan_all([(template_id, day, logical_root, jitter_salt)])
        return planned

    def stats(self) -> SkeletonPlannerStats:
        """Current telemetry counters (cheap; safe to call between jobs)."""
        return SkeletonPlannerStats(
            jobs_replayed=self._jobs_replayed,
            skeleton_hits=self._skeleton_hits,
            skeleton_builds=self._skeleton_builds,
            skeleton_evictions=self._skeleton_evictions,
            skeletons_cached=len(self._skeletons),
            frontier_flushes=self._frontier_flushes,
            rows_unread=self._rows_unread,
        )

    def keep_days(self, days) -> None:
        """Drop the skeletons of days not in ``days`` (keyed per day, they
        can never hit again)."""
        stale = [key for key in self._skeletons if key[1] not in days]
        for key in stale:
            del self._skeletons[key]
        self._skeleton_evictions += len(stale)

    # ------------------------------------------------------------------ #
    # What this configuration supplies to the search core
    # ------------------------------------------------------------------ #

    def _skeleton(
        self, template_id: str, day: int, bound: list[LogicalOp]
    ) -> list[SkelNode]:
        """The template's static search data, memoized per ``(template_id, day)``;
        a hit of another structure raises (it would plan another query)."""
        key = (template_id, day)
        skeleton = self._skeletons.get(key)
        if skeleton is None:
            if len(self._skeletons) >= self._SKELETON_CACHE_LIMIT:
                self._skeleton_evictions += len(self._skeletons)
                self._skeletons.clear()
            skeleton = self._skeletons[key] = _build_skeleton(bound, self.config)
            self._skeleton_builds += 1
        elif not _same_structure(skeleton, bound):
            raise OptimizationError(
                f"template {template_id!r} day {day}: the job's logical structure "
                "differs from the skeleton cached under that key"
            )
        else:
            self._skeleton_hits += 1
        return skeleton

    def _open(
        self, template_id: str, day: int, logical_root: LogicalOp, jitter_salt: str
    ) -> _Search:
        job = super()._open(template_id, day, logical_root, jitter_salt)
        # Prime one estimate per logical node.  Any candidate whose physical
        # children all carry primed estimates shares the primed value (the
        # estimate formula sees identical inputs); only subplans containing a
        # synthesized local aggregate compute estimates live.  The JOIN and
        # UNION formulas are symmetric/order-matching, so commuted join
        # orientations share the primed value too.
        bound = job.bound
        estimate_logical = self._estimate_logical
        primed = job.primed
        for i, sn in enumerate(job.nodes):
            primed.append(
                estimate_logical(bound[i], [primed[c] for c in sn.children])
            )
        self._jobs_replayed += 1
        return job

    def _price(self, nodes: list[RNode]):
        self._frontier_flushes += 1
        return self.cost_model.price_inputs(_replay_table(nodes))

    def _finalize(self, wins: list[RNode]) -> list[tuple[PhysicalOp, float]]:
        """The core's finale, minus the re-featurization: without a partition
        pass the plan totals come from the replay nodes' cached statistics."""
        if self.config.partition_strategy is not None:
            return super()._finalize(wins)
        if self._deferred:
            # Every plan total in one packed pass, each reduced with
            # CleoService.predict_plan's exact left-fold order (price_plans).
            walks = [post_order(win) for win in wins]
            totals = self.cost_model.price_plans(
                _replay_table([node for nodes in walks for node in nodes]),
                [len(nodes) for nodes in walks],
            )
            return [(materialize(win), float(t)) for win, t in zip(wins, totals)]
        # Heuristic models: CostModelBase.plan_cost's int-0 left fold.
        out = []
        for win in wins:
            total = 0
            for node in post_order(win):
                total = total + self._cost(node)
            out.append((materialize(win), float(total)))
        return out

    def _mk(
        self,
        op_type: PhysOpType,
        children: tuple[RNode, ...],
        logical: LogicalOp | None,
        partition_count: int,
        partitioning: Partitioning,
        sorting: SortOrder = _NO_SORT,
        exchange_mode: ExchangeMode | None = None,
        sort_keys: tuple[str, ...] = (),
        index: int = -1,
    ) -> RNode:
        node = RNode()
        node.op_type = op_type
        node.children = children
        node.logical = logical
        node.partition_count = partition_count
        node.partitioning = partitioning
        node.sorting = sorting
        node.exchange_mode = exchange_mode
        node.sort_keys = sort_keys
        if logical is not None:
            node.template_tag = logical.template_tag
            node.true_card = logical.true_card
            node.row_bytes = logical.row_bytes
            primed = index >= 0
            if primed:
                for child in children:
                    if not child.primed:
                        primed = False
                        break
            if primed:
                node.est_out = self._job.primed[index]
            else:
                node.est_out = self._estimate_logical(
                    logical, [child.est_out for child in children]
                )
            node.primed = primed
        else:
            child = children[0]
            if op_type is PhysOpType.EXCHANGE:
                node.template_tag = f"xchg:{exchange_mode.value}"
            else:
                node.template_tag = (
                    f"enf:{op_type.value.lower()}:{','.join(sort_keys)}"
                )
            node.true_card = child.true_card
            node.row_bytes = child.row_bytes
            node.est_out = child.est_out
            node.primed = child.primed
        if not children:
            node.est_in = node.est_out
        elif len(children) == 1:
            # float(sum([e])) == e exactly; skip the generator machinery.
            node.est_in = children[0].est_out
        else:
            total = 0.0
            for child in children:
                total += child.est_out
            node.est_in = total
        if self._deferred:
            node.summary = summarize(node)
        return node

    def _with_partitions(self, op: RNode, partition_count: int, children) -> RNode:
        """A copy of ``op`` over ``children`` at a different partition count.

        Estimates are partition-independent, so they are copied rather than
        recomputed (used by the alignment rebuild) — and so is the summary
        (signatures and feature statistics never look at partition counts;
        the partition feature is read off the node at pricing time).
        """
        node = RNode()
        node.op_type = op.op_type
        node.children = children
        node.logical = op.logical
        node.partition_count = partition_count
        node.partitioning = op.partitioning
        node.sorting = op.sorting
        node.exchange_mode = op.exchange_mode
        node.sort_keys = op.sort_keys
        node.template_tag = op.template_tag
        node.true_card = op.true_card
        node.row_bytes = op.row_bytes
        node.est_out = op.est_out
        node.est_in = op.est_in
        node.primed = op.primed
        if self._deferred:
            node.summary = op.summary
        return node

    def _cost(self, node: RNode):
        # The backend picked at construction, kept as a plain function: a
        # bound method stored on ``self`` would make the planner a cycle.
        return self._coster(self, node)

    def _cost_stats(self, node: RNode) -> float:
        # Heuristic models: hand the model's own formula the exact
        # statistics operator_cost would have pulled from the estimator.
        return self.cost_model.operator_cost_from_stats(
            node.op_type,
            node.est_in,
            node.est_out,
            node.children[0].row_bytes if node.children else node.row_bytes,
            node.partition_count,
        )

    def _heuristic_partitions(self, op: RNode) -> int:
        # default_partition_heuristic on the replay node's cached estimates.
        rows = op.est_in if op.children else op.est_out
        width = op.children[0].row_bytes if op.children else op.row_bytes
        partitions = int(math.ceil(rows * width / self._mb_bytes))
        base = max(1, min(partitions, self.config.default_partition_cap))
        return min(self._jittered(base, op.template_tag), self.config.max_partitions)


class _CompileReplay(SkeletonPlanner):
    """:meth:`QueryPlanner.plan`'s replay: no template id, so no skeleton cache."""

    def _skeleton(self, template_id, day, bound):
        return _build_skeleton(bound, self.config)


__all__ = [
    "RNode",
    "SkeletonPlanner",
    "SkeletonPlannerStats",
    "materialize",
    "supports_fast_path",
    "supports_replay",
]
