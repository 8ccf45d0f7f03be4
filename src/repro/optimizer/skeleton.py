"""Skeleton planner: memoized template-level planning with per-job replay.

Recurring jobs instantiate the same template over and over: the logical
structure, the requirement contexts the Cascades search explores, and every
property object (hash partitionings, sort orders) are identical across
instances — only the numbers differ (wobbled cardinalities, per-job
partition jitter).  The skeleton planner splits
:meth:`~repro.optimizer.planner.QueryPlanner.plan` accordingly:

* a :class:`TemplateSkeleton`, memoized per ``(template_id, day)``, holds
  the static per-node search data (requirement property objects, enforcer
  tags, local-aggregate template tags) extracted once from the template's
  logical structure;
* a cheap per-job pass re-runs the *decisions* — candidate costing,
  partition heuristics, allocation jitter, alignment — over lightweight
  slotted nodes, because instance wobble can genuinely flip cost ties
  (build-side choice, local pre-aggregation, push-down vs enforcement).

The replay mirrors :class:`QueryPlanner`'s recursion exactly — same
candidate order, same tie-breaking, same floating-point expression order —
and shares the actual formula implementations
(:meth:`DefaultCostModel.operator_cost_from_stats`,
:meth:`CardinalityEstimator.estimate_logical`, :func:`jitter_factor`), so
the plans it produces are bit-identical to the reference planner's.  The
parity suite (``tests/workload/test_batched_parity.py``) pins this.

**Pluggable costing.**  The replay prices candidates through one of three
backends chosen at construction from the cost model's capabilities:

* *inlined* — the stock :class:`DefaultCostModel` formula, prefetched into
  locals (the original hot path);
* *stats* — any heuristic model exposing ``operator_cost_from_stats``
  (retuned :class:`DefaultCostModel` subclasses,
  :class:`~repro.cost.tuned_model.TunedCostModel`): the replay feeds it the
  cached per-node estimates the estimator would have produced;
* *learned* — models exposing the packed pricing hooks
  (:class:`~repro.core.cost_model.CleoCostModel`): the replay featurizes
  straight from each node's :class:`~repro.plan.summary.SubtreeSummary` —
  the same routine, and the same signature recursion, :class:`PhysicalOp`
  runs.  When the model also advertises ``supports_batched_pricing``,
  ``_cost`` emits the reference planner's deferred-cost ledger
  (:class:`~repro.optimizer.planner._DeferredCost`) and whole frontiers are
  priced through ``price_inputs`` in single packed passes — same values,
  same per-prediction lookup accounting, bitwise-identical plans.

**One resumable search.**  The recursion is written as generators with a
single suspension point: a frame with more than one candidate under the
deferred ledger yields, meaning "this job's pending ledger rows must be
priced before I can compare".  Each job's mutable state lives in one
:class:`_Search` object the planner points at, so any number of searches —
of any templates — can be open at once.  :meth:`SkeletonPlanner._search`
is the only driver: it advances every open search to its next suspension,
prices all their pending rows in one ``price_inputs`` call, and repeats.
``plan_job`` / ``replan_job`` drive it with one job (a flush per
suspension, the reference planner's schedule);
:class:`~repro.optimizer.replan.FleetReplanner` drives it with a fleet, so
pricing calls follow the deepest job instead of the job count.  Heuristic
and scalar learned backends never suspend.  Pricing a row earlier than the
solo search would is exact — predictions are batch-invariant and ledger
indices are assigned when ``_cost`` runs, not when the row is priced.

Models opt in through ``supports_replay_costing``
(:class:`~repro.cost.interface.CostModelBase`); the workload runner's fast
path additionally requires the plain :class:`CardinalityEstimator` and no
partition strategy (:func:`supports_fast_path`).  ``replan_job`` — and the
fleet driver in :mod:`repro.optimizer.replan` — runs the partition-strategy
pass itself, so recurring-job replanning supports strategies too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import plan_cost
from repro.features.featurizer import FeatureInput
from repro.optimizer.partition import optimize_partitions
from repro.optimizer.planner import (
    PlannedJob,
    PlannerConfig,
    _DeferredCost,
    _resolve_cost,
    jitter_factor,
)
from repro.plan.logical import LogicalOp, LogicalOpType
from repro.plan.physical import (
    PARTITIONING_OPS,
    ExchangeMode,
    PhysOpType,
    PhysicalOp,
)
from repro.plan.properties import Partitioning, PartitionScheme, SortOrder
from repro.plan.signatures import signed
from repro.plan.summary import summarize

_ANY = Partitioning.any()
_NO_SORT = SortOrder.none()
_RANDOM = Partitioning.random()
_SINGLETON = Partitioning.singleton()


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

class SkelNode:
    """Static per-logical-node search data, shared by a template's jobs."""

    __slots__ = (
        "index",
        "children",
        "op_type",
        "template_tag",
        # join
        "hash_left",
        "hash_right",
        "sort_left",
        "sort_right",
        # aggregate
        "final_req",
        "sort_req",
        "local_tag",
        # sort / top-k
        "sort_order",
    )


class TemplateSkeleton:
    """The memoized product of one template's structure analysis."""

    __slots__ = ("nodes", "root_index", "node_count")

    def __init__(self, nodes: list[SkelNode]) -> None:
        self.nodes = nodes
        self.root_index = len(nodes) - 1
        self.node_count = len(nodes)


def _build_skeleton(root: LogicalOp) -> TemplateSkeleton:
    """Extract the static search data from one logical plan (post-order)."""
    nodes: list[SkelNode] = []

    def visit(logical: LogicalOp) -> int:
        child_indices = tuple(visit(child) for child in logical.children)
        sn = SkelNode()
        sn.children = child_indices
        sn.op_type = logical.op_type
        sn.template_tag = logical.template_tag
        kind = logical.op_type
        if kind is LogicalOpType.JOIN:
            left_key, right_key = logical.keys
            sn.hash_left = Partitioning.hash(left_key)
            sn.hash_right = Partitioning.hash(right_key)
            sn.sort_left = SortOrder.on(left_key)
            sn.sort_right = SortOrder.on(right_key)
        elif kind is LogicalOpType.AGGREGATE:
            keys = logical.keys
            sn.final_req = Partitioning.hash(*keys) if keys else Partitioning.singleton()
            sn.sort_req = SortOrder.on(*keys)
            sn.local_tag = f"{logical.template_tag}#local"
        elif kind in (LogicalOpType.SORT, LogicalOpType.TOP_K):
            sn.sort_order = SortOrder.on(*logical.keys)
        sn.index = len(nodes)
        nodes.append(sn)
        return sn.index

    visit(root)
    return TemplateSkeleton(nodes)


def _bind_logical(root: LogicalOp) -> list[LogicalOp]:
    """This job's logical nodes in skeleton (post-order) position order."""
    bound: list[LogicalOp] = []

    def visit(logical: LogicalOp) -> None:
        for child in logical.children:
            visit(child)
        bound.append(logical)

    visit(root)
    return bound


def supports_fast_path(
    cost_model: object, estimator: object, config: PlannerConfig
) -> bool:
    """True when the replay search is exact for this configuration.

    Cost models opt in through the ``supports_replay_costing`` capability
    flag (see :class:`~repro.cost.interface.CostModelBase`) — heuristic
    models whose formula the replay can reproduce from cached statistics,
    retuned subclasses included, and learned models exposing the packed
    pricing hooks.  The estimate formulas are the stock estimator's
    (subclasses could override them), and partition strategies run a
    separate optimization pass the workload engine does not model — those
    fall back to the reference planner.  (:meth:`SkeletonPlanner.replan_job`
    and the fleet replanner run the partition pass themselves, so the
    strategy restriction applies only to this workload-engine gate.)
    """
    return (
        bool(getattr(cost_model, "supports_replay_costing", False))
        and type(estimator) is CardinalityEstimator
        and config.partition_strategy is None
    )


def supports_replay(cost_model: object, estimator: object) -> bool:
    """True when :class:`SkeletonPlanner` itself can serve this model.

    The replanning entry points (:meth:`SkeletonPlanner.replan_job`,
    :func:`repro.optimizer.replan.replan_jobs`) gate on this — unlike
    :func:`supports_fast_path` they handle partition strategies.
    """
    return bool(
        getattr(cost_model, "supports_replay_costing", False)
    ) and type(estimator) is CardinalityEstimator


def _walk_replay(node: RNode):
    """Yield the replay tree children-before-parents, like ``PhysicalOp.walk``.

    Shared winner subtrees are yielded once per occurrence, matching the
    walk of the materialized (tree-shaped) plan.
    """
    for child in node.children:
        yield from _walk_replay(child)
    yield node


def _replay_feature_input(node: RNode) -> FeatureInput:
    """``feature_input_for`` from the replay node's cached statistics."""
    summary = node.summary
    logical = node.logical
    return FeatureInput(
        input_card=node.est_in,
        base_card=summary.base_card,
        output_card=node.est_out,
        avg_row_bytes=node.row_bytes,
        partition_count=float(node.partition_count),
        input_enc=FeatureInput.encode_inputs(summary.inputs),
        params_enc=FeatureInput.encode_params(
            logical.params if logical is not None else ()
        ),
        logical_count=float(summary.n_logical),
        depth=float(summary.depth),
    )


@dataclass(frozen=True)
class SkeletonPlannerStats:
    """Telemetry counters of one :class:`SkeletonPlanner`.

    ``skeleton_hits``/``skeleton_builds`` split replays that reused a cached
    skeleton from ones that had to analyze the template structure;
    ``skeleton_evictions`` counts entries dropped by the clear-at-limit cap.
    ``frontier_flushes`` counts pricing calls (one per wave that had rows
    to price).  A search's memo needs no cap of its own: it is bounded by
    one template's frame count and dropped when the winner is known, and
    the number of searches open at once is bounded instead.
    """

    jobs_replayed: int
    skeleton_hits: int
    skeleton_builds: int
    skeleton_evictions: int
    skeletons_cached: int
    frontier_flushes: int


class _Search:
    """One job's live search: everything the replay mutates, in one object.

    The planner points at the search it is advancing
    (``SkeletonPlanner._job``), so switching jobs is one pointer swap and any
    number of searches — of any templates — can be open at once.  ``run`` is
    the suspended search itself (the root ``_optimize`` generator); it and
    the memo are dropped the moment the winner is known.
    """

    __slots__ = (
        "nodes",
        "bound",
        "salt",
        "jitter_cache",
        "memo",
        "choices",
        "pending",
        "priced",
        "primed",
        "candidates_considered",
        "run",
        "win",
    )

    def __init__(self, nodes: list[SkelNode], bound: list[LogicalOp], salt: str):
        self.nodes = nodes
        self.bound = bound
        self.salt = salt
        self.jitter_cache: dict[str, float] = {}
        self.memo: dict[tuple[int, int, int], tuple[RNode, object]] = {}
        self.choices: list[int] = []
        self.pending: list[RNode] = []
        self.priced: list[float] = []
        self.primed: list[float] = []
        self.candidates_considered = 0
        self.run = None
        self.win: RNode | None = None


class SkeletonPlanner:
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

    #: Most searches :meth:`_search` keeps open at once.  Each open search
    #: pins its memo of subplans (~30 KiB), so this bounds the planner's
    #: footprint whatever the fleet size; past it, finished searches are
    #: replaced as they retire, which costs a few extra pricing waves.
    _LIVE_SEARCH_LIMIT = 64

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
        self.cost_model = cost_model
        self.estimator = estimator
        self.config = config or PlannerConfig()
        self._skeletons: dict[tuple[str, int], TemplateSkeleton] = {}
        self._mb_bytes = self.config.exchange_partition_mb * 1024 * 1024
        self._estimate_logical = estimator.estimate_logical
        # Costing backend (see module docstring): learned models price
        # through the packed hooks (deferred ledger when they batch),
        # DefaultCostModel keeps the inlined formula, other heuristic
        # models go through operator_cost_from_stats.
        self._learned = hasattr(cost_model, "price_inputs")
        self._deferred = False
        if self._learned:
            self._deferred = bool(
                getattr(cost_model, "supports_batched_pricing", False)
            )
            self._cost = self._cost_deferred if self._deferred else self._cost_scalar
        elif isinstance(cost_model, DefaultCostModel):
            # Cost-model constants, prefetched once.  id()-keyed coefficient
            # lookup skips enum.__hash__ (a Python-level call) on the hottest
            # dict access; enum members are singletons, so ids are stable.
            # Retuned subclasses (constants changed, formula intact) prefetch
            # their own values, so the inlined path serves them too.
            self._inflation = cost_model.inflation
            self._row_cap = cost_model.row_cap
            self._coef_by_id = {
                id(op_type): coef for op_type, coef in cost_model.coefficients.items()
            }
            self._cost = self._cost_inlined
        elif hasattr(cost_model, "operator_cost_from_stats"):
            self._cost = self._cost_stats
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
        # The search being advanced (see _Search); swapped by _advance.
        self._job: _Search | None = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def plan_job(
        self, template_id: str, day: int, logical_root: LogicalOp, jitter_salt: str
    ) -> RNode:
        """Optimize one job instance through the memoized skeleton.

        Also records the job's *choice key* (see :attr:`last_choice_key`): the
        ordinal of the winning candidate at every memo entry, in entry-creation
        order.  Entry order is a pure function of the template structure, so
        ``(template_id, choices)`` uniquely identifies the resulting plan
        shape — the batched execution engine keys its shape-statics cache on
        it without fingerprinting the tree.
        """
        (job,) = self._search([(template_id, day, logical_root, jitter_salt)])
        self.last_choice_key = (template_id, tuple(job.choices))
        return job.win

    def replan_job(
        self, template_id: str, day: int, logical_root: LogicalOp, jitter_salt: str
    ) -> PlannedJob:
        """Full :meth:`QueryPlanner.plan` replacement for one recurring job.

        Beyond :meth:`plan_job` it materializes the winner, runs the
        partition-strategy pass when one is configured, and reports the total
        plan cost — everything :class:`~repro.optimizer.planner.PlannedJob`
        carries — bitwise identical to the reference planner.
        """
        start = time.perf_counter()
        (job,) = self._search([(template_id, day, logical_root, jitter_salt)])
        self.last_choice_key = (template_id, tuple(job.choices))
        ((plan, total),) = self._finalize([job.win])
        elapsed = time.perf_counter() - start
        return PlannedJob(plan, total, elapsed, job.candidates_considered)

    def stats(self) -> SkeletonPlannerStats:
        """Current telemetry counters (cheap; safe to call between jobs)."""
        return SkeletonPlannerStats(
            jobs_replayed=self._jobs_replayed,
            skeleton_hits=self._skeleton_hits,
            skeleton_builds=self._skeleton_builds,
            skeleton_evictions=self._skeleton_evictions,
            skeletons_cached=len(self._skeletons),
            frontier_flushes=self._frontier_flushes,
        )

    # ------------------------------------------------------------------ #
    # The search driver: open, advance to a suspension, price, repeat
    # ------------------------------------------------------------------ #

    def _search(self, requests) -> list[_Search]:
        """Search every ``(template_id, day, logical_root, jitter_salt)``
        request to its winner; the finished searches align with the input.

        Each wave advances every open search to its next suspension and
        prices all their pending ledger rows in ONE ``price_inputs`` call, so
        the number of pricing calls is the deepest job's flush depth, not a
        multiple of the job count (why that is exact: module docstring).  A
        lone request degenerates to the solo search, flushing at every
        suspension.
        """
        requests = iter(requests)
        opened: list[_Search] = []
        live: list[_Search] = []
        while True:
            room = self._LIVE_SEARCH_LIMIT - len(live)
            fresh = [self._open(*request) for request in islice(requests, room)]
            opened += fresh
            wave = live + fresh
            live = [job for job in wave if self._advance(job)]
            # Finished searches flush their stragglers here too, matching
            # the reference planner's post-search flush (lookup accounting).
            self._flush(wave)
            if not live and len(fresh) < room:  # nothing open, nothing left
                return opened

    def _open(
        self, template_id: str, day: int, logical_root: LogicalOp, jitter_salt: str
    ) -> _Search:
        """Bind one job instance to its (possibly cached) skeleton."""
        key = (template_id, day)
        skeleton = self._skeletons.get(key)
        bound = _bind_logical(logical_root)
        if skeleton is None or skeleton.node_count != len(bound):
            # node_count mismatch should be impossible (template structure is
            # instance-independent); rebuilding keeps the path correct anyway.
            if len(self._skeletons) >= self._SKELETON_CACHE_LIMIT:
                self._skeleton_evictions += len(self._skeletons)
                self._skeletons.clear()
            skeleton = _build_skeleton(logical_root)
            self._skeletons[key] = skeleton
            self._skeleton_builds += 1
        else:
            self._skeleton_hits += 1
        # Prime one estimate per logical node.  Any candidate whose physical
        # children all carry primed estimates shares the primed value (the
        # estimate formula sees identical inputs); only subplans containing a
        # synthesized local aggregate compute estimates live.  The JOIN and
        # UNION formulas are symmetric/order-matching, so commuted join
        # orientations share the primed value too.
        job = _Search(skeleton.nodes, bound, jitter_salt)
        estimate_logical = self._estimate_logical
        primed = job.primed
        for i, sn in enumerate(skeleton.nodes):
            primed.append(
                estimate_logical(bound[i], [primed[c] for c in sn.children])
            )
        job.run = self._optimize(skeleton.root_index, _ANY, _NO_SORT)
        self._jobs_replayed += 1
        return job

    def _advance(self, job: _Search) -> bool:
        """Run ``job`` to its next suspension; False once its winner is known."""
        self._job = job
        try:
            next(job.run)
        except StopIteration as done:
            job.win = done.value[0]
            # Only the winner, the choice key and the straggler ledger
            # outlive the search; the memo pins every frame's subplan.
            job.run = job.memo = job.jitter_cache = job.primed = None
            return False
        return True

    def _flush(self, jobs: list[_Search]) -> None:
        """Price every pending ledger row of ``jobs`` in one packed pass."""
        nodes = [node for job in jobs for node in job.pending]
        if not nodes:
            return
        values = self.cost_model.price_inputs(
            [_replay_feature_input(node) for node in nodes],
            [signed(node).bundle for node in nodes],
        )
        offset = 0
        for job in jobs:
            count = len(job.pending)
            job.priced.extend(map(float, values[offset : offset + count]))
            job.pending.clear()
            offset += count
        self._frontier_flushes += 1

    def _finalize(self, wins: list[RNode]) -> list[tuple[PhysicalOp, float]]:
        """Materialize + partition pass + total cost, as ``plan()`` would."""
        strategy = self.config.partition_strategy
        if strategy is not None:
            out = []
            for win in wins:
                self.estimator.reset()
                physical = optimize_partitions(
                    materialize(win),
                    self.cost_model,
                    self.estimator,
                    strategy,
                    max_partitions=self.config.max_partitions,
                )
                out.append(
                    (physical, plan_cost(self.cost_model, physical, self.estimator))
                )
            return out
        if self._learned:
            # Every plan total in one packed pass, each reduced with
            # CleoService.predict_plan's exact left-fold order (price_plans).
            walks = [list(_walk_replay(win)) for win in wins]
            totals = self.cost_model.price_plans(
                [_replay_feature_input(node) for nodes in walks for node in nodes],
                [signed(node).bundle for nodes in walks for node in nodes],
                [len(nodes) for nodes in walks],
            )
            return [(materialize(win), float(t)) for win, t in zip(wins, totals)]
        # Heuristic models: CostModelBase.plan_cost's int-0 left fold.
        out = []
        for win in wins:
            total = 0
            for node in _walk_replay(win):
                total = total + self._cost(node)
            out.append((materialize(win), float(total)))
        return out

    # ------------------------------------------------------------------ #
    # Node construction (the _mk analogue)
    # ------------------------------------------------------------------ #

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
        if self._learned:
            node.summary = summarize(node)
        return node

    def _with_partitions(self, op: RNode, partition_count: int) -> RNode:
        """A copy of ``op`` at a different partition count.

        Estimates are partition-independent, so they are copied rather than
        recomputed (used by the alignment rebuild) — and so is the summary
        (signatures and feature statistics never look at partition counts;
        the partition feature is read off the node at pricing time).
        """
        node = RNode()
        node.op_type = op.op_type
        node.children = op.children
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
        if self._learned:
            node.summary = op.summary
        return node

    def _cost_inlined(self, node: RNode) -> float:
        # Inlined DefaultCostModel.operator_cost_from_stats — expression
        # order kept identical; the parity suite pins the equivalence.
        children = node.children
        cpu, io, out, nlogn = self._coef_by_id[id(node.op_type)]
        partitions = float(node.partition_count)
        row_cap = self._row_cap
        rows_in = min(node.est_in, row_cap) / partitions
        rows_out = min(node.est_out, row_cap) / partitions
        cost = (
            io * rows_in * (children[0].row_bytes if children else node.row_bytes)
            + out * rows_out
        )
        if nlogn:
            cost += cpu * rows_in * math.log2(rows_in + 2.0)
        else:
            cost += cpu * rows_in
        return self._inflation * cost + 1e-4

    def _cost_stats(self, node: RNode) -> float:
        # Heuristic models beyond DefaultCostModel (e.g. TunedCostModel):
        # hand the formula the exact statistics operator_cost would have
        # pulled from the estimator.
        return self.cost_model.operator_cost_from_stats(
            node.op_type,
            node.est_in,
            node.est_out,
            node.children[0].row_bytes if node.children else node.row_bytes,
            node.partition_count,
        )

    def _cost_scalar(self, node: RNode) -> float:
        # Learned model, scalar serving path (batched=False): one service
        # round-trip per candidate, like QueryPlanner's operator_cost calls.
        return self.cost_model.price_input(
            _replay_feature_input(node), signed(node).bundle
        )

    def _cost_deferred(self, node: RNode):
        # Learned model, batched: emit the reference planner's deferred-cost
        # ledger; whole frontiers are priced at flush time in packed passes.
        job = self._job
        index = len(job.priced) + len(job.pending)
        job.pending.append(node)
        return _DeferredCost(_DeferredCost.LEAF, index)

    # ------------------------------------------------------------------ #
    # Core recursion (mirrors QueryPlanner._optimize)
    # ------------------------------------------------------------------ #

    def _optimize(self, index: int, req_part: Partitioning, req_sort: SortOrder):
        """One search frame, as a generator returning ``(RNode, cost)``.

        The search is resumable with exactly one suspension point, the bare
        ``yield`` below: "this job's pending ledger must be priced before the
        frame can compare its candidates".  Whoever drives the generator
        (:meth:`_search`) flushes and resumes; heuristic and scalar learned
        backends never suspend.
        """
        # Requirement objects are interned (module constants + per-skeleton
        # precomputed properties), so identity keys are equivalent to the
        # reference planner's value keys — and skip frozen-dataclass hashing.
        # A hypothetical identity miss only recomputes the same pure result.
        job = self._job
        key = (index, id(req_part), id(req_sort))
        cached = job.memo.get(key)
        if cached is not None:
            # The reference planner clones memoized subplans so physical
            # plans stay trees; the replay shares winners during the search
            # and duplicates shared subtrees at materialization instead.
            return cached
        candidates = yield from self._implementations(index, req_part, req_sort)
        if not candidates:
            raise OptimizationError(
                f"no implementation for {job.bound[index].op_type.value} under "
                f"{req_part.describe()}/{req_sort.describe()}"
            )
        job.candidates_considered += len(candidates)
        # Enforcement is a no-op under (ANY, unsorted): every delivered
        # partitioning satisfies ANY and every sort satisfies "none".
        if not (req_part is _ANY and req_sort is _NO_SORT):
            for ordinal, candidate in enumerate(candidates):
                candidates[ordinal] = self._enforce(candidate, req_part, req_sort)
        if self._deferred and len(candidates) > 1:
            # Mirrors the reference planner's batched branch: a lone
            # candidate keeps its cost expression unresolved (the parent
            # frontier prices it); a genuine comparison has the ledger priced
            # and resolves each expression with _resolve_cost's bit-exact
            # arithmetic replay.
            yield
            priced = job.priced
            candidates = [(op, _resolve_cost(cost, priced)) for op, cost in candidates]
        # First-seen strict ``<`` scan, like the reference planner's min().
        best = candidates[0]
        best_ordinal = 0
        for ordinal in range(1, len(candidates)):
            if candidates[ordinal][1] < best[1]:
                best = candidates[ordinal]
                best_ordinal = ordinal
        # Candidate *existence* can vary per job (alignment failures), so the
        # choice key records how many candidates were in play as well
        # (packed with the winner ordinal; counts are single-digit).
        job.choices.append(best_ordinal * 16 + len(candidates))
        job.memo[key] = best
        return best

    def _implementations(self, index: int, req_part: Partitioning, req_sort: SortOrder):
        kind = self._job.nodes[index].op_type
        if kind is LogicalOpType.GET:
            return self._impl_get(index)
        if kind in (LogicalOpType.FILTER, LogicalOpType.PROJECT):
            return (yield from self._impl_passthrough(index, req_part, req_sort))
        if kind is LogicalOpType.PROCESS:
            return (yield from self._impl_process(index))
        if kind is LogicalOpType.JOIN:
            return (yield from self._impl_join(index))
        if kind is LogicalOpType.AGGREGATE:
            return (yield from self._impl_aggregate(index))
        if kind is LogicalOpType.SORT:
            return (yield from self._impl_sort(index))
        if kind is LogicalOpType.TOP_K:
            return (yield from self._impl_topk(index))
        if kind is LogicalOpType.UNION:
            return (yield from self._impl_union(index))
        if kind is LogicalOpType.OUTPUT:
            return (yield from self._impl_output(index))
        raise OptimizationError(f"unsupported logical operator {kind}")

    # ------------------------------------------------------------------ #
    # Per-operator implementations (mirroring QueryPlanner's)
    # ------------------------------------------------------------------ #

    def _impl_get(self, index: int) -> list[tuple[RNode, float]]:
        logical = self._job.bound[index]
        partitions = self._heuristic_partitions_for_volume(
            logical.true_card, logical.row_bytes, logical.template_tag
        )
        op = self._mk(
            PhysOpType.EXTRACT, (), logical, partitions, _RANDOM, index=index
        )
        return [(op, self._cost(op))]

    def _impl_passthrough(
        self, index: int, req_part: Partitioning, req_sort: SortOrder
    ):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        phys_type = (
            PhysOpType.FILTER
            if sn.op_type is LogicalOpType.FILTER
            else PhysOpType.COMPUTE
        )
        child_index = sn.children[0]
        requirement_pairs = [(req_part, req_sort)]
        if (req_part, req_sort) != (_ANY, _NO_SORT):
            requirement_pairs.append((_ANY, _NO_SORT))
        out: list[tuple[RNode, float]] = []
        for child_part, child_sort in requirement_pairs:
            child_node, child_cost = yield from self._optimize(
                child_index, child_part, child_sort
            )
            op = self._mk(
                phys_type,
                (child_node,),
                logical,
                child_node.partition_count,
                child_node.partitioning,
                child_node.sorting,
                index=index,
            )
            out.append((op, child_cost + self._cost(op)))
        return out

    def _impl_process(self, index: int):
        job = self._job
        sn = job.nodes[index]
        child_node, child_cost = yield from self._optimize(
            sn.children[0], _ANY, _NO_SORT
        )
        op = self._mk(
            PhysOpType.PROCESS,
            (child_node,),
            job.bound[index],
            child_node.partition_count,
            _RANDOM,
            index=index,
        )
        return [(op, child_cost + self._cost(op))]

    def _impl_join(self, index: int):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        left, right = sn.children
        sides = [(left, right, sn.hash_left, sn.hash_right)]
        if self.config.enable_join_commute:
            sides.append((right, left, sn.hash_right, sn.hash_left))

        # Candidate existence here is *numeric* (partition alignment can fail
        # on one side only), so the join contributes an existence mask to the
        # choice key — winner ordinals alone would be ambiguous.
        mask = 0
        out: list[tuple[RNode, float]] = []
        for side, (probe, build, probe_req, build_req) in enumerate(sides):
            probe_cand = yield from self._optimize(probe, probe_req, _NO_SORT)
            build_cand = yield from self._optimize(build, build_req, _NO_SORT)
            aligned = self._align_partitions([probe_cand, build_cand])
            if aligned is not None:
                mask |= 1 << side
                (probe_node, probe_cost), (build_node, build_cost) = aligned
                op = self._mk(
                    PhysOpType.HASH_JOIN,
                    (probe_node, build_node),
                    logical,
                    probe_node.partition_count,
                    probe_req,
                    index=index,
                )
                out.append((op, probe_cost + build_cost + self._cost(op)))

        if self.config.enable_merge_join:
            left_cand = yield from self._optimize(left, sn.hash_left, sn.sort_left)
            right_cand = yield from self._optimize(right, sn.hash_right, sn.sort_right)
            aligned = self._align_partitions([left_cand, right_cand])
            if aligned is not None:
                mask |= 4
                (left_node, left_cost), (right_node, right_cost) = aligned
                op = self._mk(
                    PhysOpType.MERGE_JOIN,
                    (left_node, right_node),
                    logical,
                    left_node.partition_count,
                    sn.hash_left,
                    sn.sort_left,
                    index=index,
                )
                out.append((op, left_cost + right_cost + self._cost(op)))
        job.choices.append(mask)
        return out

    def _impl_aggregate(self, index: int):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        keys = logical.keys
        child_index = sn.children[0]
        final_req = sn.final_req
        delivered = final_req if keys else _SINGLETON
        out: list[tuple[RNode, float]] = []

        # (a) Hash aggregate directly on repartitioned input.
        child_node, child_cost = yield from self._optimize(
            child_index, final_req, _NO_SORT
        )
        hash_agg = self._mk(
            PhysOpType.HASH_AGGREGATE,
            (child_node,),
            logical,
            child_node.partition_count,
            delivered,
            index=index,
        )
        out.append((hash_agg, child_cost + self._cost(hash_agg)))

        # (b) Stream aggregate over sorted, repartitioned input.
        if keys and self.config.enable_stream_aggregate:
            sorted_node, sorted_cost = yield from self._optimize(
                child_index, final_req, sn.sort_req
            )
            stream_agg = self._mk(
                PhysOpType.STREAM_AGGREGATE,
                (sorted_node,),
                logical,
                sorted_node.partition_count,
                delivered,
                sn.sort_req,
                index=index,
            )
            out.append((stream_agg, sorted_cost + self._cost(stream_agg)))

        # (c) Local pre-aggregation before the shuffle (the Q17 plan shape).
        if self.config.enable_local_aggregate:
            any_node, any_cost = yield from self._optimize(child_index, _ANY, _NO_SORT)
            local_logical = self._local_aggregate_logical(
                logical, sn.local_tag, any_node.partition_count
            )
            local = self._mk(
                PhysOpType.LOCAL_AGGREGATE,
                (any_node,),
                local_logical,
                any_node.partition_count,
                any_node.partitioning,
            )
            exchange = self._exchange_for(local, final_req)
            final = self._mk(
                PhysOpType.HASH_AGGREGATE,
                (exchange,),
                logical,
                exchange.partition_count,
                delivered,
                index=index,
            )
            cost = (
                any_cost + self._cost(local) + self._cost(exchange) + self._cost(final)
            )
            out.append((final, cost))
        return out

    def _impl_sort(self, index: int):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        child_node, child_cost = yield from self._optimize(
            sn.children[0], _SINGLETON, _NO_SORT
        )
        op = self._mk(
            PhysOpType.SORT,
            (child_node,),
            logical,
            1,
            _SINGLETON,
            sn.sort_order,
            sort_keys=logical.keys,
            index=index,
        )
        return [(op, child_cost + self._cost(op))]

    def _impl_topk(self, index: int):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        child_node, child_cost = yield from self._optimize(
            sn.children[0], _SINGLETON, _NO_SORT
        )
        op = self._mk(
            PhysOpType.TOP_K,
            (child_node,),
            logical,
            1,
            _SINGLETON,
            sn.sort_order,
            sort_keys=logical.keys,
            index=index,
        )
        return [(op, child_cost + self._cost(op))]

    def _impl_union(self, index: int):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        child_cands = []
        for child in sn.children:
            child_cands.append((yield from self._optimize(child, _ANY, _NO_SORT)))
        target = max(
            self._heuristic_partitions_for_volume(
                child.true_card, child.row_bytes, logical.template_tag
            )
            for child in logical.children
        )
        exchanged = []
        cost = 0.0
        for child_node, child_cost in child_cands:
            exchange = self._mk(
                PhysOpType.EXCHANGE,
                (child_node,),
                None,
                target,
                _RANDOM,
                exchange_mode=ExchangeMode.RANDOM,
            )
            exchanged.append(exchange)
            cost += child_cost + self._cost(exchange)
        op = self._mk(
            PhysOpType.UNION_ALL, tuple(exchanged), logical, target, _RANDOM,
            index=index,
        )
        return [(op, cost + self._cost(op))]

    def _impl_output(self, index: int):
        job = self._job
        sn = job.nodes[index]
        child_node, child_cost = yield from self._optimize(
            sn.children[0], _ANY, _NO_SORT
        )
        op = self._mk(
            PhysOpType.OUTPUT,
            (child_node,),
            job.bound[index],
            child_node.partition_count,
            child_node.partitioning,
            child_node.sorting,
            index=index,
        )
        return [(op, child_cost + self._cost(op))]

    # ------------------------------------------------------------------ #
    # Enforcers and alignment (mirroring QueryPlanner's)
    # ------------------------------------------------------------------ #

    def _enforce(
        self,
        candidate: tuple[RNode, float],
        req_part: Partitioning,
        req_sort: SortOrder,
    ) -> tuple[RNode, float]:
        op, cost = candidate
        if not op.partitioning.satisfies(req_part):
            op = self._exchange_for(op, req_part)
            cost += self._cost(op)
        if not op.sorting.satisfies(req_sort):
            op = self._mk(
                PhysOpType.SORT,
                (op,),
                None,
                op.partition_count,
                op.partitioning,
                SortOrder(req_sort.columns),
                sort_keys=req_sort.columns,
            )
            cost += self._cost(op)
        return (op, cost)

    def _exchange_for(self, child: RNode, req_part: Partitioning) -> RNode:
        if req_part.scheme is PartitionScheme.SINGLETON:
            mode, partitions, delivered = ExchangeMode.GATHER, 1, _SINGLETON
        elif req_part.scheme is PartitionScheme.HASH:
            mode = ExchangeMode.HASH
            partitions = self._heuristic_partitions(child)
            delivered = req_part
        else:
            mode = ExchangeMode.RANDOM
            partitions = self._heuristic_partitions(child)
            delivered = _RANDOM
        return self._mk(
            PhysOpType.EXCHANGE,
            (child,),
            None,
            partitions,
            delivered,
            exchange_mode=mode,
        )

    def _align_partitions(
        self, candidates: list[tuple[RNode, float]]
    ) -> list[tuple[RNode, float]] | None:
        counts = [node.partition_count for node, _ in candidates]
        target = max(counts)
        out: list[tuple[RNode, float]] = []
        for candidate in candidates:
            if candidate[0].partition_count == target:
                out.append(candidate)
                continue
            adjusted = self._with_root_stage_partitions(candidate, target)
            if adjusted is None:
                return None
            out.append(adjusted)
        return out

    def _with_root_stage_partitions(
        self, candidate: tuple[RNode, float], new_count: int
    ) -> tuple[RNode, float] | None:
        root, cost = candidate
        stage_ops: list[RNode] = []

        def collect(op: RNode) -> None:
            stage_ops.append(op)
            if op.op_type in PARTITIONING_OPS:
                return
            for child in op.children:
                collect(child)

        collect(root)
        for op in stage_ops:
            if (
                op.op_type is PhysOpType.EXCHANGE
                and op.exchange_mode is ExchangeMode.GATHER
            ):
                return None
            if op.partitioning.scheme is PartitionScheme.SINGLETON:
                return None
        in_stage = {id(op) for op in stage_ops}
        cost_delta = 0.0

        def rebuild(op: RNode) -> RNode:
            nonlocal cost_delta
            if id(op) not in in_stage:
                return op
            new_children = tuple(rebuild(child) for child in op.children)
            replaced = self._with_partitions(op, new_count)
            replaced.children = new_children
            cost_delta += self._cost(replaced) - self._cost(op)
            return replaced

        new_root = rebuild(root)
        return (new_root, cost + cost_delta)

    # ------------------------------------------------------------------ #
    # Partition heuristics and jitter (mirroring QueryPlanner's)
    # ------------------------------------------------------------------ #

    def _heuristic_partitions(self, op: RNode) -> int:
        # default_partition_heuristic on the replay node's cached estimates.
        rows = op.est_in if op.children else op.est_out
        width = op.children[0].row_bytes if op.children else op.row_bytes
        partitions = int(math.ceil(rows * width / self._mb_bytes))
        base = max(1, min(partitions, self.config.default_partition_cap))
        return min(self._jittered(base, op.template_tag), self.config.max_partitions)

    def _heuristic_partitions_for_volume(
        self, rows: float, row_bytes: float, jitter_key: str
    ) -> int:
        partitions = int(max(1, rows * row_bytes // self._mb_bytes + 1))
        partitions = min(partitions, self.config.default_partition_cap)
        return min(self._jittered(partitions, jitter_key), self.config.max_partitions)

    def _jittered(self, partitions: int, key: str) -> int:
        sigma = self.config.partition_jitter
        if sigma <= 0.0:
            return partitions
        factor = self._job.jitter_cache.get(key)
        if factor is None:
            factor = jitter_factor(self._job.salt, key, sigma)
            self._job.jitter_cache[key] = factor
        return max(1, int(round(partitions * factor)))

    # ------------------------------------------------------------------ #
    # Synthesized logical nodes
    # ------------------------------------------------------------------ #

    @staticmethod
    def _local_aggregate_logical(
        node: LogicalOp, local_tag: str, partitions: int
    ) -> LogicalOp:
        child = node.children[0]
        groups = node.group_count if node.group_count is not None else node.true_card
        local_card = max(1.0, min(child.true_card, groups * partitions))
        return LogicalOp(
            op_type=LogicalOpType.AGGREGATE,
            children=(child,),
            template_tag=local_tag,
            true_card=local_card,
            row_bytes=node.row_bytes,
            normalized_inputs=node.normalized_inputs,
            sel_true=(local_card / child.true_card) if child.true_card > 0 else 1.0,
            keys=node.keys,
            group_count=local_card,
        )


def materialize(node: RNode) -> PhysicalOp:
    """Convert a winning replay tree into a real :class:`PhysicalOp` plan.

    Shared winner subtrees are duplicated into fresh nodes, matching the
    reference planner's memo-hit cloning (physical plans must stay trees).
    """
    children = tuple(materialize(child) for child in node.children)
    return PhysicalOp(
        op_type=node.op_type,
        children=children,
        logical=node.logical,
        partition_count=node.partition_count,
        partitioning=node.partitioning,
        sorting=node.sorting,
        exchange_mode=node.exchange_mode,
        sort_keys=node.sort_keys,
    )


__all__ = [
    "RNode",
    "SkeletonPlanner",
    "SkeletonPlannerStats",
    "TemplateSkeleton",
    "materialize",
    "supports_fast_path",
    "supports_replay",
]
