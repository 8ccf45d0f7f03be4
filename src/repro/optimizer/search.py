"""The Cascades search, written once: one rule set, one resumable driver.

A top-down Optimize-Inputs loop: required properties (partitioning, sort
order) flow down, delivered properties flow up, Exchange/Sort enforcers
reconcile the two, and every candidate operator is priced through ``_cost``
(step 10 of the paper's Figure 8a is that one call).  Alternatives explored
per logical operator:

* joins: hash join (either build side, via commutativity) and merge join;
* aggregates: hash vs stream aggregate, plus local-aggregate pre-reduction
  (the plan shape behind the paper's Q17 discussion);
* filters/projections: requirement push-down vs enforcement above (shuffle
  raw vs shuffle reduced data).

:class:`CascadesSearch` holds every rule — ``_optimize``, ``_implementations``,
the ``_impl_*`` family, ``_enforce``, ``_exchange_for``, partition alignment
and the root-stage rebuild, the volume heuristic, allocation jitter, the
synthesized local aggregate — written against the six attributes the rules
read on a plan node (``op_type``, ``children``, ``partition_count``,
``partitioning``, ``sorting``, ``exchange_mode``).  A *configuration*
subclasses it and supplies only what genuinely differs:

* node construction — ``_mk`` / ``_with_partitions``;
* where estimates come from — ``_heuristic_partitions(node)`` and whatever
  ``_mk`` caches on the node;
* costing — ``_cost(node)`` and ``_price(nodes)``, the ledger flush call;
* where a template's static search data comes from — ``_skeleton``.

:class:`~repro.optimizer.planner.QueryPlanner` (frozen ``PhysicalOp`` nodes,
the estimator, ``operator_cost`` / ``price_operators``, a fresh skeleton per
call) and :class:`~repro.optimizer.skeleton.SkeletonPlanner` (slotted
``RNode``s, primed per-index estimates, stats / packed pricing, a
skeleton cached per ``(template_id, day)``) are the two configurations.
Candidate order, tie-breaks and floating-point expression order exist here
and nowhere else, so the two cannot disagree on them.

**Deferred costing.**  When ``_deferred`` is set, ``_cost`` is
:meth:`CascadesSearch._cost_deferred`: nodes are appended to the search's
pending ledger and the call returns a :class:`_DeferredCost` expression
recording the exact float arithmetic the scalar search would have executed.
A frame with a single candidate keeps the expression unresolved (its parent
frontier prices it); a frame that must compare candidates suspends, the
driver prices every pending row in one ``_price`` call, and the expressions
are resolved by replaying their recorded arithmetic, each node once per
search (it keeps its value).  Rows still pending when a search finishes
(stragglers) are read by no comparison: dropped unpriced, counted in
``_rows_unread``.  Plan choices and costs are bitwise identical to scalar
costing; cache-off scalar lookups are deferred lookups plus five per unread
row (``tests/optimizer/test_batched_planning.py``).

**One resumable search.**  A frame (``_optimize``) is a generator; the rules
are plain functions of its child frames' winners.  A frame starts all its
child frames and suspends once for all of them, so a search suspends once per
level of its critical path (a frame's level: its deepest child's, plus one if
it compares candidates), not once per comparing frame.  Each job's state lives
in one :class:`_Search`, so any number can be open at once;
:meth:`CascadesSearch._search`, the only driver, advances every open search
to its next suspension, prices the pending rows of those still open in one
call and repeats — as many calls as the deepest job has levels, whatever the
fleet.  Pricing a row early is exact: predictions are batch-invariant, ledger
indices are assigned when ``_cost`` runs.  Scalar costing never suspends.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice

from repro.common.errors import OptimizationError
from repro.common.hashing import stable_unit_float
from repro.cost.interface import plan_cost
from repro.optimizer.partition import _stage_is_fixed, explore_partitions
from repro.plan.logical import LogicalOp, LogicalOpType
from repro.plan.physical import PARTITIONING_OPS, ExchangeMode, PhysOpType, PhysicalOp
from repro.plan.properties import Partitioning, PartitionScheme, SortOrder

_ANY = Partitioning.any()
_NO_SORT = SortOrder.none()
_RANDOM = Partitioning.random()
_SINGLETON = Partitioning.singleton()


@dataclass
class PlannedJob:
    """Result of one optimization: the plan plus planning telemetry."""

    plan: PhysicalOp
    estimated_cost: float
    optimize_seconds: float
    candidates_considered: int = 0


class _DeferredCost:
    """A cost expression awaiting batched pricing.

    Leaves index into the search's priced-value ledger (one entry per
    deferred node, in ``_cost`` call order); interior nodes record the
    ``+``/``-`` arithmetic the scalar search would have executed, with the
    operand order preserved by the reflected operators.  Resolving after
    the batch therefore replays bit-identical floating point: deferred
    costing can never flip a cost tie scalar costing would not flip.
    ``value`` is the resolved cost, once :func:`_resolve_cost` reached it.
    """

    __slots__ = ("kind", "a", "b", "value")

    LEAF = 0
    ADD = 1
    SUB = 2

    def __init__(self, kind: int, a, b=None) -> None:
        self.kind = kind
        self.a = a
        self.b = b
        self.value = None

    def __add__(self, other):
        return _DeferredCost(_DeferredCost.ADD, self, other)

    def __radd__(self, other):
        return _DeferredCost(_DeferredCost.ADD, other, self)

    def __sub__(self, other):
        return _DeferredCost(_DeferredCost.SUB, self, other)

    def __rsub__(self, other):
        return _DeferredCost(_DeferredCost.SUB, other, self)


def _resolve_cost(cost, priced: list[float]) -> float:
    """Evaluate a (possibly deferred) cost against the priced ledger.

    Iterative post-order walk with an explicit stack: wide frontiers (a
    union of thousands of branches accumulating ``cost += ...``) build
    expressions deeper than the interpreter recursion limit.  Resolved nodes
    keep their value, so a subexpression shared within one expression or
    across the frames comparing it (ledger entries never change once priced)
    is evaluated once; the arithmetic per node is a recursive evaluation's.
    """
    if cost.__class__ is not _DeferredCost:
        return cost
    stack = [cost]
    while stack:
        node = stack.pop()
        if node.value is not None:
            continue
        if node.kind == _DeferredCost.LEAF:
            node.value = priced[node.a]
            continue
        a, b = node.a, node.b
        pending = [x for x in (b, a) if x.__class__ is _DeferredCost and x.value is None]
        if pending:
            stack.append(node)
            stack += pending
            continue
        a = a.value if a.__class__ is _DeferredCost else a
        b = b.value if b.__class__ is _DeferredCost else b
        node.value = a + b if node.kind == _DeferredCost.ADD else a - b
    return cost.value


def jitter_factor(salt: str, key: str, sigma: float) -> float:
    """The deterministic log-normal allocation-jitter multiplier."""
    u = stable_unit_float("partition-jitter", salt, key)
    v = stable_unit_float("partition-jitter-v", salt, key)
    z = math.sqrt(-2.0 * math.log(max(u, 1e-12))) * math.cos(2.0 * math.pi * v)
    return math.exp(sigma * z)


def materialize(node) -> PhysicalOp:
    """A fresh :class:`PhysicalOp` tree from a winning search node.

    The search shares memoized winners between the frames that reuse them
    (a logical DAG such as TPC-H Q17's lineitem branch, or one subplan
    winning under two requirements); physical plans must be trees — the
    stage graph and simulator count each operator once — so every
    occurrence of a shared subtree becomes its own nodes here.  Each takes
    over the winner's :class:`~repro.plan.summary.SubtreeSummary`
    (signatures included) and a ``PhysicalOp`` winner's estimate: pure
    functions of the shared subtree, so later reads stay O(1).
    """
    op = PhysicalOp(
        node.op_type,
        tuple(materialize(child) for child in node.children),
        node.logical,
        node.partition_count,
        node.partitioning,
        node.sorting,
        node.exchange_mode,
        node.sort_keys,
    )
    if node.__class__ is PhysicalOp:
        object.__setattr__(op, "_summary", node._summary)
        object.__setattr__(op, "_estimate", node._estimate)
    else:
        object.__setattr__(op, "_summary", getattr(node, "summary", None))
    return op


class SkelNode:
    """Static per-logical-node search data, shared by a template's jobs."""

    __slots__ = (
        "children",
        "op_type",
        "keys",
        "inputs",
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


def _bind_logical(root: LogicalOp) -> list[LogicalOp]:
    """A job's distinct logical nodes, post-order (the skeleton positions).

    Nodes are indexed by identity: a subexpression shared by several parents
    gets one position, hence one memo entry per requirement.
    """
    bound: list[LogicalOp] = []
    _bind(root, set(), bound)
    return bound


def _bind(logical: LogicalOp, seen: set[int], bound: list[LogicalOp]) -> None:
    """:func:`_bind_logical`'s post-order walk (module level: a recursive
    closure would be a reference cycle)."""
    if id(logical) in seen:
        return
    for child in logical.children:
        _bind(child, seen, bound)
    seen.add(id(logical))
    bound.append(logical)


def _build_skeleton(bound: list[LogicalOp], config) -> list[SkelNode]:
    """Extract the static search data of one bound logical plan.

    Requirement properties are interned by value, module constants included:
    ``_optimize`` keys its memo on their identity.  ``inputs`` are the child
    frames ``(index, req_part, req_sort)`` a node's rule reads, in its order.
    """
    index_of = {id(logical): index for index, logical in enumerate(bound)}
    interned = {prop: prop for prop in (_ANY, _NO_SORT, _RANDOM, _SINGLETON)}

    def intern(prop):
        return interned.setdefault(prop, prop)

    nodes: list[SkelNode] = []
    for logical in bound:
        sn = SkelNode()
        sn.children = tuple(index_of[id(child)] for child in logical.children)
        sn.op_type = kind = logical.op_type
        sn.keys = logical.keys
        # Filters and projections add the push-down of the frame's requirement.
        inputs = [(child, _ANY, _NO_SORT) for child in sn.children]
        if kind is LogicalOpType.JOIN:
            left_key, right_key = logical.keys
            left, right = sn.children
            sn.hash_left = intern(Partitioning.hash(left_key))
            sn.hash_right = intern(Partitioning.hash(right_key))
            sn.sort_left = intern(SortOrder.on(left_key))
            sn.sort_right = intern(SortOrder.on(right_key))
            # Both build sides (commutativity) read the same two hash frames.
            inputs = [(left, sn.hash_left, _NO_SORT), (right, sn.hash_right, _NO_SORT)]
            if config.enable_merge_join:
                inputs.append((left, sn.hash_left, sn.sort_left))
                inputs.append((right, sn.hash_right, sn.sort_right))
        elif kind is LogicalOpType.AGGREGATE:
            keys = logical.keys
            sn.final_req = intern(Partitioning.hash(*keys)) if keys else _SINGLETON
            sn.sort_req = intern(SortOrder.on(*keys))
            sn.local_tag = f"{logical.template_tag}#local"
            (child,) = sn.children
            inputs = [(child, sn.final_req, _NO_SORT)]  # hash, stream, local
            if keys and config.enable_stream_aggregate:
                inputs.append((child, sn.final_req, sn.sort_req))
            if config.enable_local_aggregate:
                inputs.append((child, _ANY, _NO_SORT))
        elif kind in (LogicalOpType.SORT, LogicalOpType.TOP_K):
            sn.sort_order = intern(SortOrder.on(*logical.keys))
            inputs = [(sn.children[0], _SINGLETON, _NO_SORT)]
        sn.inputs = tuple(inputs)
        nodes.append(sn)
    return nodes


def _flatten(section: list, out: list[int]) -> list[int]:
    """The ints of a nested choice-key section (``_optimize``), in order."""
    for item in section:
        if item.__class__ is list:
            _flatten(item, out)
        else:
            out.append(item)
    return out


class _Search:
    """One job's live search: everything the rules mutate, in one object.

    The planner points at the search it is advancing
    (``CascadesSearch._job``), so switching jobs is one pointer swap and any
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
        self.memo: dict[tuple[int, int, int], tuple | None] = {}  # None: in search
        self.choices: list = []
        self.pending: list = []
        self.priced: list[float] = []
        self.primed: list[float] = []  # per-index estimates, if the config primes
        self.candidates_considered = 0
        self.run = None
        self.win = None


class CascadesSearch:
    """The rule set and its driver; see the module docstring for the plug points.

    Configurations provide ``_mk``, ``_with_partitions``,
    ``_heuristic_partitions``, ``_cost``, ``_price`` and ``_skeleton``, and
    set ``_deferred`` when ``_cost`` is :meth:`_cost_deferred`.
    """

    #: Most searches :meth:`_search` keeps open at once.  Each open search
    #: pins its memo of subplans (~30 KiB), so this bounds the planner's
    #: footprint whatever the fleet size; past it, finished searches are
    #: replaced as they retire, which costs a few extra pricing waves.
    _LIVE_SEARCH_LIMIT = 64

    def __init__(self, cost_model, estimator, config) -> None:
        self.cost_model = cost_model
        self.estimator = estimator
        self.config = config
        self._mb_bytes = config.exchange_partition_mb * 1024 * 1024
        self._deferred = False
        #: Ledger rows dropped unpriced when their search finished.
        self._rows_unread = 0
        # The search being advanced (see _Search); swapped by _advance.
        self._job: _Search | None = None

    # ------------------------------------------------------------------ #
    # The driver: open, advance to a suspension, price, repeat
    # ------------------------------------------------------------------ #

    def _plan_all(self, requests) -> tuple[list[_Search], list[PlannedJob]]:
        """Search and finalize every request: the one place a
        :class:`PlannedJob` is stamped.

        ``optimize_seconds`` is the call's wall time split evenly over its
        jobs: every pricing wave and the plan-total finale are shared by the
        whole batch, so per-job time is not individually attributable.
        """
        start = time.perf_counter()
        searches = self._search(requests)
        finals = self._finalize([search.win for search in searches])
        share = (time.perf_counter() - start) / len(searches)
        return searches, [
            PlannedJob(plan, total, share, search.candidates_considered)
            for (plan, total), search in zip(finals, searches)
        ]

    def _search(self, requests) -> list[_Search]:
        """Search every ``(template_id, day, logical_root, jitter_salt)``
        request to its winner; the finished searches align with the input.

        Each wave advances every open search to its next suspension and prices
        the still-open ones' pending ledger rows in ONE ``_price`` call, so the
        number of pricing calls is the deepest job's flush depth, not a
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
            # Only live searches flush (``_advance`` drops stragglers).
            self._flush(live)
            if not live and len(fresh) < room:  # nothing open, nothing left
                return opened

    def _open(
        self, template_id: str, day: int, logical_root: LogicalOp, jitter_salt: str
    ) -> _Search:
        """Bind one job instance to its template's static search data."""
        bound = _bind_logical(logical_root)
        job = _Search(self._skeleton(template_id, day, bound), bound, jitter_salt)
        job.run = self._optimize(len(bound) - 1, _ANY, _NO_SORT, job.choices)
        return job

    def _advance(self, job: _Search) -> bool:
        """Run ``job`` to its next suspension; False once its winner is known."""
        self._job = job
        try:
            next(job.run)
        except StopIteration as done:
            job.win = done.value[0]
            job.choices = _flatten(job.choices, [])
            # Only the winner and the choice key outlive the search (the memo
            # pins every frame's subplan); pending rows are stragglers.
            self._rows_unread += len(job.pending)
            job.pending.clear()
            job.run = job.memo = job.jitter_cache = job.primed = None
            return False
        return True

    def _flush(self, jobs: list[_Search]) -> None:
        """Price every pending ledger row of ``jobs`` in one ``_price`` call."""
        nodes = [node for job in jobs for node in job.pending]
        if not nodes:
            return
        values = self._price(nodes)
        offset = 0
        for job in jobs:
            count = len(job.pending)
            job.priced.extend(map(float, values[offset : offset + count]))
            job.pending.clear()
            offset += count

    def _finalize(self, wins: list) -> list[tuple[PhysicalOp, float]]:
        """Per winner: the materialized plan and its total cost.

        With a partition strategy configured (Section 5.2's exploration, run
        over the chosen plans' stage graphs) both come out of
        :func:`~repro.optimizer.partition.explore_partitions` — one pricing
        grid per ``_LIVE_SEARCH_LIMIT`` winners, which bounds the grid a
        fleet can allocate (~220 rows a job under geometric sampling)."""
        strategy = self.config.partition_strategy
        plans = [materialize(win) for win in wins]
        if strategy is None:
            return [
                (plan, plan_cost(self.cost_model, plan, self.estimator)) for plan in plans
            ]
        out = []
        for at in range(0, len(plans), self._LIVE_SEARCH_LIMIT):
            out += explore_partitions(
                plans[at : at + self._LIVE_SEARCH_LIMIT],
                self.cost_model,
                self.estimator,
                strategy,
                self.config.max_partitions,
            )
        return out

    def _cost_deferred(self, node) -> _DeferredCost:
        """``_cost`` under batched pricing: a ledger row, priced at a flush."""
        job = self._job
        index = len(job.priced) + len(job.pending)
        job.pending.append(node)
        return _DeferredCost(_DeferredCost.LEAF, index)

    # ------------------------------------------------------------------ #
    # Core recursion
    # ------------------------------------------------------------------ #

    def _optimize(
        self, index: int, req_part: Partitioning, req_sort: SortOrder, parent: list
    ):
        """One search frame, as a generator returning ``(node, cost)``.

        A bare ``yield`` is a suspension: "this job's pending ledger must be
        priced before the search can go on".  A frame starts all its child
        frames before it suspends, once for all of them, and resumes them
        together; it suspends once more to compare its candidates, and waits
        while a frame it needs is open in a sibling.  Whoever drives the
        generator (:meth:`_search`) flushes and resumes.
        """
        # Requirement objects are interned (module constants + the skeleton's
        # precomputed properties), so identity keys are equivalent to value
        # keys — and skip frozen-dataclass hashing.
        job = self._job
        key = (index, id(req_part), id(req_sort))
        cached = job.memo.get(key, False)
        if cached is not False:
            # Winners are shared between the frames that reuse them;
            # `materialize` gives every occurrence its own nodes at the end.
            while cached is None:  # a sibling frame is still searching it
                yield
                cached = job.memo[key]
            return cached
        job.memo[key] = None
        # Its section of the choice key: inside its first caller's, in call order.
        parent.append(choices := [])
        sn = job.nodes[index]
        relaxed = req_part is _ANY and req_sort is _NO_SORT
        inputs = sn.inputs
        if not relaxed and sn.op_type in (LogicalOpType.FILTER, LogicalOpType.PROJECT):
            # Push-down first, relaxed second: ties go to the first-seen
            # candidate, so the ORDER is part of the plan (a set would iterate
            # in salted-hash order and plans would vary with PYTHONHASHSEED).
            inputs = [(sn.children[0], req_part, req_sort), *inputs]
        if len(inputs) < 2 or not self._deferred:  # one child, or no suspensions
            found = []
            for request in inputs:
                found.append((yield from self._optimize(*request, choices)))
        else:
            frames = [self._optimize(*request, choices) for request in inputs]
            while frames:
                # `next` is None from a suspended frame, the default from a finished one.
                frames = [frame for frame in frames if next(frame, frame) is None]
                if frames:
                    yield
            found = [job.memo[child, id(part), id(sort)] for child, part, sort in inputs]
        candidates = self._implementations(index, found, choices)
        if not candidates:
            raise OptimizationError(
                f"no implementation for {job.bound[index].op_type.value} under "
                f"{req_part.describe()}/{req_sort.describe()}"
            )
        job.candidates_considered += len(candidates)
        # Enforcement is a no-op under (ANY, unsorted): every delivered
        # partitioning satisfies ANY and every sort satisfies "none".
        if not relaxed:
            for ordinal, candidate in enumerate(candidates):
                candidates[ordinal] = self._enforce(candidate, req_part, req_sort)
        if self._deferred and len(candidates) > 1:
            # A lone candidate keeps its cost expression unresolved (the
            # parent frontier prices it); a genuine comparison has the ledger
            # priced and resolves each expression with _resolve_cost's
            # bit-exact arithmetic replay.
            yield
            priced = job.priced
            candidates = [(op, _resolve_cost(cost, priced)) for op, cost in candidates]
        # Cost ties go to the first-seen candidate (strict ``<``).
        best = candidates[0]
        best_ordinal = 0
        for ordinal in range(1, len(candidates)):
            if candidates[ordinal][1] < best[1]:
                best = candidates[ordinal]
                best_ordinal = ordinal
        # The choice key (SkeletonPlanner.last_choice_key): candidate
        # *existence* can vary per job (alignment failures), so it records how
        # many candidates were in play as well (packed with the winner
        # ordinal; counts are single-digit).
        choices.append(best_ordinal * 16 + len(candidates))
        job.memo[key] = best
        return best

    def _implementations(self, index: int, found: list, choices: list) -> list:
        """The candidates of one frame, from its child frames' winners."""
        kind = self._job.nodes[index].op_type
        if kind is LogicalOpType.GET:
            return self._impl_get(index)
        if kind in (LogicalOpType.FILTER, LogicalOpType.PROJECT):
            return self._impl_passthrough(index, found)
        if kind is LogicalOpType.PROCESS:
            return self._impl_process(index, found)
        if kind is LogicalOpType.JOIN:
            return self._impl_join(index, found, choices)
        if kind is LogicalOpType.AGGREGATE:
            return self._impl_aggregate(index, found)
        if kind is LogicalOpType.SORT:
            return self._impl_ordered(index, PhysOpType.SORT, found)
        if kind is LogicalOpType.TOP_K:
            return self._impl_ordered(index, PhysOpType.TOP_K, found)
        if kind is LogicalOpType.UNION:
            return self._impl_union(index, found)
        if kind is LogicalOpType.OUTPUT:
            return self._impl_output(index, found)
        raise OptimizationError(f"unsupported logical operator {kind}")

    # ------------------------------------------------------------------ #
    # Per-operator implementations
    # ------------------------------------------------------------------ #

    def _impl_get(self, index: int) -> list[tuple[object, float]]:
        logical = self._job.bound[index]
        partitions = self._heuristic_partitions_for_volume(
            logical.true_card, logical.row_bytes, logical.template_tag
        )
        op = self._mk(
            PhysOpType.EXTRACT, (), logical, partitions, _RANDOM, index=index
        )
        return [(op, self._cost(op))]

    def _impl_passthrough(self, index: int, found: list):
        """Filter/Project: one candidate per child frame — the requirement
        pushed down, or the relaxed child with the requirement enforced above."""
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        phys_type = (
            PhysOpType.FILTER
            if sn.op_type is LogicalOpType.FILTER
            else PhysOpType.COMPUTE
        )
        out: list[tuple[object, float]] = []
        for child_node, child_cost in found:
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

    def _impl_process(self, index: int, found: list):
        """UDF: order/partitioning guarantees do not survive custom code."""
        job = self._job
        ((child_node, child_cost),) = found
        op = self._mk(
            PhysOpType.PROCESS,
            (child_node,),
            job.bound[index],
            child_node.partition_count,
            _RANDOM,
            index=index,
        )
        return [(op, child_cost + self._cost(op))]

    def _impl_join(self, index: int, found: list, choices: list):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        hash_left, hash_right, *merge = found
        sides = [(hash_left, hash_right, sn.hash_left)]
        if self.config.enable_join_commute:
            sides.append((hash_right, hash_left, sn.hash_right))

        # Candidate existence here is *numeric* (partition alignment can fail
        # on one side only), so the join contributes an existence mask to the
        # choice key — winner ordinals alone would be ambiguous.
        mask = 0
        out: list[tuple[object, float]] = []
        for side, (probe_cand, build_cand, probe_req) in enumerate(sides):
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

        if merge:
            aligned = self._align_partitions(merge)
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
        choices.append(mask)
        return out

    def _impl_aggregate(self, index: int, found: list):
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        keys = logical.keys
        final_req = sn.final_req
        delivered = final_req if keys else _SINGLETON
        found = iter(found)
        out: list[tuple[object, float]] = []

        # (a) Hash aggregate directly on repartitioned input.
        child_node, child_cost = next(found)
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
            sorted_node, sorted_cost = next(found)
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
            any_node, any_cost = next(found)
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

    def _impl_ordered(self, index: int, phys_type: PhysOpType, found: list):
        """Sort / top-k: one globally ordered partition."""
        job = self._job
        sn = job.nodes[index]
        logical = job.bound[index]
        ((child_node, child_cost),) = found
        op = self._mk(
            phys_type,
            (child_node,),
            logical,
            1,
            _SINGLETON,
            sn.sort_order,
            sort_keys=logical.keys,
            index=index,
        )
        return [(op, child_cost + self._cost(op))]

    def _impl_union(self, index: int, found: list):
        logical = self._job.bound[index]
        # All inputs rebalanced to a common width (a union barrier).
        target = max(
            self._heuristic_partitions_for_volume(
                child.true_card, child.row_bytes, logical.template_tag
            )
            for child in logical.children
        )
        exchanged = []
        cost = 0.0
        for child_node, child_cost in found:
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

    def _impl_output(self, index: int, found: list):
        job = self._job
        ((child_node, child_cost),) = found
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
    # Enforcers and alignment
    # ------------------------------------------------------------------ #

    def _enforce(self, candidate, req_part: Partitioning, req_sort: SortOrder):
        """Insert Exchange/Sort on top until the requirement is satisfied."""
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

    def _exchange_for(self, child, req_part: Partitioning):
        """Build the Exchange enforcer that delivers ``req_part``."""
        if req_part.scheme is PartitionScheme.SINGLETON:
            mode, partitions, delivered = ExchangeMode.GATHER, 1, _SINGLETON
        elif req_part.scheme is PartitionScheme.HASH:
            mode = ExchangeMode.HASH
            partitions = self._heuristic_partitions(child)
            delivered = req_part
        else:  # RANDOM or ANY-after-failure: rebalance round-robin
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

    def _align_partitions(self, candidates: list) -> list | None:
        """Make co-partitioned join inputs agree on a partition count.

        The larger count wins; the other side's root stage is rebuilt with
        the new count when possible.  Returns None when alignment fails
        (both sides pinned to different fixed counts).
        """
        counts = [node.partition_count for node, _ in candidates]
        target = max(counts)
        out = []
        for candidate in candidates:
            if candidate[0].partition_count == target:
                out.append(candidate)
                continue
            adjusted = self._with_root_stage_partitions(candidate, target)
            if adjusted is None:
                return None
            out.append(adjusted)
        return out

    def _with_root_stage_partitions(self, candidate, new_count: int):
        """Rebuild the candidate's root stage at ``new_count`` partitions."""
        root, cost = candidate
        # The root stage, pre-order: down to (and including) the
        # partitioning operators that start it.
        stage_ops: list = []
        pending = [root]
        while pending:
            op = pending.pop()
            stage_ops.append(op)
            if op.op_type not in PARTITIONING_OPS:
                pending.extend(reversed(op.children))
        if _stage_is_fixed(stage_ops):
            return None
        delta = [0.0]
        new_root = self._rebuild_stage(
            root, {id(op) for op in stage_ops}, new_count, delta
        )
        return (new_root, cost + delta[0])

    def _rebuild_stage(self, op, in_stage: set[int], new_count: int, delta: list):
        """``op`` with its root-stage operators (``in_stage``) rebuilt at
        ``new_count`` partitions, post-order; ``delta[0]`` accumulates the
        cost change in that order."""
        if id(op) not in in_stage:
            return op
        new_children = tuple(
            self._rebuild_stage(child, in_stage, new_count, delta)
            for child in op.children
        )
        replaced = self._with_partitions(op, new_count, new_children)
        delta[0] += self._cost(replaced) - self._cost(op)
        return replaced

    # ------------------------------------------------------------------ #
    # Partition heuristics and jitter
    # ------------------------------------------------------------------ #

    def _heuristic_partitions_for_volume(
        self, rows: float, row_bytes: float, jitter_key: str
    ) -> int:
        partitions = int(max(1, rows * row_bytes // self._mb_bytes + 1))
        partitions = min(partitions, self.config.default_partition_cap)
        return min(self._jittered(partitions, jitter_key), self.config.max_partitions)

    def _jittered(self, partitions: int, key: str) -> int:
        """Deterministic allocation wobble around the heuristic choice."""
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
        """Synthesize the logical node of a partial (per-partition) aggregate.

        Each partition emits at most ``group_count`` groups, so the local
        output is ``min(input, group_count * partitions)`` — a big win when
        groups are few, pure overhead when they are near-distinct (the
        paper's Q17 regression case).
        """
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
            # The estimator reads group_count as "output groups of this
            # node"; for a per-partition aggregate that is groups*partitions.
            group_count=local_card,
        )
