"""``QueryPlanner``: one compile, under any cost model and estimator.

Whenever :func:`~repro.optimizer.skeleton.supports_replay` holds (the stock
estimator with the default, tuned or batching learned models: every product
caller), ``plan`` runs the skeleton replay, its skeleton built per call.
Otherwise it runs this module's configuration of
:mod:`repro.optimizer.search`: frozen :class:`PhysicalOp` candidates,
estimates from the :class:`CardinalityEstimator` it is given, each candidate
priced with ``cost_model.operator_cost(op, estimator)`` — anything
duck-typed with that one method.  That makes it the construction an opaque
cost model or an estimator subclass can be served by, and the reference the
replay is pinned against, sharing no planner path with it: the reference
schedule ``CleoCostModel(batched=False)`` is such an opaque model (tests also
reach it with an estimator subclass).

What it overrides: ``_mk`` / ``_with_partitions`` (a ``PhysicalOp`` per
candidate, which carries its own estimate and takes it along when dropped),
``_heuristic_partitions`` (:func:`default_partition_heuristic` over the
estimator), ``_cost`` / ``_price`` (``operator_cost``; under a model that
advertises ``supports_batched_pricing``, the deferred ledger flushed through
``price_operators``), and ``_skeleton`` (built per call, never cached).
Winners are shared between frames during the search and cloned into a tree
once, at the end; the plan total then goes through the model's ``plan_cost``
or, with a partition strategy, comes off the one grid that re-optimizes every
stage's partition count (:func:`~repro.optimizer.partition.explore_partitions`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cardinality.estimator import CardinalityEstimator
from repro.cost.interface import CostModel
from repro.optimizer.partition import PartitionStrategy, default_partition_heuristic
from repro.optimizer.search import (  # PlannedJob, _resolve_cost: re-exported
    _NO_SORT,
    CascadesSearch,
    PlannedJob,
    _build_skeleton,
    _DeferredCost,
    _resolve_cost,  # noqa: F401
)
from repro.plan.logical import LogicalOp
from repro.plan.physical import PhysicalOp


@dataclass(frozen=True)
class PlannerConfig:
    """Planner knobs.

    ``default_partition_cap`` mirrors SCOPE's habit of capping the local
    heuristic at a few hundred partitions, while ``max_partitions`` is the
    cluster-wide bound that partition *exploration* may use (the paper probes
    up to 3000, a virtual cluster's machine allocation).
    """

    max_partitions: int = 3000
    exchange_partition_mb: float = 256.0
    default_partition_cap: int = 250
    enable_merge_join: bool = True
    enable_stream_aggregate: bool = True
    enable_local_aggregate: bool = True
    enable_join_commute: bool = True
    partition_strategy: PartitionStrategy | None = None
    #: Log-space sigma of deterministic allocation jitter applied to the
    #: default partition heuristic.  Production allocations wobble with queue
    #: pressure and token availability; that historical variation is what
    #: gives the learned models within-template partition-count signal.
    partition_jitter: float = 0.0


class QueryPlanner(CascadesSearch):
    """Optimizes logical plans under a cost model, through the replay where it can."""

    def __init__(
        self,
        cost_model: CostModel,
        estimator: CardinalityEstimator,
        config: PlannerConfig | None = None,
    ) -> None:
        super().__init__(cost_model, estimator, config or PlannerConfig())
        #: Callers (e.g. the workload runner) vary this per job so allocation
        #: jitter differs across jobs while staying reproducible.
        self.jitter_salt: str = ""
        # Imported here: skeleton imports this module.
        from repro.optimizer.skeleton import _CompileReplay, supports_replay
        replay = supports_replay(cost_model, estimator)
        self._replay = _CompileReplay(cost_model, estimator, self.config) if replay else None

    def plan(self, logical_root: LogicalOp) -> PlannedJob:
        """Optimize one logical plan end to end."""
        if self._replay is not None:
            return self._replay.replan_job("", 0, logical_root, self.jitter_salt)
        self._deferred = bool(
            getattr(self.cost_model, "supports_batched_pricing", False)
        )
        (planned,) = self._plan_all([("", 0, logical_root, self.jitter_salt)])
        return planned

    # ------------------------------------------------------------------ #
    # What this configuration supplies to the search core
    # ------------------------------------------------------------------ #

    def _skeleton(self, template_id, day, bound):
        return _build_skeleton(bound, self.config)

    def _mk(
        self,
        op_type,
        children,
        logical,
        partition_count,
        partitioning,
        sorting=_NO_SORT,
        exchange_mode=None,
        sort_keys=(),
        index=-1,
    ) -> PhysicalOp:
        return PhysicalOp(
            op_type,
            children,
            logical,
            partition_count,
            partitioning,
            sorting,
            exchange_mode,
            sort_keys,
        )

    def _with_partitions(self, op: PhysicalOp, partition_count: int, children):
        return self._mk(
            op.op_type,
            children,
            op.logical,
            partition_count,
            op.partitioning,
            op.sorting,
            op.exchange_mode,
            op.sort_keys,
        )

    def _heuristic_partitions(self, op: PhysicalOp) -> int:
        base = default_partition_heuristic(
            op,
            self.estimator,
            partition_mb=self.config.exchange_partition_mb,
            cap=self.config.default_partition_cap,
        )
        return min(
            self._jittered(base, op.template_tag),
            self.config.max_partitions,
        )

    def _cost(self, op: PhysicalOp) -> "float | _DeferredCost":
        if self._deferred:
            return self._cost_deferred(op)
        return self.cost_model.operator_cost(op, self.estimator)

    def _price(self, ops: list[PhysicalOp]):
        return self.cost_model.price_operators(ops, self.estimator)
