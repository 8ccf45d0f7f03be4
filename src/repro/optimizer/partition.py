"""Partition exploration and optimization (Sections 5.2-5.3).

The default SCOPE behaviour lets each partitioning operator pick its stage's
partition count from *local* statistics, which is locally optimal but can be
globally wrong (the paper's Figure 8b example: Exchange picks 2 for itself,
16 is best for the stage).  Cleo instead accumulates per-operator cost-vs-
partition information in a **resource context** and lets the partitioning
operator minimize the *stage total*:

* sampling strategies probe the learned models at candidate counts (random /
  uniform / geometric grids);
* the analytical strategy sums each operator's ``(theta_p, theta_c)``
  resource profile and minimizes ``sum(theta_p)/P + sum(theta_c)*P`` in
  closed form — at a small constant number of model lookups per operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.stats import geometric_partition_samples
from repro.core.learned_model import ResourceProfile
from repro.cost.interface import CostModel
from repro.plan.physical import ExchangeMode, PhysOpType, PhysicalOp
from repro.plan.properties import PartitionScheme
from repro.plan.stages import build_stage_graph


@dataclass
class ResourceContext:
    """Accumulates per-operator resource profiles for one stage.

    This is the paper's resource-context abstraction: operators attach their
    learned cost-vs-partition relationship while the stage is being
    optimized; the partitioning operator then reads the aggregate.
    """

    profiles: list[ResourceProfile] = field(default_factory=list)

    def attach(self, profile: ResourceProfile) -> None:
        self.profiles.append(profile)

    @property
    def theta_p(self) -> float:
        return sum(p.theta_p for p in self.profiles)

    @property
    def theta_c(self) -> float:
        return sum(p.theta_c for p in self.profiles)

    @property
    def theta_0(self) -> float:
        return sum(p.theta_0 for p in self.profiles)

    def stage_cost(self, partitions: float) -> float:
        return self.theta_p / partitions + self.theta_c * partitions + self.theta_0

    def optimal_partitions(self, max_partitions: int) -> int:
        """The paper's three-case analysis, via safe candidate evaluation."""
        aggregate = ResourceProfile(self.theta_p, self.theta_c, self.theta_0)
        return aggregate.optimal_partitions(max_partitions)


def default_partition_heuristic(
    op: PhysicalOp,
    estimator: CardinalityEstimator,
    partition_mb: float = 256.0,
    cap: int = 250,
) -> int:
    """SCOPE's default: partitions from local data volume, capped.

    ``ceil(estimated bytes / target partition size)``, clamped to [1, cap].
    """
    rows = estimator.estimate_input(op) if op.children else estimator.estimate(op)
    width = op.children[0].row_bytes if op.children else op.row_bytes
    partitions = int(math.ceil(rows * width / (partition_mb * 1024.0 * 1024.0)))
    return max(1, min(partitions, cap))


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #


@runtime_checkable
class PartitionStrategy(Protocol):
    """Chooses a stage's partition count."""

    name: str

    def choose(
        self,
        stage_ops: list[PhysicalOp],
        cost_model: CostModel,
        estimator: CardinalityEstimator,
        max_partitions: int,
    ) -> int:
        """Return the chosen partition count for the stage."""
        ...


def _stage_cost_at(
    stage_ops: list[PhysicalOp],
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    partitions: int,
) -> float:
    return sum(
        cost_model.operator_cost(op, estimator, partition_override=partitions)
        for op in stage_ops
    )


def _stage_costs_at(
    stages: list[list[PhysicalOp]],
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    candidates: list[list[int]],
) -> list[list[float]]:
    """Each stage's total at each of its candidate counts.

    Learned cost models advertising ``supports_batched_pricing`` price the
    whole ``(stages x candidates x ops)`` grid in one pass
    (:meth:`~repro.core.cost_model.CleoCostModel.price_stage_sweep`),
    bitwise identical to the scalar per-candidate :func:`_stage_cost_at`
    loops this falls back to.
    """
    if getattr(cost_model, "supports_batched_pricing", False):
        return cost_model.price_stage_sweep(stages, estimator, candidates)
    return [
        [_stage_cost_at(ops, cost_model, estimator, p) for p in probes]
        for ops, probes in zip(stages, candidates)
    ]


def _argmin(costs: list[float]) -> int:
    """Index of the first minimum: a cost tie keeps the earlier candidate."""
    return min(range(len(costs)), key=costs.__getitem__)


def _choose_by_sweep(
    strategy: "ExhaustiveStrategy | SamplingStrategy",
    stage_ops: list[PhysicalOp],
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    max_partitions: int,
) -> int:
    """One stage's cheapest candidate, probed one scalar call at a time.

    What non-batched cost models (and the parity oracle) run; batched models
    skip it: :func:`optimize_partitions` prices every stage's candidates as
    one grid and applies the same :func:`_argmin`.
    """
    candidates = strategy.candidates(max_partitions)
    costs = [_stage_cost_at(stage_ops, cost_model, estimator, p) for p in candidates]
    return candidates[_argmin(costs)]


@dataclass
class DefaultHeuristicStrategy:
    """The baseline: local statistics at the partitioning operator only."""

    partition_mb: float = 256.0
    cap: int = 250
    name: str = "heuristic"

    def choose(
        self,
        stage_ops: list[PhysicalOp],
        cost_model: CostModel,
        estimator: CardinalityEstimator,
        max_partitions: int,
    ) -> int:
        partitioning = [op for op in stage_ops if op.is_partitioning]
        anchor = partitioning[0] if partitioning else stage_ops[0]
        return min(
            default_partition_heuristic(anchor, estimator, self.partition_mb, self.cap),
            max_partitions,
        )


@dataclass
class ExhaustiveStrategy:
    """Probe every count in [1, max]; the oracle baseline of Section 6.5."""

    name: str = "exhaustive"

    def candidates(self, max_partitions: int) -> list[int]:
        return list(range(1, max_partitions + 1))

    def choose(
        self,
        stage_ops: list[PhysicalOp],
        cost_model: CostModel,
        estimator: CardinalityEstimator,
        max_partitions: int,
    ) -> int:
        return _choose_by_sweep(self, stage_ops, cost_model, estimator, max_partitions)


@dataclass
class SamplingStrategy:
    """Probe a sampled grid of candidate counts.

    ``scheme`` is one of "geometric" (the paper's ``x_{i+1} = ceil(x_i +
    x_i/s)`` with skip coefficient s), "uniform", or "random"; for the last
    two, ``n_samples`` sets the grid size.
    """

    scheme: str = "geometric"
    skip_coefficient: float = 2.0
    n_samples: int = 16
    seed: int = 0
    name: str = "sampling"

    def __post_init__(self) -> None:
        if self.scheme not in ("geometric", "uniform", "random"):
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")
        self.name = f"sampling-{self.scheme}"

    def candidates(self, max_partitions: int) -> list[int]:
        if self.scheme == "geometric":
            return geometric_partition_samples(max_partitions, self.skip_coefficient)
        if self.scheme == "uniform":
            grid = np.linspace(1, max_partitions, num=min(self.n_samples, max_partitions))
            return sorted({int(round(g)) for g in grid})
        # repro: allow(wallclock-rng) -- the random sampling scheme's seed is an explicit strategy hyperparameter (Section 5.2 ablation knob); candidates must replay across processes, which the raw int seed guarantees
        rng = np.random.default_rng(self.seed)
        picks = rng.integers(1, max_partitions + 1, size=self.n_samples)
        return sorted({1, *map(int, picks)})

    def choose(
        self,
        stage_ops: list[PhysicalOp],
        cost_model: CostModel,
        estimator: CardinalityEstimator,
        max_partitions: int,
    ) -> int:
        return _choose_by_sweep(self, stage_ops, cost_model, estimator, max_partitions)


@dataclass
class AnalyticalStrategy:
    """Closed-form stage optimization from learned resource profiles.

    Requires a :class:`CleoCostModel` (the profiles come from the learned
    models' raw-space coefficients).  Operators without any covering model
    contribute nothing, matching the paper's behaviour of only exploring
    where learned knowledge exists.

    ``trust_region`` bounds how far the analytical optimum may move from the
    stage's current count (a factor in each direction).  The linear theta
    profiles are fitted from the partition counts the logs actually contain;
    far outside that neighbourhood their extrapolation is unreliable, and an
    unbounded jump can trade a small predicted latency win for a large real
    resource blow-up.  ``None`` disables the bound.
    """

    name: str = "analytical"
    trust_region: float | None = 8.0

    def choose(
        self,
        stage_ops: list[PhysicalOp],
        cost_model: CostModel,
        estimator: CardinalityEstimator,
        max_partitions: int,
    ) -> int:
        # Duck-typed on purpose: only Cleo's cost model exposes learned
        # resource profiles (importing it here would cycle core<->optimizer).
        if not hasattr(cost_model, "resource_profiles"):
            raise TypeError(
                "AnalyticalStrategy requires a cost model with resource_profiles()"
                " (CleoCostModel)"
            )
        context = ResourceContext()
        # One call for the whole stage; a batched=False cost model answers it
        # with its retained per-op loop, bitwise identically.
        for profile in cost_model.resource_profiles(stage_ops, estimator):
            if profile is not None:
                context.attach(profile)
        if not context.profiles:
            return stage_ops[0].partition_count  # nothing learned: keep as-is
        current = stage_ops[0].partition_count
        lo, hi = 1, max_partitions
        if self.trust_region is not None:
            lo = max(1, int(current / self.trust_region))
            hi = min(max_partitions, max(int(current * self.trust_region), lo))
        chosen = context.optimal_partitions(max_partitions)
        chosen = min(max(chosen, lo), hi)
        # Within the clamped range, re-check the boundary candidates.  The
        # candidates are sorted so a stage-cost tie always resolves to the
        # smallest partition count — never to set iteration order.
        return min(sorted({lo, chosen, hi}), key=context.stage_cost)


# --------------------------------------------------------------------- #
# Plan-level partition optimization
# --------------------------------------------------------------------- #


def _stage_is_fixed(operators) -> bool:
    """True when a stage's operators pin its partition count (singleton/gather).

    This is step 2 of Figure 8a: when a partition count comes as a required
    property from upstream operators, no exploration happens.  Written over
    any iterable of plan nodes (a ``Stage.operators``, or the root stage the
    search collects off a candidate before a stage graph exists).
    """
    for op in operators:
        if op.op_type is PhysOpType.EXCHANGE and op.exchange_mode is ExchangeMode.GATHER:
            return True
        if op.partitioning.scheme is PartitionScheme.SINGLETON:
            return True
    return False


def optimize_partitions(
    plan: PhysicalOp,
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    strategy: PartitionStrategy,
    max_partitions: int = 3000,
    guard: bool = True,
) -> PhysicalOp:
    """Re-optimize every stage's partition count in a finished plan.

    Explores every non-fixed stage of the stage graph and rebuilds the plan
    with the new counts.  For a cost model with ``supports_batched_pricing``
    and a strategy that probes a candidate list (``candidates``: exhaustive,
    sampling), the plan's whole exploration is two columnar P-grids — one
    ``price_stage_sweep`` call for every stage's candidates, one for every
    stage's guard probes; otherwise each stage asks ``strategy.choose``.
    Stages formed by co-partitioned joins share one count by construction
    (their exchanges live in the same stage), preserving co-partitioning.

    With ``guard`` enabled, a stage keeps its current count unless the cost
    model itself predicts the new count is cheaper — one of the paper's
    regression-avoidance techniques (Section 6.7): never act on a learned
    suggestion the learned costs do not endorse.
    """
    graph = build_stage_graph(plan)
    stages = graph.topological_order()
    chosen = {stage.index: stage.partition_count for stage in stages}
    # Stages never read each other's choice (every probe prices the original
    # ``stage.operators``), so the whole plan is explored at once.
    explore = [stage for stage in stages if not _stage_is_fixed(stage.operators)]
    candidates = getattr(strategy, "candidates", None)
    if (
        explore
        and candidates is not None
        and getattr(cost_model, "supports_batched_pricing", False)
    ):
        grid = candidates(max_partitions)
        totals = cost_model.price_stage_sweep(
            [stage.operators for stage in explore], estimator, [grid] * len(explore)
        )
        picks = [grid[_argmin(costs)] for costs in totals]
    else:
        picks = [
            strategy.choose(stage.operators, cost_model, estimator, max_partitions)
            for stage in explore
        ]
    moves = [
        (stage, pick)
        for stage, pick in zip(explore, picks)
        if pick != stage.partition_count
    ]
    if guard and moves:
        # Every stage's (current, new) probe pair, one pass for learned models.
        probes = _stage_costs_at(
            [stage.operators for stage, _ in moves],
            cost_model,
            estimator,
            [[stage.partition_count, pick] for stage, pick in moves],
        )
        moves = [
            move for move, (current, new) in zip(moves, probes) if not new >= current
        ]
    for stage, pick in moves:
        chosen[stage.index] = pick

    rebuilt: dict[int, PhysicalOp] = {}

    def rebuild(op: PhysicalOp) -> PhysicalOp:
        # Memoized by node id: plans with shared subexpressions (DAG-shaped
        # caller input) keep each shared subtree as ONE rebuilt object —
        # un-memoized recursion duplicated it per consumer, splitting the
        # ``id(op)``-keyed stage identity and going exponential on deep
        # sharing.
        done = rebuilt.get(id(op))
        if done is not None:
            return done
        new_children = tuple(rebuild(child) for child in op.children)
        stage_idx = graph.stage_of[id(op)]
        new_count = chosen[stage_idx]
        if new_children == op.children and new_count == op.partition_count:
            result = op
        else:
            result = PhysicalOp(
                op_type=op.op_type,
                children=new_children,
                logical=op.logical,
                partition_count=new_count,
                partitioning=op.partitioning,
                sorting=op.sorting,
                exchange_mode=op.exchange_mode,
                sort_keys=op.sort_keys,
            )
        rebuilt[id(op)] = result
        return result

    return rebuild(plan)


def expected_lookups(
    n_operators: int,
    strategy_name: str,
    max_partitions: int = 3000,
    skip_coefficient: float = 2.0,
    models_per_lookup: int = 5,
) -> int:
    """Analytic model-lookup counts behind Figure 8(c).

    Exhaustive probes every count; geometric sampling probes
    ``log_{(s+1)/s}(Pmax)`` counts; the analytical approach reads each
    operator's models once.
    """
    if strategy_name == "exhaustive":
        return models_per_lookup * n_operators * max_partitions
    if strategy_name.startswith("sampling"):
        ratio = (skip_coefficient + 1.0) / skip_coefficient
        n_samples = int(math.ceil(math.log(max_partitions, ratio))) + 1
        return models_per_lookup * n_operators * n_samples
    if strategy_name == "analytical":
        return models_per_lookup * n_operators
    if strategy_name == "heuristic":
        return 0
    raise ValueError(f"unknown strategy {strategy_name!r}")
