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
  resource profile (:func:`stage_profile`, the resource context) and
  minimizes ``sum(theta_p)/P + sum(theta_c)*P`` in closed form — at a small
  constant number of model lookups per operator.

Exploration is one pass per wave of finished plans
(:func:`explore_partitions`): ONE strategy call
(:meth:`PartitionStrategy.stage_counts`) names the counts to price for every
explorable stage of the wave — the analytical strategy reading every
operator's profile in one ``resource_profiles`` call — then ONE grid prices
them, and every stage's pick, the regression guard and each plan's total
cost are read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import is_
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.stats import geometric_partition_samples
from repro.core.learned_model import ResourceProfile
from repro.cost.interface import CostModel
from repro.plan.physical import ExchangeMode, PhysOpType, PhysicalOp
from repro.plan.properties import PartitionScheme
from repro.plan.stages import build_stage_graph


def stage_profile(profiles: Iterable[ResourceProfile | None]) -> ResourceProfile | None:
    """The paper's resource context: a stage's covered operator profiles
    summed, in operator order, into one aggregate ``ResourceProfile`` whose
    ``cost_at(P)`` is the stage cost and ``optimal_partitions`` the
    three-case analysis; ``None`` when no operator is covered."""
    covered = [profile for profile in profiles if profile is not None]
    if not covered:
        return None
    return ResourceProfile(
        sum(p.theta_p for p in covered),
        sum(p.theta_c for p in covered),
        sum(p.theta_0 for p in covered),
    )


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
    """Names the partition counts exploration prices for a wave's stages.

    :meth:`stage_counts` is the one pass: given every explorable stage of a
    wave (each its operators), it returns per stage the counts to price — a
    sweep's whole candidate grid, or a one-count pick.
    :func:`explore_partitions` prices them all in one grid and takes each
    stage's first minimum.  Every strategy here also has ``choose(stage_ops,
    cost_model, estimator, max_partitions) -> int``, the one-stage use of the
    same pass (a sweep prices its one stage's grid; a pick prices nothing),
    for callers that want a single stage's count.
    """

    name: str

    def stage_counts(
        self,
        stages: list[list[PhysicalOp]],
        cost_model: CostModel,
        estimator: CardinalityEstimator,
        max_partitions: int,
    ) -> list[list[int]]:
        """Per stage, the partition counts to price (in probe order)."""
        ...


def _price_grid(
    stages: list[list[PhysicalOp]],
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    candidates: list[list[int]],
) -> list[list[list[float]]]:
    """The one grid pricer: ``out[i][j][k]`` prices ``stages[i][k]`` at
    ``candidates[i][j]`` partitions — in one columnar pass where the model
    advertises ``supports_batched_pricing``
    (:meth:`~repro.core.cost_model.CleoCostModel.price_stage_sweep`), else one
    ``operator_cost`` call per row: the same values, the same lookups.
    """
    if getattr(cost_model, "supports_batched_pricing", False):
        return cost_model.price_stage_sweep(stages, estimator, candidates)
    return [
        [
            [cost_model.operator_cost(op, estimator, partition_override=p) for op in ops]
            for p in probes
        ]
        for ops, probes in zip(stages, candidates)
    ]


def _stage_total(values: list[float]) -> float:
    """A stage's cost: the int-0 left fold of its operators' costs, the
    order (and the bits) of a scalar ``sum`` over the stage."""
    total = 0
    for value in values:
        total = total + value
    return total


def _argmin(costs: list[float]) -> int:
    """Index of the first minimum: a cost tie keeps the earlier candidate."""
    return min(range(len(costs)), key=costs.__getitem__)


# The strategy methods below take PartitionStrategy's (annotated) arguments.


def _sweep_counts(strategy, stages, cost_model, estimator, max_partitions) -> list[list[int]]:
    """``stage_counts`` of the sweeping strategies: every stage probes the
    strategy's one candidate grid."""
    return [strategy.candidates(max_partitions)] * len(stages)


def _choose_by_sweep(strategy, stage_ops, cost_model, estimator, max_partitions) -> int:
    """``choose`` of the sweeping strategies: one stage's cheapest candidate
    (:func:`explore_partitions` reads the same pick off its wave-wide grid)."""
    (candidates,) = strategy.stage_counts([stage_ops], cost_model, estimator, max_partitions)
    (costs,) = _price_grid([stage_ops], cost_model, estimator, [candidates])
    return candidates[_argmin([_stage_total(values) for values in costs])]


def _choose_pick(strategy, stage_ops, cost_model, estimator, max_partitions) -> int:
    """``choose`` of the strategies that name one count per stage: the
    one-stage ``stage_counts``, nothing priced."""
    ((count,),) = strategy.stage_counts([stage_ops], cost_model, estimator, max_partitions)
    return count


@dataclass
class DefaultHeuristicStrategy:
    """The baseline: local statistics at the partitioning operator only."""

    partition_mb: float = 256.0
    cap: int = 250
    name: str = "heuristic"

    def stage_counts(self, stages, cost_model, estimator, max_partitions) -> list[list[int]]:
        counts = []
        for stage_ops in stages:
            anchor = next((op for op in stage_ops if op.is_partitioning), stage_ops[0])
            local = default_partition_heuristic(anchor, estimator, self.partition_mb, self.cap)
            counts.append([min(local, max_partitions)])
        return counts

    choose = _choose_pick


@dataclass
class ExhaustiveStrategy:
    """Probe every count in [1, max]; the oracle baseline of Section 6.5."""

    name: str = "exhaustive"

    def candidates(self, max_partitions: int) -> list[int]:
        return list(range(1, max_partitions + 1))

    stage_counts = _sweep_counts
    choose = _choose_by_sweep


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

    stage_counts = _sweep_counts
    choose = _choose_by_sweep


@dataclass
class AnalyticalStrategy:
    """Closed-form stage optimization from learned resource profiles.

    Requires a :class:`CleoCostModel` (the profiles come from the learned
    models' raw-space coefficients).  Operators without any covering model
    contribute nothing, matching the paper's behaviour of only exploring
    where learned knowledge exists; a stage with none keeps its count.

    ``trust_region`` bounds how far the analytical optimum may move from the
    stage's current count (a factor in each direction).  The linear theta
    profiles are fitted from the partition counts the logs actually contain;
    far outside that neighbourhood their extrapolation is unreliable, and an
    unbounded jump can trade a small predicted latency win for a large real
    resource blow-up.  ``None`` disables the bound.
    """

    name: str = "analytical"
    trust_region: float | None = 8.0

    def stage_counts(self, stages, cost_model, estimator, max_partitions) -> list[list[int]]:
        # Duck-typed on purpose: only Cleo's cost model exposes learned
        # resource profiles (importing it here would cycle core<->optimizer).
        if not hasattr(cost_model, "resource_profiles"):
            raise TypeError(
                "AnalyticalStrategy requires a cost model with resource_profiles()"
                " (CleoCostModel)"
            )
        # One call for the whole wave, whatever the cost model's schedule;
        # each stage reads its own operators' run of the answer.
        wave = [op for stage_ops in stages for op in stage_ops]
        profiles = iter(cost_model.resource_profiles(wave, estimator))
        return [
            [self._pick(islice(profiles, len(ops)), ops[0].partition_count, max_partitions)]
            for ops in stages
        ]

    def _pick(self, profiles, current: int, max_partitions: int) -> int:
        """One stage's count from its operators' ``profiles``: the aggregate's
        closed-form optimum, clamped to the trust region around ``current``."""
        aggregate = stage_profile(profiles)
        if aggregate is None:
            return current  # nothing learned: keep as-is
        lo, hi = 1, max_partitions
        if self.trust_region is not None:
            lo = max(1, int(current / self.trust_region))
            hi = min(max_partitions, max(int(current * self.trust_region), lo))
        chosen = min(max(aggregate.optimal_partitions(max_partitions), lo), hi)
        # Within the clamped range, re-check the boundary candidates.  The
        # candidates are sorted so a stage-cost tie always resolves to the
        # smallest partition count — never to set iteration order.
        return min(sorted({lo, chosen, hi}), key=aggregate.cost_at)

    choose = _choose_pick


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


def _explore(
    plans: list[PhysicalOp],
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    strategy: PartitionStrategy,
    max_partitions: int,
    guard: bool,
) -> dict[int, tuple[int, float]]:
    """:func:`explore_partitions` up to its decisions: ``id(op) -> (final
    partition count, the operator's cost at it)`` for the whole wave."""
    stages = [stage for plan in plans for stage in build_stage_graph(plan).stages]
    fixed = [_stage_is_fixed(stage.operators) for stage in stages]
    explore = [stage.operators for stage, pinned in zip(stages, fixed) if not pinned]
    # One strategy call names every explorable stage's counts; a wave with
    # none makes no call at all.
    named = iter(
        strategy.stage_counts(explore, cost_model, estimator, max_partitions) if explore else ()
    )
    probes: list[list[int]] = []
    picks: list[int] = []  # how many of a stage's probes are candidates
    for stage, pinned in zip(stages, fixed):
        current = stage.partition_count
        counts = [current] if pinned else next(named)
        picks.append(len(counts))
        probes.append(counts + [current] if guard and current not in counts else counts)
    operators = [stage.operators for stage in stages]
    priced = zip(stages, probes, picks, _price_grid(operators, cost_model, estimator, probes))
    final: dict[int, tuple[int, float]] = {}
    for stage, counts, n_picks, values in priced:
        totals = [_stage_total(stage_values) for stage_values in values]
        best = _argmin(totals[:n_picks])
        if guard and counts[best] != stage.partition_count:
            current = counts.index(stage.partition_count)
            if totals[best] >= totals[current]:
                best = current
        for op, value in zip(stage.operators, values[best]):
            final[id(op)] = (counts[best], value)
    return final


def explore_partitions(
    plans: list[PhysicalOp],
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    strategy: PartitionStrategy,
    max_partitions: int = 3000,
    guard: bool = True,
) -> list[tuple[PhysicalOp, float]]:
    """Re-optimize every stage's partition count in a wave of finished plans:
    per plan, the rebuilt plan and its total cost, from ONE pricing grid.

    The grid (:func:`_price_grid`) holds, per stage of every plan's stage
    graph, the counts a decision can read: a fixed stage's current count; an
    explorable stage's candidates — what the strategy's one
    :meth:`~PartitionStrategy.stage_counts` call over the wave names for it, a
    sweep's grid or a one-count pick — plus, last, the current count where
    the guard will compare against it and the candidates lack it.
    A stage's pick is the first minimum over its candidates' totals, and a
    plan's total is the ``0.0 + v`` left fold, in walk order, of each
    operator's value at its stage's final count — bit for bit ``plan_cost`` of
    the rebuilt plan, since a partition count touches no feature but ``P``.
    Stages never read each other's choice (every row prices the original
    operators), and stages formed by co-partitioned joins share one count by
    construction (their exchanges live in the same stage).

    With ``guard`` enabled, a stage keeps its current count unless the cost
    model itself predicts the new count is cheaper — one of the paper's
    regression-avoidance techniques (Section 6.7): never act on a learned
    suggestion the learned costs do not endorse.
    """
    final = _explore(plans, cost_model, estimator, strategy, max_partitions, guard)
    out = []
    for plan in plans:
        total = 0.0
        for op in plan.walk():
            total = total + final[id(op)][1]
        out.append((_rebuild_counts(plan, final, {}), float(total)))
    return out


def optimize_partitions(
    plan: PhysicalOp,
    cost_model: CostModel,
    estimator: CardinalityEstimator,
    strategy: PartitionStrategy,
    max_partitions: int = 3000,
    guard: bool = True,
) -> PhysicalOp:
    """:func:`explore_partitions` of one plan, minus the total: the same
    grid is priced, but nothing walks the plan (DAG-shaped caller input
    stays linear)."""
    final = _explore([plan], cost_model, estimator, strategy, max_partitions, guard)
    return _rebuild_counts(plan, final, {})


def _rebuild_counts(
    op: PhysicalOp,
    final: dict[int, tuple[int, float]],
    rebuilt: dict[int, PhysicalOp],
) -> PhysicalOp:
    """``op`` with every operator below it at ``final[id(op)][0]``
    partitions (module level: a recursive closure would be a reference
    cycle)."""
    # Memoized by node id: a subtree shared by several parents (DAG-shaped
    # caller input) stays ONE rebuilt object, visited once.
    done = rebuilt.get(id(op))
    if done is not None:
        return done
    children = tuple(_rebuild_counts(child, final, rebuilt) for child in op.children)
    count = final[id(op)][0]
    # A rebuilt child is a new object exactly when something below it
    # changed, so children compare by identity: ``==`` on the frozen
    # dataclass would re-compare each ancestor's whole subtree.
    if count == op.partition_count and all(map(is_, children, op.children)):
        result = op
    else:
        result = PhysicalOp(
            op.op_type,
            children,
            op.logical,
            count,
            op.partitioning,
            op.sorting,
            op.exchange_mode,
            op.sort_keys,
        )
    rebuilt[id(op)] = result
    return result


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
