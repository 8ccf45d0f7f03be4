"""Cleo as an optimizer-facing cost model: the one pricing surface.

Implements the same protocol as the default cost model, so retrofitting it
into the planner is a drop-in replacement of the cost call in Optimize
Inputs (step 10 of Figure 8a) — the paper's "minimally invasive" goal.

The serving tier (:class:`~repro.serving.service.CleoService`, or a
:class:`~repro.serving.shard.router.ClusterClient` bound to a sharded
fleet) prices *rows* — signature-bearing
:class:`~repro.features.table.FeatureTable` s — and knows nothing about
operators.  This class turns live operators into rows with
:func:`~repro.features.extract.operator_table` (one table per call,
:func:`~repro.features.extract.operator_row` +
:func:`~repro.plan.signatures.signed`, both O(1) reads of the operator's own
:class:`~repro.plan.summary.SubtreeSummary`; no per-row object), and a
plan's costs fold to a total in :func:`~repro.serving.service.plan_totals`'s
order (here, or where partition exploration reads the total off its grid);
every entry point calls the row primitives directly, so the call chain is
``CleoCostModel`` -> row tier -> packed bank whichever backend serves.  The
row tier has no scalar twin: :meth:`CleoCostModel.operator_cost` is a
one-row ``predict_inputs`` call, and :meth:`CleoCostModel.explain` names the
tier behind that one-row price (so through a router it walks the ladder).

Beyond the one-operator :class:`~repro.cost.interface.CostModel` protocol,
this adapter advertises **batched planning pricing**
(``supports_batched_pricing`` plus :meth:`CleoCostModel.price_operators` /
:meth:`CleoCostModel.price_stage_sweep`): the planner prices whole candidate
frontiers, and partition exploration prices a whole wave of plans — every
stage's sweep, the guard's probes and the rows the plan totals read — as one
P-grid, through the packed serving runtime in a constant number of numpy
passes — bitwise identical values and per-prediction lookup accounting to an
``operator_cost`` loop.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

# Bound as a module, not by name: ``serving.service`` imports ``repro.core``,
# whose package init imports this file, so names resolve at call time.
import repro.serving.service as serving
from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import FeatureValidationError
from repro.core.learned_model import ResourceProfile
from repro.core.predictor import CleoPredictor, explain_cost
from repro.cost.interface import CostExplanation
from repro.features.extract import operator_table
from repro.features.table import FeatureTable
from repro.plan.physical import PhysicalOp
from repro.plan.signatures import signed


class CleoCostModel:
    """Prices operators with the learned models, through the serving layer.

    Args:
        predictor: a trained :class:`CleoPredictor`, or a
            :class:`~repro.serving.service.CleoService` to adopt.
        service: explicit row tier to price through (overrides the wrapping
            behaviour; used by ``CleoService.cost_model`` and
            ``ClusterClient.cost_model``).

    A bare predictor is wrapped in a service with the prediction cache
    *disabled*, so optimizer experiments keep their exact per-prediction
    model-lookup accounting; pass a service to share its caches instead.
    Lookups are charged where the rows are priced, so read them there: on
    the predictor behind a bare service (``predictor.lookup_count``), or
    ``router.lookup_count`` for a sharded fleet, whose shards charge their
    own predictor views.

    ``batched=False`` is the reference *schedule*: no deferral, no grid, one
    ``operator_cost`` round-trip (a one-row batch) per costed candidate.
    Such a model is opaque to the skeleton replay, so ``QueryPlanner`` plans
    it on the independent ``PhysicalOp`` search — the oracle the parity
    suite and the bench compare the fast path against.
    """

    def __init__(self, predictor, service=None, batched: bool = True) -> None:
        if service is None:
            if isinstance(predictor, serving.CleoService):
                service = predictor
            else:
                service = serving.CleoService(predictor, prediction_cache_size=0)
        self.service = service
        self.batched = bool(batched)

    @property
    def supports_batched_pricing(self) -> bool:
        """Capability flag the planner and partition strategies duck-type on."""
        return self.batched

    @property
    def supports_replay_costing(self) -> bool:
        """The skeleton replay can price for this model: it batches.

        The replay packs its rows straight from its cached per-node
        statistics (``repro.optimizer.skeleton``) and prices its deferred
        ledger through :meth:`price_inputs` / :meth:`price_plans`, bitwise
        identical to the full ``QueryPlanner`` search.  The reference
        schedule (``batched=False``) stays off it.
        """
        return self.batched

    @property
    def predictor(self) -> CleoPredictor:
        """The served predictor."""
        return self.service.predictor

    def operator_cost(
        self,
        op: PhysicalOp,
        estimator: CardinalityEstimator,
        partition_override: int | None = None,
    ) -> float:
        table = operator_table([op], estimator, partition_override)
        return float(self.service.predict_inputs(table)[0])

    def plan_cost(self, root: PhysicalOp, estimator: CardinalityEstimator) -> float:
        """Total plan cost: one batched call, folded in walk order."""
        return serving.price_plan(self.service, root, estimator)

    def price_operators(
        self, ops: Sequence[PhysicalOp], estimator: CardinalityEstimator
    ) -> np.ndarray:
        """Exclusive costs of several live operators, one batched call.

        The planner's frontier-pricing entry: bitwise identical values to a
        per-op :meth:`operator_cost` loop, with the same per-prediction
        lookup and fallback accounting (see
        :meth:`~repro.serving.service.CleoService.predict_inputs`).
        """
        return self.service.predict_inputs(operator_table(ops, estimator))

    def price_inputs(self, table: FeatureTable) -> np.ndarray:
        """Exclusive costs of already-featurized operators, one batched call.

        The skeleton replay's frontier-flush hook: same values and
        per-prediction lookup accounting as :meth:`price_operators`, minus
        the :class:`PhysicalOp` featurization (the replay packs ``table``
        from its cached per-node statistics).
        """
        return self.service.predict_inputs(table)

    def price_plans(self, table: FeatureTable, lengths: Sequence[int]) -> list[float]:
        """Total costs of several plans, one packed pass.

        ``table`` concatenates every plan's operators in walk order;
        ``lengths`` delimits the plans.  Each total is reduced with the
        exact left-fold order :meth:`plan_cost` uses, so fleet replanning
        reports costs bitwise identical to a per-plan loop.
        """
        if sum(lengths) != len(table):
            raise FeatureValidationError("lengths must partition the table's rows")
        values = self.service.predict_inputs(table)
        return serving.plan_totals(values, lengths)

    def price_stage_sweep(
        self,
        stages: Sequence[Sequence[PhysicalOp]],
        estimator: CardinalityEstimator,
        candidates: Sequence[Sequence[int]],
    ) -> list[list[list[float]]]:
        """Every stage operator's cost at each of its stage's candidate
        counts, one pass: ``out[i][j][k]`` prices ``stages[i][k]`` at
        ``candidates[i][j]`` partitions.

        Replaces partition exploration's per-candidate ``operator_cost(op,
        partition_override=p)`` loops with a P-grid: every stage operator is
        featurized once (its *stem* row: only ``P`` varies across a sweep),
        the stems are tiled over the candidates, the ``P`` column is written,
        and the whole ``(stages x candidates x ops)`` grid is priced through
        the columnar ``predict_table`` entry — boundary validation,
        quarantine-and-repair and the router's guard ladder included.  The
        values are the per-candidate loop's bit for bit, and the caller
        (:func:`repro.optimizer.partition.explore_partitions`) reads stage
        totals, the regression guard and the plan total off this one answer,
        so a sweep's rows are probed once and never again.

        Grid rows therefore skip the prediction LRU (``predict_table``'s
        contract), and lookup accounting is the paper's analytic ``5 x ops x
        candidates`` whether or not the service caches.
        """
        ops = [op for stage in stages for op in stage]
        stems = operator_table(ops, estimator)
        rows: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        offset = 0
        for stage, probes in zip(stages, candidates):
            stage_rows = np.arange(offset, offset + len(stage))
            rows.append(np.tile(stage_rows, len(probes)))
            counts.append(np.repeat(np.asarray(probes, dtype=float), len(stage)))
            offset += len(stage)
        grid = stems.take(np.concatenate(rows)).with_partition_count(
            np.concatenate(counts)
        )
        values = iter(self.service.predict_table(grid).tolist())
        return [
            [list(islice(values, len(stage))) for _ in probes]
            for stage, probes in zip(stages, candidates)
        ]

    def explain(
        self, op: PhysicalOp, estimator: CardinalityEstimator
    ) -> CostExplanation:
        """:meth:`operator_cost` plus the model tier that answered it."""
        cost = self.operator_cost(op, estimator)
        return explain_cost(self.predictor, signed(op).bundle, cost)

    def resource_profiles(
        self, ops: Sequence[PhysicalOp], estimator: CardinalityEstimator
    ) -> list[ResourceProfile | None]:
        """(theta_p, theta_c, theta_0) per operator, for partition
        exploration's analytical strategy, in one packed pass."""
        return self.service.resource_profiles(operator_table(ops, estimator))

    def clear_cache(self) -> None:
        self.service.clear_caches()
