"""``CleoService``: the serving façade over trained cost models.

The paper's production story (Section 5.1) is that trained models are
*served*: loaded upfront into a signature-keyed map and consulted millions
of times per optimization pass.  This module is that serving layer — one
object that owns training, persistence, and the hot prediction path.

The service prices **rows** — request batches, or signature-bearing
:class:`~repro.features.table.FeatureTable` s — and never sees an operator:
turning plans into rows is :class:`~repro.core.cost_model.CleoCostModel`'s
job.  A single price is a one-row :meth:`CleoService.predict_inputs` call
(:meth:`CleoService.explain` names the tier behind it), and the one
whole-plan request, :meth:`CleoService.predict_plan`, is :func:`price_plan`
(the plan as one table through the cached core).

* **Packed inference** — every entry point ends in one pass over the
  store's compiled :class:`~repro.core.packed.PackedModelBank`: one
  ``np.searchsorted`` resolves all four signature columns, one gather +
  row multiply-sum prices every covered ``(row, kind)`` pair, and the
  combined model's trees traverse as one flat ensemble.  Every regressor
  reduces per row, so every path is *bitwise identical* to one-row
  prediction.
* **Prediction cache** — a bounded LRU keyed by each row's 104 bytes
  (:meth:`~repro.features.table.FeatureTable.row_keys`) turns recurring
  rows into O(1) hits, with one locked probe and one locked insert per
  batch.  The pricing cores (:func:`_cached_core`, :func:`_table_core`,
  :func:`_profile_core`) take *owners* — ``(service, row indices)`` over
  one batch — and price the union of their rows in one bank pass, each
  owner keeping its own LRU, accounting and repair: a service calls them
  with itself, the sharded router with every owning shard.  Every owner
  writes straight into one answer in input order; an owner whose rows all
  hit makes one probe and one charge and nothing else.  An LRU serves
  only entries priced against the store's current ``version``, so a
  quarantine empties every LRU sharing the store.
* **Construction and persistence** — :meth:`train` / :meth:`load` /
  :meth:`save` wrap the trainer and the JSON model-file format.  Versions
  (publish, promote, roll back) belong to
  :class:`~repro.core.lifecycle.LifecycleManager` and its
  :class:`~repro.core.lifecycle.ModelRegistry`; a service serves one
  predictor for life.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import FeatureValidationError
from repro.core.combined import build_meta_matrix, covered_tiers, meta_matrix_and_calls
from repro.core.config import SPECIFICITY_ORDER, CleoConfig
from repro.core.packed import predict_most_specific, resource_profiles_most_specific
from repro.core.learned_model import _MAX_PREDICT_SECONDS, ResourceProfile
from repro.core.model_store import ModelStore
from repro.core.predictor import CleoPredictor, explain_cost
from repro.core.regression_control import ModelQuarantine
from repro.core.trainer import CleoTrainer
from repro.cost.interface import CostExplanation, CostModel
from repro.execution.runtime_log import OperatorRecord, RunLog
from repro.features.extract import operator_table
from repro.features.featurizer import COLUMN_NAMES, FeatureInput
from repro.features.table import FeatureTable
from repro.plan.physical import PhysicalOp
from repro.plan.signatures import SignatureBundle
from repro.serving.cache import CacheStats, LRUCache

#: Default prediction-cache capacity: comfortably holds a few optimization
#: passes of a production-shaped recurring workload.
DEFAULT_PREDICTION_CACHE = 65_536

#: The answer of last resort when even the repair path (or, in the sharded
#: router, the heuristic floor) produced garbage.
_BOUNDED_DEFAULT_COST = 1.0

#: Serializes quarantine-and-reprice across services sharing a store: a
#: ``ModelStore.remove`` while another thread walks the model dicts (packed
#: bank recompilation) would mutate them mid-iteration.
_REPAIR_LOCK = threading.Lock()


def _serveable(values: np.ndarray) -> np.ndarray:
    """Which predictions are serveable: finite and non-negative."""
    return np.isfinite(values) & (values >= 0.0)


def plan_totals(values: np.ndarray, lengths: Sequence[int]) -> list[float]:
    """Per-plan totals of concatenated operator costs: *the* plan fold.

    Each total is the left fold of its operators' costs in walk order — the
    order a sequential ``operator_cost`` loop sums in — so pricing one plan,
    many plans or a whole wave in one batch never moves a bit of a total.
    """
    totals: list[float] = []
    offset = 0
    for n in lengths:
        total = 0.0
        for value in values[offset : offset + n]:
            total = total + float(value)
        totals.append(total)
        offset += n
    return totals


def _require_signatures(table: FeatureTable) -> None:
    """Pricing keys rows by their signatures: a bare-feature table is the
    caller's bug."""
    if not table.has_signatures:
        raise FeatureValidationError("pricing requires a table with signature columns")


def values_ok(values: np.ndarray) -> bool:
    """Every prediction of a batch serveable (an empty batch is).

    Two reductions, not four: ``min`` propagates NaN and catches negatives
    and ``-inf``; ``max`` catches ``+inf``.
    """
    return not values.size or bool(values.min() >= 0.0 and values.max() < math.inf)


@dataclass(frozen=True, slots=True)
class PredictionRequest:
    """One operator to price: its compile-time features and signatures."""

    features: FeatureInput
    signatures: SignatureBundle
    #: The row key, once computed (see :attr:`key`).
    _key: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_record(cls, record: OperatorRecord) -> "PredictionRequest":
        """Request for a logged operator (its compile-time view)."""
        return cls(features=record.features, signatures=record.signatures)

    @property
    def key(self) -> bytes:
        """The prediction-cache key: this row's
        :meth:`~repro.features.table.FeatureTable.row_keys` bytes.

        Computed once per request and kept, so every later probe — a replay
        of a recurring job included — reuses it; :func:`request_keys` keys a
        whole batch in one table pass.
        """
        if self._key is None:
            request_keys([self])
        return self._key


def request_keys(requests: Sequence[PredictionRequest]) -> list[bytes]:
    """Every request's :attr:`~PredictionRequest.key`, in order; the requests
    not keyed yet are keyed together, as the rows of one table."""
    fresh = [request for request in requests if request._key is None]
    if fresh:
        table = FeatureTable.from_inputs(
            [request.features for request in fresh],
            [request.signatures for request in fresh],
        )
        for request, key in zip(fresh, table.row_keys()):
            object.__setattr__(request, "_key", key)
    return [request._key for request in requests]


def _request_rows(
    requests: Sequence[PredictionRequest],
) -> Callable[[list[int]], FeatureTable]:
    """The rows of some of ``requests``, packed on demand (cache misses)."""
    return lambda positions: FeatureTable.from_inputs(
        [requests[i].features for i in positions],
        [requests[i].signatures for i in positions],
    )


def _table_rows(table: FeatureTable) -> Callable[[list[int]], FeatureTable]:
    """The rows of ``table`` at some positions: the table itself when they
    are all of its rows in order, else one gather."""
    n = len(table)
    return lambda positions: (
        table
        if len(positions) == n and positions == list(range(n))
        else table.take(positions)
    )


def price_plan(tier, root: PhysicalOp, estimator: CardinalityEstimator) -> float:
    """A plan's total: the one ``predict_plan`` / ``plan_cost`` body.

    The serving package's only featurization site: the plan's operators
    become one table in walk order, priced by ``tier.predict_inputs`` (so a
    plan is charged what the same rows are as a table), and
    :func:`plan_totals` folds the answers.
    """
    table = operator_table(list(root.walk()), estimator)
    return plan_totals(tier.predict_inputs(table), [len(table)])[0]


@dataclass(frozen=True)
class ServiceStats:
    """Serving counters since construction (or the last ``reset_stats``).

    ``individual_model_calls`` counts vectorized individual-model
    invocations — exactly one per covering ``(kind, signature)`` group per
    batch — and ``combined_model_calls`` counts meta-ensemble matrix calls
    (at most one per batch).  A one-row price is a batch like any other.
    """

    predictions: int
    batches: int
    cache: CacheStats
    individual_model_calls: int
    combined_model_calls: int
    fallback_predictions: int
    #: Batch requests answered by deduplication against an identical request
    #: in the *same* batch (computed once, reused without a cache entry).
    in_batch_reuses: int
    #: Ring-successor retries the sharded router issued (router-level).
    retries: int = 0
    #: Circuit-breaker CLOSED -> OPEN transitions across the fleet.
    breaker_opens: int = 0
    #: Requests answered below the learned tier: the router's heuristic /
    #: bounded-default floor, or the service's quarantine-and-reprice path.
    degraded_predictions: int = 0
    #: Models removed by boundary output validation (the bank recompiles).
    quarantined_models: int = 0
    #: Requests the router hedged to a ring successor under a latency SLO.
    hedged_requests: int = 0

    @property
    def model_calls(self) -> int:
        """All vectorized model invocations (individual + combined)."""
        return self.individual_model_calls + self.combined_model_calls

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    @classmethod
    def aggregate(cls, parts: "Iterable[ServiceStats]") -> "ServiceStats":
        """Counter-wise sum across services (the sharded tier's merged view)."""
        parts = list(parts)
        return cls(
            predictions=sum(p.predictions for p in parts),
            batches=sum(p.batches for p in parts),
            cache=CacheStats.aggregate(p.cache for p in parts),
            individual_model_calls=sum(p.individual_model_calls for p in parts),
            combined_model_calls=sum(p.combined_model_calls for p in parts),
            fallback_predictions=sum(p.fallback_predictions for p in parts),
            in_batch_reuses=sum(p.in_batch_reuses for p in parts),
            retries=sum(p.retries for p in parts),
            breaker_opens=sum(p.breaker_opens for p in parts),
            degraded_predictions=sum(p.degraded_predictions for p in parts),
            quarantined_models=sum(p.quarantined_models for p in parts),
            hedged_requests=sum(p.hedged_requests for p in parts),
        )

    def describe(self) -> str:
        text = (
            f"{self.predictions} predictions "
            f"({self.batches} batches), "
            f"cache {self.cache.hits}/{self.cache.requests} hits "
            f"({100.0 * self.cache.hit_rate:.1f}%) "
            f"+ {self.in_batch_reuses} in-batch reuses, "
            f"{self.individual_model_calls} individual + "
            f"{self.combined_model_calls} combined vectorized model calls, "
            f"{self.fallback_predictions} global fallbacks"
        )
        if self.retries or self.breaker_opens or self.degraded_predictions:
            text += (
                f"; reliability: {self.retries} retries, "
                f"{self.breaker_opens} breaker opens, "
                f"{self.degraded_predictions} degraded"
            )
        if self.hedged_requests:
            text += f", {self.hedged_requests} hedged"
        if self.quarantined_models:
            text += f", {self.quarantined_models} models quarantined"
        return text


class CleoService:
    """The public serving API for training, loading, and querying models.

    Args:
        predictor: the trained models to serve.
        prediction_cache_size: LRU capacity of the (features, signatures)
            prediction cache; ``0`` disables caching (every request is
            computed, preserving exact model-lookup accounting).
        validate_inputs: reject requests carrying non-finite feature values
            with :class:`~repro.common.errors.FeatureValidationError`
            instead of pricing garbage.
        validate_outputs: check every prediction leaving the service for
            non-finite / negative values; offenders trigger the
            quarantine-and-reprice repair path.
    """

    def __init__(
        self,
        predictor: CleoPredictor,
        prediction_cache_size: int = DEFAULT_PREDICTION_CACHE,
        validate_inputs: bool = True,
        validate_outputs: bool = True,
    ) -> None:
        self._prediction_cache = LRUCache(prediction_cache_size)
        self._predictor = predictor
        #: ``store.version`` the LRU's entries were priced against.
        self._cache_version = predictor.store.version
        self._validate_inputs = bool(validate_inputs)
        self._validate_outputs = bool(validate_outputs)
        self._model_quarantine = ModelQuarantine()
        # Guards every serving counter (including the predictor's
        # lookup_count, whose `+=` is a read-modify-write): the sharded tier
        # fans batches across threads, and torn increments would corrupt the
        # aggregated ServiceStats.  Never held across model computation.
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._predictions = 0
        self._individual_calls = 0
        self._combined_calls = 0
        self._fallbacks = 0
        self._batch_reuses = 0
        self._degraded = 0
        self._quarantined = 0

    @property
    def predictor(self) -> CleoPredictor:
        """The served models."""
        return self._predictor

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def train(
        cls,
        log: RunLog,
        config: CleoConfig | None = None,
        individual_days: list[int] | None = None,
        combined_days: list[int] | None = None,
        **service_kwargs,
    ) -> "CleoService":
        """Train Cleo on a run log and return a ready service.

        Day splits default to the trainer's "all but last / last" cadence.
        """
        predictor = CleoTrainer(config).train(
            log, individual_days=individual_days, combined_days=combined_days
        )
        return cls(predictor, **service_kwargs)

    @classmethod
    def load(
        cls, path: str | Path, config: CleoConfig | None = None, **service_kwargs
    ) -> "CleoService":
        """Load a service from a model file written by :meth:`save`."""
        from repro.core.serialization import load_predictor

        return cls(load_predictor(path, config), **service_kwargs)

    @classmethod
    def ensure(cls, predictor: "CleoService | CleoPredictor", **kwargs) -> "CleoService":
        """Adopt an existing service, or wrap a bare predictor in one."""
        if isinstance(predictor, cls):
            return predictor
        return cls(predictor, **kwargs)

    def save(self, path: str | Path) -> None:
        """Serialize the served models to a JSON model file."""
        from repro.core.serialization import save_predictor

        save_predictor(self.predictor, path)

    # ------------------------------------------------------------------ #
    # Resource profiles (Section 5.3)
    # ------------------------------------------------------------------ #

    def resource_profiles(self, table: FeatureTable) -> list[ResourceProfile | None]:
        """Batched Section-5.3 resource profiles, via the packed bank: the
        most specific covering model's ``(theta_p, theta_c, theta_0)`` per
        row, else ``None``.  The rows pass the input check first; then five
        lookups are charged per covered profile."""
        _require_signatures(table)
        return _profile_core([(self, range(len(table)))], table)

    def _charge_lookups(self, rows: int) -> None:
        """Charge ``rows`` rows of lookup accounting (five lookups each)."""
        with self._stats_lock:
            self.predictor.lookup_count += rows * CleoPredictor.LOOKUPS_PER_PREDICTION

    # ------------------------------------------------------------------ #
    # Batched prediction
    # ------------------------------------------------------------------ #

    def predict_batch(self, requests: Sequence[PredictionRequest]) -> np.ndarray:
        """Price a batch of operators through the LRU (:func:`_cached_core`).

        The distinct misses are packed into one table and priced by the
        bank pass :meth:`predict_table` runs; a request identical to an
        earlier miss of the batch reuses its value (``in_batch_reuses``).
        Whole-table workloads should prefer :meth:`predict_table`.
        """
        keys = request_keys(requests)
        return _only(_cached_core([(self, range(len(keys)))], keys, _request_rows(requests)))

    def _probe(self, keys: Sequence[bytes]) -> tuple[list, dict[bytes, list[int]]]:
        """One locked probe of the prediction LRU: ``(values, missing)`` as
        :meth:`~repro.serving.cache.LRUCache.get_many` returns them, after
        dropping every entry if ``store.version`` moved since the last one
        (an add or remove by any service sharing the store)."""
        version = self._predictor.store.version
        if version != self._cache_version:
            self._prediction_cache.clear()
            self._cache_version = version
        return self._prediction_cache.get_many(keys)

    def _charge(self, n_requests: int, uncached: int, distinct: int) -> None:
        """One owner's accounting in a core: a batch of ``n_requests``,
        ``uncached`` of them priced as ``distinct`` rows (the table core:
        ``(n, n, n)``).

        Every uncached request is charged its lookups (and, in the bank
        pass, its fallbacks), so a cache-disabled service keeps the Section
        6.5 bookkeeping exactly; with the cache on, a one-row-at-a-time
        replay differs by ``in_batch_reuses``, which it turns into uncharged
        hits.
        """
        lookups = uncached * CleoPredictor.LOOKUPS_PER_PREDICTION
        with self._stats_lock:
            self._batches += 1
            self._predictions += n_requests
            self._batch_reuses += uncached - distinct
            self._predictor.lookup_count += lookups

    def _fill(self, values: list, missing: dict, priced: np.ndarray) -> None:
        """One owner's LRU fill: insert the priced misses (``priced[j]``
        answers the ``j``-th key of ``missing``) and write them into the
        owner's probed ``values``.  Nothing is inserted when the store moved
        since :meth:`_probe`."""
        priced = priced.tolist()
        if self._cache_version == self._predictor.store.version:
            self._prediction_cache.put_many(zip(missing, priced))
        for positions, value in zip(missing.values(), priced):
            for i in positions:
                values[i] = value

    def predict_records(self, records: Iterable[OperatorRecord]) -> np.ndarray:
        """Batched predictions for logged operators, in record order: their
        rows packed into one table and priced by :meth:`predict_table`."""
        return self.predict_table(FeatureTable.from_records(list(records)))

    def predict_table(self, table: FeatureTable) -> np.ndarray:
        """Price every row of a signature-bearing table: the packed fast path.

        No request objects, no keys, no LRU: one bank pass over the rows
        (:func:`_table_core`).  Values are bitwise those of
        :meth:`predict_batch`, and the accounting that of a cache-disabled
        :meth:`predict_batch`.
        """
        _require_signatures(table)
        return _only(_table_core([(self, np.arange(len(table)))], table))

    def _price_table(
        self, table: FeatureTable, request_counts: Sequence[int] | None = None
    ) -> np.ndarray:
        """The bank pass every entry point ends in: model pricing and
        model-call accounting.  ``request_counts[i]`` is how many requests
        row ``i`` answers (:func:`_cached_core`'s distinct misses), so the
        fallback counter charges per request."""
        predictor = self._predictor
        combined = predictor.combined
        use_combined = combined is not None and combined.is_fitted
        if use_combined:
            rows, calls = meta_matrix_and_calls(predictor.store, table)
            fallbacks = 0
            values = combined.predict_rows(rows)
        else:
            weights = None if request_counts is None else np.asarray(request_counts)
            values, calls, fallbacks = predict_most_specific(
                predictor.store, table, predictor.fallback_cost, weights=weights
            )
        with self._stats_lock:
            self._individual_calls += calls
            self._combined_calls += use_combined
            self._fallbacks += fallbacks
        return values

    def _validated(
        self, values: np.ndarray, rows: Callable[[], FeatureTable]
    ) -> np.ndarray:
        """Output validation: ``values`` when every one is serveable, else
        the rows of ``rows()`` repaired (quarantine and re-price)."""
        if self._validate_outputs and not values_ok(values):
            values = self._repaired_table(rows(), values)
        return values

    def predict_inputs(self, table: FeatureTable) -> np.ndarray:
        """Batched predictions for a signature-bearing table, through the LRU.

        The optimizer's pricing entry, a single price included (one row),
        and a whole plan's (:func:`price_plan`).  With the LRU enabled the
        table's row keys go through the cached core, the misses cut out with
        one gather; with it disabled this is :meth:`predict_table`, values
        and accounting both.  Same bits either way.
        """
        if not self.prediction_cache_enabled:
            return self.predict_table(table)
        _require_signatures(table)
        keys = table.row_keys()
        return _only(_cached_core([(self, range(len(keys)))], keys, _table_rows(table)))

    # ------------------------------------------------------------------ #
    # Boundary validation and repair
    # ------------------------------------------------------------------ #

    def _check_table(self, table: FeatureTable) -> None:
        """Reject a table carrying non-finite feature values."""
        if not self._validate_inputs:
            return
        finite = np.isfinite(table.features)
        if not finite.all():
            column = int(np.argmin(finite.all(axis=0)))
            raise FeatureValidationError(
                f"non-finite values in feature column {COLUMN_NAMES[column]!r}"
            )

    def _repaired_table(self, table: FeatureTable, values: np.ndarray) -> np.ndarray:
        """Quarantine the models behind corrupt predictions and re-price.

        Every covered ``(row, model kind)`` pair of the non-finite / negative
        rows is priced in one :func:`~repro.core.combined.covered_tiers` pass
        — a model can be finite on one row and NaN on another, so
        first-bad-occurrence shortcuts would leave corruption in the bank.
        Offenders are removed through :class:`ModelQuarantine` in row-major,
        specificity order (``ModelStore.remove`` bumps the version,
        recompiling the packed bank lazily), then the rows are re-priced
        down the remaining chain: combined model, most-specific survivor,
        global fallback, bounded default.
        """
        bad = np.flatnonzero(~_serveable(values))
        rows = table.take(bad)
        predictor = self.predictor
        store = predictor.store
        combined = predictor.combined
        with _REPAIR_LOCK:
            masks, predictions, _ = covered_tiers(store, rows)
            at, tier = np.nonzero(masks & ~_serveable(predictions))
            offenders = dict.fromkeys(
                zip(
                    [SPECIFICITY_ORDER[k] for k in tier.tolist()],
                    rows.signatures[at, tier].tolist(),
                )
            )
            removed = sum(
                self._model_quarantine.quarantine(store, kind, signature)
                for kind, signature in offenders
            )
            # Every offender is gone, so each row's most specific survivor
            # prices it serveably: the chain's only garbage is a bad fallback.
            # repro: allow(lock-discipline) -- re-pricing stays under _REPAIR_LOCK so it prices against the post-quarantine store, not a store another thread is still repairing; it only runs on corrupt batches
            repaired, _, _ = predict_most_specific(store, rows, predictor.fallback_cost)
            if combined is not None and combined.is_fitted:
                # repro: allow(lock-discipline) -- same repair-path reasoning: the combined model must read the store the quarantine pass just produced
                priced = combined.predict_rows(build_meta_matrix(store, rows))
                repaired = np.where(_serveable(priced), priced, repaired)
        repaired = np.where(_serveable(repaired), repaired, _BOUNDED_DEFAULT_COST)
        # A removal moved ``store.version``: this service's LRU, and that of
        # every service sharing the store, drops its entries on its next
        # probe (see ``_probe``).
        with self._stats_lock:
            self._quarantined += removed
            self._degraded += len(bad)
        out = values.copy()
        out[bad] = np.minimum(repaired, _MAX_PREDICT_SECONDS)
        return out

    # ------------------------------------------------------------------ #
    # Whole-plan requests and the optimizer-facing adapter
    # ------------------------------------------------------------------ #

    def predict_plan(self, root: PhysicalOp, estimator: CardinalityEstimator) -> float:
        """Total cost of a whole-plan request, priced as one table
        (:func:`price_plan`)."""
        return price_plan(self, root, estimator)

    def cost_model(self) -> CostModel:
        """An optimizer-facing :class:`CostModel` bound to this service."""
        from repro.core.cost_model import CleoCostModel

        return CleoCostModel(self.predictor, service=self)

    # ------------------------------------------------------------------ #
    # Explanation
    # ------------------------------------------------------------------ #

    def explain(
        self, features: FeatureInput, signatures: SignatureBundle
    ) -> CostExplanation:
        """The one-row price plus which model tier produced it and why."""
        table = FeatureTable.from_inputs([features], [signatures])
        cost = float(self.predict_inputs(table)[0])
        return explain_cost(self.predictor, signatures, cost)

    # ------------------------------------------------------------------ #
    # Introspection and stats
    # ------------------------------------------------------------------ #

    @property
    def prediction_cache_enabled(self) -> bool:
        """Whether the (features, signatures) prediction LRU is active."""
        return self._prediction_cache.capacity > 0

    @property
    def lookup_count(self) -> int:
        """Model lookups charged by the served predictor (Section 6.5)."""
        return self.predictor.lookup_count

    @property
    def store(self) -> ModelStore:
        return self.predictor.store

    @property
    def model_count(self) -> int:
        return self.predictor.model_count

    @property
    def memory_bytes(self) -> int:
        return self.predictor.memory_bytes

    def stats(self) -> ServiceStats:
        """An atomic snapshot of the serving counters."""
        with self._stats_lock:
            return ServiceStats(
                predictions=self._predictions,
                batches=self._batches,
                cache=self._prediction_cache.stats(),
                individual_model_calls=self._individual_calls,
                combined_model_calls=self._combined_calls,
                fallback_predictions=self._fallbacks,
                in_batch_reuses=self._batch_reuses,
                degraded_predictions=self._degraded,
                quarantined_models=self._quarantined,
            )

    def reset_stats(self) -> None:
        """Zero every counter (cache contents are kept)."""
        with self._stats_lock:
            self._batches = 0
            self._predictions = 0
            self._individual_calls = 0
            self._combined_calls = 0
            self._fallbacks = 0
            self._batch_reuses = 0
            self._degraded = 0
            self._quarantined = 0
        self._prediction_cache.reset_stats()

    def clear_caches(self) -> None:
        """Drop cached predictions (counters are kept)."""
        self._prediction_cache.clear()

    def describe(self) -> str:
        return (
            f"CleoService({self.predictor.model_count} models, "
            f"{self.memory_bytes / 1024:.0f} KiB, "
            f"cache {self._prediction_cache.capacity})"
        )


# ---------------------------------------------------------------------- #
# The pricing cores: one bank pass, for one owner or many
# ---------------------------------------------------------------------- #

#: A core call's owners: each a service and its rows' batch positions, ascending.
_Owners = Sequence[tuple[CleoService, "Sequence[int] | np.ndarray"]]

#: A core call's answer: the batch's values in input order, and per owner
#: ``None`` or the exception its part raised (its positions hold no answer).
_Answer = tuple[np.ndarray, "list[Exception | None]"]


def _only(answer: _Answer) -> np.ndarray:
    """A one-owner core call's values, or what its part raised."""
    values, (failure,) = answer
    if failure is not None:
        raise failure
    return values


def _cached_core(
    owners: _Owners, keys: Sequence[bytes], rows: Callable[[list[int]], FeatureTable]
) -> _Answer:
    """The cached core: every owner's rows through its own LRU, one pass.

    ``keys[i]`` is batch row ``i``'s key and ``rows(positions)`` packs
    batch rows into a table.  Every owner probes its own LRU
    (:meth:`CleoService._probe`) and is charged once.  If any missed, the
    first occurrences of every owner's distinct misses (owners in order)
    are packed into one table, checked once and priced in one
    :meth:`CleoService._price_table` pass (model calls charged to the first
    owner with a miss), validated once: only if a value is not serveable
    does each such owner repair its slice.  Each owner with a miss fills
    its LRU (:meth:`CleoService._fill`); every owner writes its values into
    the answer.  A probe, repair or fill that raises fails only its owner;
    a pass that raises fails every owner that probed.
    """
    n = len(keys)
    failures: list[Exception | None] = [None] * len(owners)
    probed = []
    firsts: list[int] = []
    for j, (service, idx) in enumerate(owners):
        try:
            values, missing = service._probe(
                keys if len(idx) == n else [keys[i] for i in idx]
            )
        except FeatureValidationError:
            raise
        except Exception as exc:
            failures[j] = exc
            continue
        if missing:
            firsts.extend([idx[positions[0]] for positions in missing.values()])
        probed.append((j, service, idx, values, missing))
    if firsts:
        table = rows(firsts)
        # Only first-seen uncached keys pay the check (cached entries passed
        # it before insertion).  A bad one raises before anything is priced,
        # inserted or charged, but after the probes counted their misses.
        owners[0][0]._check_table(table)
    counts: list[int] = []
    for _, service, _, values, missing in probed:
        owned = list(map(len, missing.values())) if missing else []
        counts += owned
        service._charge(len(values), sum(owned), len(missing))
    out = [0.0] * n
    if firsts:
        payer = next(entry[1] for entry in probed if entry[4])
        try:
            priced = payer._price_table(table, counts)
        except FeatureValidationError:
            raise
        except Exception as exc:
            for entry in probed:
                failures[entry[0]] = exc
            return np.array(out, dtype=float), failures
        serveable = values_ok(priced)
    end = 0
    for j, service, idx, values, missing in probed:
        if missing:
            start, end = end, end + len(missing)
            try:
                part = priced[start:end]
                if not serveable:
                    part = service._validated(part, lambda: table.take(np.arange(start, end)))
                service._fill(values, missing, part)
            except FeatureValidationError:
                raise
            except Exception as exc:
                failures[j] = exc
                continue
        if len(idx) == n:
            out = values
        else:
            for i, value in zip(idx, values):
                out[i] = value
    return np.array(out, dtype=float), failures


def _table_core(owners: _Owners, table: FeatureTable) -> _Answer:
    """The table core: every owner's rows with no LRU, one pass.

    The owned rows (``table`` itself, or on a ladder rung one gather) are
    checked once, each owner is charged its rows, and one
    :meth:`CleoService._price_table` pass prices them (model calls charged
    to the first owner), validated once: only if a value is not serveable
    does each owner repair its rows.  Failures split as in
    :func:`_cached_core`.
    """
    n = len(table)
    if not owners:
        return np.empty(n, dtype=float), []
    owned = table
    if sum(len(idx) for _, idx in owners) < n:
        positions = np.concatenate([np.asarray(idx, dtype=np.int64) for _, idx in owners])
        owned = table.take(positions)
    payer = owners[0][0]
    payer._check_table(owned)
    for service, idx in owners:
        service._charge(len(idx), len(idx), len(idx))
    try:
        priced = payer._price_table(owned) if len(owned) else np.empty(0, dtype=float)
    except FeatureValidationError:
        raise
    except Exception as exc:
        return np.empty(n, dtype=float), [exc] * len(owners)
    if owned is table:
        if values_ok(priced):
            return priced, [None] * len(owners)
        out = priced
    else:
        out = np.empty(n, dtype=float)
        out[positions] = priced
    failures: list[Exception | None] = []
    for service, idx in owners:
        try:
            out[idx] = service._validated(out[idx], lambda: table.take(idx))
        except FeatureValidationError:
            raise
        except Exception as exc:
            failures.append(exc)
        else:
            failures.append(None)
    return out, failures


def _profile_core(owners: _Owners, table: FeatureTable) -> list[ResourceProfile | None]:
    """The profile core: every row's Section-5.3 profile, in input order,
    from one input check and one read of the shared bank; each owner (the
    owners own the whole table) is charged its own covered rows' lookups."""
    if not owners:
        return []
    reader = owners[0][0]
    reader._check_table(table)
    profiles = resource_profiles_most_specific(reader.predictor.store, table)[0]
    for service, idx in owners:
        service._charge_lookups(sum(profiles[i] is not None for i in idx))
    return profiles


def as_cost_model(model: "CostModel | CleoService") -> CostModel:
    """Normalize a service or cost model into the :class:`CostModel` surface."""
    if isinstance(model, CleoService):
        return model.cost_model()
    return model
