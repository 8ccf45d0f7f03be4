"""``CleoService``: the serving façade over trained cost models.

The paper's production story (Section 5.1) is that trained models are
*served*: loaded upfront into a signature-keyed map and consulted millions
of times per optimization pass, either "from a text file ... or using a web
service".  This module is that serving layer for the reproduction — one
object that owns training, persistence, versioned deployment, and the hot
prediction path, so no consumer ever assembles ``ModelStore`` +
``CombinedModel`` + ``CleoPredictor`` by hand again.

The service prices **rows** — request batches, or signature-bearing
:class:`~repro.features.table.FeatureTable` s — and never sees an operator:
turning operators and plans into rows is
:class:`~repro.core.cost_model.CleoCostModel`'s job, and the optimizer hands
over one table per pricing call.  There is no scalar twin: a single price is
a one-row :meth:`CleoService.predict_inputs` call,
and an explanation (:meth:`CleoService.explain`) names the tier behind that
one-row price.  The one exception to rows is the load replays' whole-plan
*request*: :meth:`CleoService.predict_plan` is :func:`price_plan`, i.e.
:func:`plan_requests` and :func:`plan_totals` around one batch.

Serving-grade mechanics:

* **Packed inference** — prediction runs on the store's compiled
  :class:`~repro.core.packed.PackedModelBank`: a table's four signature
  columns resolve with one ``np.searchsorted`` over every kind's signatures
  and all covered ``(row, kind)`` pairs are priced in one gather + row
  multiply-sum pass over all kinds (the combined model's trees traverse as
  one flat ensemble).  :meth:`CleoService.predict_table` is the one
  columnar primitive — no per-request objects, no cache keys — and
  every other batched entry point ends in its core:
  :meth:`CleoService.predict_batch` and :meth:`CleoService.predict_inputs`
  pack the rows the cache could not answer into a table and price that.  All paths are *bitwise identical*
  to one-row prediction: every underlying regressor computes per-row,
  batch-size-invariant reductions.
* **Prediction cache** — a bounded LRU in front of the models turns the
  recurring-job workload's repeated (features, signatures) rows into O(1)
  hits: a batch is one locked probe and one locked insert, over keys that
  are each row's 104 bytes (:meth:`~repro.features.table.FeatureTable.
  row_keys`, made for a whole table in one pass); hit/miss counters
  surface via :meth:`stats`.  The pricing cores (:func:`_cached_core`,
  :func:`_table_core`, :func:`_profile_core`) take a list of *owners* —
  ``(service, row indices)`` over one batch — and return one answer per
  owner: each owner probes its own LRU, the union of first-seen misses is
  checked once and priced in one bank pass, and each owner's accounting,
  repair and LRU fill run through its own service.  A service's entry
  points call them with one owner (itself); the sharded router calls them
  with every owning shard's service at once.  An LRU serves only entries
  priced against the store's current ``version``: a quarantine by any
  service sharing the store empties every one of their LRUs on its next
  probe.
* **Lifecycle** — :meth:`train` / :meth:`load` / :meth:`save` /
  :meth:`deploy` wrap the trainer, the JSON model-file format, and the
  versioned :class:`~repro.core.lifecycle.ModelRegistry`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import FeatureValidationError
from repro.core.combined import build_meta_matrix, covered_tiers, meta_matrix_and_calls
from repro.core.config import SPECIFICITY_ORDER, CleoConfig
from repro.core.packed import predict_most_specific, resource_profiles_most_specific
from repro.core.learned_model import _MAX_PREDICT_SECONDS, ResourceProfile
from repro.core.lifecycle import ModelRegistry, ModelVersion
from repro.core.model_store import ModelStore
from repro.core.predictor import CleoPredictor, explain_cost
from repro.core.regression_control import ModelQuarantine
from repro.core.trainer import CleoTrainer
from repro.cost.interface import CostExplanation, CostModel
from repro.execution.runtime_log import OperatorRecord, RunLog
from repro.features.extract import feature_input_for
from repro.features.featurizer import COLUMN_NAMES, FeatureInput
from repro.features.table import FeatureTable
from repro.plan.physical import PhysicalOp
from repro.plan.signatures import SignatureBundle
from repro.serving.cache import CacheStats, LRUCache

#: Default prediction-cache capacity: comfortably holds a few optimization
#: passes of a production-shaped recurring workload.
DEFAULT_PREDICTION_CACHE = 65_536

_T = TypeVar("_T")

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


def plan_requests(
    root: PhysicalOp, estimator: CardinalityEstimator
) -> list[PredictionRequest]:
    """One request per operator of a plan, in walk order.

    The serving package's only featurization site: a whole-plan request
    becomes rows here, and :func:`plan_totals` folds the answers back.
    """
    return [
        PredictionRequest(feature_input_for(op, estimator), SignatureBundle.of(op))
        for op in root.walk()
    ]


def price_plan(tier, root: PhysicalOp, estimator: CardinalityEstimator) -> float:
    """A plan's total through ``tier.predict_batch``: the one ``predict_plan``
    / ``plan_cost`` body, whichever row tier serves."""
    requests = plan_requests(root, estimator)
    return plan_totals(tier.predict_batch(requests), [len(requests)])[0]


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
        config: training/config knobs kept for save/load round-trips.
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
        config: CleoConfig | None = None,
        prediction_cache_size: int = DEFAULT_PREDICTION_CACHE,
        validate_inputs: bool = True,
        validate_outputs: bool = True,
    ) -> None:
        self.config = config or CleoConfig()
        self._prediction_cache = LRUCache(prediction_cache_size)
        self._predictor = predictor
        #: ``store.version`` the LRU's entries were priced against.
        self._cache_version = predictor.store.version
        self.registry = ModelRegistry()
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
        """The served models; assigning new ones drops stale cached results."""
        return self._predictor

    @predictor.setter
    def predictor(self, predictor: CleoPredictor) -> None:
        self._predictor = predictor
        self.clear_caches()

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
        return cls(predictor, config=config, **service_kwargs)

    @classmethod
    def load(
        cls, path: str | Path, config: CleoConfig | None = None, **service_kwargs
    ) -> "CleoService":
        """Load a service from a model file written by :meth:`save`."""
        from repro.core.serialization import load_predictor

        return cls(load_predictor(path, config), config=config, **service_kwargs)

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
    # Deployment (versioned registry)
    # ------------------------------------------------------------------ #

    def deploy(self, day: int = 0, window: tuple[int, ...] = ()) -> ModelVersion:
        """Publish the served predictor as a new active registry version."""
        return self.registry.publish(self.predictor, day=day, window=window)

    def rollback(self) -> ModelVersion:
        """Reactivate the previous registry version and serve it."""
        version = self.registry.rollback()
        self.predictor = version.predictor  # setter drops stale caches
        return version

    # ------------------------------------------------------------------ #
    # Resource profiles (Section 5.3)
    # ------------------------------------------------------------------ #

    def resource_profiles(self, table: FeatureTable) -> list[ResourceProfile | None]:
        """Batched Section-5.3 resource profiles, via the packed bank.

        The most specific covering model's ``(theta_p, theta_c, theta_0)``
        per row of a signature-bearing table, ``None`` where no individual
        model covers the operator.  The rows pass :meth:`predict_table`'s
        input check before any lookup is charged; then five lookups per
        covered profile, none for uncovered operators.
        """
        _require_signatures(table)
        return _only(_profile_core([(self, np.arange(len(table)))], table))

    def _charge_lookups(self, rows: int) -> None:
        """Charge ``rows`` rows of lookup accounting (five lookups each)."""
        with self._stats_lock:
            self.predictor.lookup_count += rows * CleoPredictor.LOOKUPS_PER_PREDICTION

    # ------------------------------------------------------------------ #
    # Batched prediction
    # ------------------------------------------------------------------ #

    def predict_batch(self, requests: Sequence[PredictionRequest]) -> np.ndarray:
        """Price a batch of operators in one pass over its requests.

        The requests' row keys (computed once per request) go through the
        cached core: one locked probe of the prediction LRU answers the hits
        and names the distinct misses, which are packed into a table once,
        priced by the core :meth:`predict_table` runs, and inserted under
        one more lock acquisition.  A request identical to an earlier miss
        of the same batch reuses its value (``in_batch_reuses``).  Results
        are bitwise identical to pricing each request as a one-row batch.
        (For whole-table workloads prefer :meth:`predict_table`, which skips
        the cache entirely.)
        """
        return self._price_cached(request_keys(requests), _request_rows(requests))

    def predict_records_reference(self, records: Iterable[OperatorRecord]) -> np.ndarray:
        """The retained pre-packed serving pipeline (benchmark baseline).

        Replays what pricing a record batch cost before the packed runtime:
        per-record :class:`PredictionRequest` materialization and cache
        probing, a fresh feature-table build from the unique requests'
        inputs, per-batch derived-feature expansion, one object-graph model
        call per covering ``(kind, signature)`` group, and tree-at-a-time
        ensemble traversal.  The packed :meth:`predict_table`/
        :meth:`predict_records` must match it bit for bit.
        """
        requests = [PredictionRequest.for_record(r) for r in records]
        return self._price_cached(
            request_keys(requests), _request_rows(requests), reference=True
        )

    def _price_cached(
        self,
        keys: Sequence[bytes],
        rows: Callable[[list[int]], FeatureTable],
        reference: bool = False,
    ) -> np.ndarray:
        """:func:`_cached_core` with this service as the one owner of every
        row: the LRU-backed entry points' body."""
        return _only(_cached_core([(self, range(len(keys)))], keys, rows, reference))

    def _probe(self, keys: Sequence[bytes]) -> tuple[list, dict[bytes, list[int]]]:
        """One locked probe of the prediction LRU: ``(values, missing)`` as
        :meth:`~repro.serving.cache.LRUCache.get_many` returns them.

        The LRU only serves entries priced against the store as it is now:
        every ``ModelStore.add`` / ``remove`` moves ``store.version``, and a
        probe that sees it moved drops every entry first.  Services sharing
        one store (the router's shards) thus all stop serving a model that
        any of them quarantined.
        """
        version = self._predictor.store.version
        if version != self._cache_version:
            self._prediction_cache.clear()
            self._cache_version = version
        return self._prediction_cache.get_many(keys)

    def _charge(self, n_requests: int, missing: dict[bytes, list[int]]) -> list[int]:
        """One owner's accounting in :func:`_cached_core`; returns how many
        requests each distinct miss answers (the fallback counter's weights).

        Lookup accounting (and the fallback counter) charges every request
        not served from the LRU, so a cache-disabled service keeps the "five
        learned predictions per sample" bookkeeping exactly (Section 6.5).
        With the cache *enabled* one batch and a one-row-at-a-time replay of
        it can legitimately differ by ``in_batch_reuses``: the replay turns
        in-batch duplicates into LRU hits (uncharged), while the batch
        computes them once and reuses the value without a cache round-trip
        (charged per request).
        """
        counts = [len(positions) for positions in missing.values()]
        uncached = sum(counts)
        with self._stats_lock:
            self._batches += 1
            self._predictions += n_requests
            self._batch_reuses += uncached - len(missing)
            self.predictor.lookup_count += (
                uncached * CleoPredictor.LOOKUPS_PER_PREDICTION
            )
        return counts

    def _fill(
        self,
        values: list,
        missing: dict[bytes, list[int]],
        priced: np.ndarray,
    ) -> np.ndarray:
        """One owner's LRU fill: insert the priced misses (``priced[j]`` answers
        the ``j``-th key of ``missing``) and scatter them into the answer.

        Nothing is inserted when the store moved since :meth:`_probe` (a
        repair quarantined a model mid-call): those values were priced
        against a store that no longer exists.
        """
        if missing:
            priced = priced.tolist()
            if self._cache_version == self._predictor.store.version:
                self._prediction_cache.put_many(zip(missing, priced))
            for positions, value in zip(missing.values(), priced):
                for i in positions:
                    values[i] = value
        return np.array(values, dtype=float)

    def predict_records(
        self, records: Iterable[OperatorRecord], table: FeatureTable | None = None
    ) -> np.ndarray:
        """Batched predictions for logged operators, in record order.

        Routed through the table-native packed fast path (see
        :meth:`predict_table`); callers that already materialized the
        records' columns (``log.to_table()``) can pass ``table`` to skip
        re-packing them.
        """
        if table is None:
            table = FeatureTable.from_records(list(records))
        return self.predict_table(table)

    def predict_table(self, table: FeatureTable) -> np.ndarray:
        """Price every row of a signature-bearing table: the packed fast path.

        The one columnar primitive: no :class:`PredictionRequest` objects,
        no keys hashed, nothing looked up or stored in the prediction LRU —
        the whole batch runs as a constant number of numpy passes over the
        store's compiled :class:`~repro.core.packed.PackedModelBank` (and
        the combined model's flat tree ensemble).  :meth:`predict_batch`
        prices its cache misses through this same core, so the two are
        bitwise identical over the same rows by construction, and lookup,
        model-call, and fallback accounting match a **cache-disabled**
        :meth:`predict_batch` exactly.
        """
        _require_signatures(table)
        return _only(_table_core([(self, np.arange(len(table)))], table))

    def _charge_rows(self, n: int) -> None:
        """:meth:`predict_table`'s accounting: one batch of ``n`` rows, each
        charged its lookups."""
        with self._stats_lock:
            self._batches += 1
            self._predictions += n
            self._predictor.lookup_count += n * CleoPredictor.LOOKUPS_PER_PREDICTION

    def _price_table(
        self,
        table: FeatureTable,
        request_counts: Sequence[int] | None = None,
        reference: bool = False,
    ) -> np.ndarray:
        """The bank pass: model pricing and model-call accounting.

        Every batched entry point ends here — :func:`_table_core` with its
        rows, :func:`_cached_core` with its distinct cache misses, where
        ``request_counts[i]`` is how many requests row ``i`` answers so the
        fallback counter charges per request — and hands the answer to
        :meth:`_validated`.  ``reference`` routes the combined model through
        the retained object-graph meta builder and tree-at-a-time ensemble
        (the pre-packed pipeline).
        """
        predictor = self._predictor
        combined = predictor.combined
        use_combined = combined is not None and combined.is_fitted
        if use_combined:
            rows, calls = meta_matrix_and_calls(
                predictor.store, table, reference=reference
            )
            fallbacks = 0
            if reference:
                values = combined.predict_rows_reference(rows)
            else:
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

        The optimizer's pricing entry, a single price included (one row):
        :class:`~repro.core.cost_model.CleoCostModel` and the skeleton
        replay pack each pricing call's rows into ``table`` straight from
        their plan nodes.  With the prediction LRU enabled its row keys go
        through the cached core :meth:`predict_batch` runs (cache hits and
        in-batch dedup still pay off for recurring operators) and the misses
        are cut out of it with one gather; with caching disabled it goes to
        :meth:`predict_table`, whose lookup and fallback accounting matches
        a cache-disabled :meth:`predict_batch` exactly.  Either way the rows
        are priced by the one table core, so values are bitwise identical.
        """
        if not self.prediction_cache_enabled:
            return self.predict_table(table)
        _require_signatures(table)
        return self._price_cached(table.row_keys(), _table_rows(table))

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
        """Total cost of a whole-plan request, priced as one batch."""
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

#: An owner's slice of a bank pass that priced none of its rows.
_NOTHING = np.empty(0, dtype=float)

#: A core call's owners: each a service and the batch positions of its rows.
_Owners = Sequence[tuple[CleoService, "Sequence[int] | np.ndarray"]]


def _attempt(step: Callable[..., _T], *args: object) -> "_T | Exception":
    """``step(*args)``, or the exception it raised: one owner's failure.

    A :class:`~repro.common.errors.FeatureValidationError` is the caller's
    bug, not an owner's, and propagates.
    """
    try:
        return step(*args)
    except FeatureValidationError:
        raise
    except Exception as exc:
        return exc


def _only(answers: "list[_T | Exception]") -> _T:
    """A one-owner core call's answer: its values, or what its part raised."""
    (answer,) = answers
    if isinstance(answer, Exception):
        raise answer
    return answer


def _cached_core(
    owners: _Owners,
    keys: Sequence[bytes],
    rows: Callable[[list[int]], FeatureTable],
    reference: bool = False,
) -> "list[np.ndarray | Exception]":
    """The cached core: one answer per owner, each owner's rows priced
    through its own LRU.

    ``keys[i]`` is batch row ``i``'s :meth:`~repro.features.table.
    FeatureTable.row_keys` key and ``rows(positions)`` packs the batch rows
    at ``positions`` into a table.  In order:

    1. every owner probes its own LRU (:meth:`CleoService._probe`);
    2. the first occurrences of every owner's distinct misses (owners in
       order) are packed into one table and input-checked once, each owner
       is charged (:meth:`CleoService._charge`), and the table is priced in
       one :meth:`CleoService._price_table` pass whose model calls are
       charged to the first owner with a miss;
    3. every owner validates and repairs its slice of the pass and fills its
       own LRU (:meth:`CleoService._validated`, :meth:`CleoService._fill`).

    A probe, repair or fill that raises fails only its owner; a pass that
    raises fails every owner that probed.
    """
    answers = [
        _attempt(service._probe, [keys[i] for i in idx]) for service, idx in owners
    ]
    live = [j for j, probe in enumerate(answers) if not isinstance(probe, Exception)]
    firsts: list[int] = []
    bounds: list[tuple[int, int]] = []
    for j in live:
        start, idx = len(firsts), owners[j][1]
        firsts.extend(idx[positions[0]] for positions in answers[j][1].values())
        bounds.append((start, len(firsts)))
    table = rows(firsts) if firsts else None
    if table is not None:
        # Only first-seen uncached keys pay the check (cached entries passed
        # it before insertion).  A bad one raises before anything is priced,
        # inserted or charged, but after the probes counted their misses.
        owners[0][0]._check_table(table)
    counts: list[int] = []
    for j in live:
        counts.extend(owners[j][0]._charge(len(answers[j][0]), answers[j][1]))
    priced = _NOTHING
    if table is not None:
        payer = next(owners[j][0] for j, (lo, hi) in zip(live, bounds) if hi > lo)
        priced = _attempt(payer._price_table, table, counts, reference)

    def settle(service: CleoService, probe: tuple, lo: int, hi: int) -> np.ndarray:
        values = service._validated(
            priced[lo:hi], lambda: table.take(np.arange(lo, hi))
        )
        return service._fill(*probe, values)

    for j, (lo, hi) in zip(live, bounds):
        if isinstance(priced, Exception):
            answers[j] = priced
        else:
            answers[j] = _attempt(settle, owners[j][0], answers[j], lo, hi)
    return answers


def _gathered(
    owners: _Owners, table: FeatureTable
) -> "tuple[FeatureTable, list[Sequence[int] | np.ndarray]]":
    """The rows ``owners`` own as one table, and each owner's rows in it.

    ``table`` itself when they own all of it (a service's own call, a
    router's first rung), else one gather of their rows in owner order (a
    ladder rung, where one shard prices its own rows).
    """
    sizes = [len(idx) for _, idx in owners]
    if sum(sizes) == len(table):
        return table, [idx for _, idx in owners]
    ends = np.cumsum(sizes)
    positions = np.concatenate([np.asarray(idx, dtype=np.int64) for _, idx in owners])
    return table.take(positions), [
        np.arange(end - size, end) for size, end in zip(sizes, ends)
    ]


def _table_core(owners: _Owners, table: FeatureTable) -> "list[np.ndarray | Exception]":
    """The table core: one answer per owner, its rows priced with no LRU.

    The owned rows are input-checked once, each owner is charged its rows'
    batch, predictions and lookups (:meth:`CleoService._charge_rows`), one
    :meth:`CleoService._price_table` pass prices them (model calls charged
    to the first owner), and each owner validates and repairs its rows'
    answers.  Failures split as in :func:`_cached_core`.
    """
    if not owners:
        return []
    table, slots = _gathered(owners, table)
    payer = owners[0][0]
    payer._check_table(table)
    for service, idx in owners:
        service._charge_rows(len(idx))
    priced = _attempt(payer._price_table, table) if len(table) else _NOTHING
    if isinstance(priced, Exception):
        return [priced] * len(owners)
    return [
        _attempt(service._validated, priced[slot], lambda: table.take(slot))
        for (service, _), slot in zip(owners, slots)
    ]


def _profile_core(
    owners: _Owners, table: FeatureTable
) -> "list[list[ResourceProfile | None] | Exception]":
    """The profile core: one answer per owner, its rows' Section-5.3
    profiles from one input check and one read of the shared bank; each
    owner is charged the lookups of its own covered rows."""
    if not owners:
        return []
    table, slots = _gathered(owners, table)
    reader = owners[0][0]
    reader._check_table(table)
    read = _attempt(resource_profiles_most_specific, reader.predictor.store, table)
    if isinstance(read, Exception):
        return [read] * len(owners)
    answers: list = []
    for (service, _), slot in zip(owners, slots):
        own = [read[0][i] for i in slot]
        service._charge_lookups(sum(profile is not None for profile in own))
        answers.append(own)
    return answers


def as_cost_model(model: "CostModel | CleoService") -> CostModel:
    """Normalize a service or cost model into the :class:`CostModel` surface."""
    if isinstance(model, CleoService):
        return model.cost_model()
    return model
