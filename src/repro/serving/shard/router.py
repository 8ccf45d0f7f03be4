"""``ShardedCleoRouter``: the façade over a fleet of per-shard services.

One router serves every cluster's models behind a single surface, the way
the paper's optimizer-facing deployment does (Section 5.1), but scaled out:

* **Sharding** — each shard owns one :class:`~repro.serving.service.
  CleoService` per cluster: its own prediction LRU, its own
  counters, its own :class:`~repro.core.predictor.CleoPredictor` view (own
  lookup accounting).  All shards of a cluster *share* the read-only model
  bank — the :class:`~repro.core.model_store.ModelStore`, the combined
  ensemble, and the :class:`~repro.core.packed.PackedModelBank` compiled
  once in the constructor — so shards share nothing mutable and a shard
  adds only cache + counter memory, exactly like a scale-out replica that
  brings its own cache tier to the same published model artifact.
* **Routing** — requests route by a consistent hash of ``(cluster,
  approximate subgraph signature)`` over :class:`~repro.serving.shard.
  routing.HashRing`; every operator of a template lands on the same shard,
  so per-shard LRUs stay disjoint and in-batch deduplication keeps working
  (identical requests always share a shard).
* **Fan-out** — batch entry points split their rows by owning shard and
  merge answers back **in input order**.  Every shard call is a call into
  the service module's pricing cores with ``(service, row indices)``
  owners: each owner probes its own LRU, the union of their distinct
  misses is input-checked once and priced in one pass over the shared
  bank, and each owner's accounting, output repair and LRU fill run
  through its own service, writing straight into the call's one answer.
* **Reliability** — every row walks a degradation ladder (owner, ring
  successors, heuristic floor, bounded default) behind per-shard circuit
  breakers (:mod:`repro.serving.shard.health`).  A call with no fault
  injector whose owners' breakers are all CLOSED runs its *first rung* as
  one core call with every owner, then one breaker record per owner; only
  an owner that failed builds a ladder, walked from the first retry.
  Under an injector, or with an owner's breaker not CLOSED, each owner
  walks its own ladder, every rung a one-owner core call (on a thread pool
  when ``n_workers > 1``).  LRUs, counters, breakers,
  quarantine ledgers and ladders stay per shard, and each owner's counters
  are those a standalone service fed only its rows would show.  Every
  per-row computation in the packed runtime is batch-size invariant, so
  the merged predictions are bitwise identical to one single-process
  :class:`~repro.serving.service.CleoService` pricing the whole batch —
  the property ``tests/serving/test_sharded_router.py::TestParity``
  asserts.

Like the service, the router speaks only rows (plus ``predict_plan``, the
load replays' whole-plan request), and a single price is a one-row batch:
every entry point walks the one fan-out and the degradation ladder.
:class:`ClusterClient` binds one cluster so a
:class:`~repro.core.cost_model.CleoCostModel` prices through the fleet.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import replace as dataclass_replace
from functools import partial
from operator import attrgetter
from threading import Lock
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import (
    FeatureValidationError,
    ModelFileError,
    ShardError,
    ShardTimeoutError,
)
from repro.core.learned_model import _MAX_PREDICT_SECONDS, ResourceProfile
from repro.core.predictor import CleoPredictor
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import CostModel
from repro.features.table import FeatureTable
from repro.plan.physical import PhysicalOp, PhysOpType
from repro.core.serialization import health_state_from_dict, health_state_to_dict
from repro.serving.faults import FaultInjector, FaultKind
from repro.serving.service import (
    DEFAULT_PREDICTION_CACHE,
    _BOUNDED_DEFAULT_COST,
    CleoService,
    PredictionRequest,
    ServiceStats,
    _Answer,
    _cached_core,
    _only,
    _profile_core,
    _request_rows,
    _require_signatures,
    _table_core,
    _table_rows,
    price_plan,
    request_keys,
    values_ok,
)
from repro.serving.shard.health import (
    DEFAULT_RESILIENCE,
    BreakerState,
    ResilienceConfig,
    ShardHealth,
    ShardHealthStats,
)
from repro.serving.shard.routing import HashRing, route_key

_T = TypeVar("_T")

#: Templates memoized per cluster before the route memo starts over (entries
#: are pure recomputations of the ring lookup): ad-hoc traffic mints a new
#: approximate signature per query and must not grow the router forever.
_ROUTE_MEMO_LIMIT = 1 << 16

#: What the heuristic floor reads off a table, as columns.
_FLOOR_STATS = attrgetter(
    "input_card", "output_card", "avg_row_bytes", "partition_count"
)

#: Ring-successor retries of one sub-batch after its owner's rung.
_MAX_RETRIES = 2

#: Wall-clock budget of one ladder walk: once it is spent, no further
#: retry is tried and the rows drop to the heuristic floor.
_DEADLINE_S = 0.25


class ShardedCleoRouter:
    """Routes prediction traffic for many clusters across service shards.

    Args:
        predictors: ``cluster name -> CleoPredictor`` (or ``CleoService``,
            whose predictor is adopted) — the model bank of each cluster.
        n_shards: number of service shards.
        n_workers: thread-pool width for the per-owner ladders of a call
            under a fault injector or a breaker that is not CLOSED; ``1``
            runs them inline (still sharded caches, no threads).  Every
            other call prices all its owners in one inline core call,
            whatever the width.
        prediction_cache_size: **per-shard** prediction-LRU capacity (each
            shard node brings its own cache memory; total capacity grows
            with the fleet).  ``0`` disables caching on every shard.
        resilience: circuit-breaker and hedging knobs.
        fault_injector: deterministic chaos injection around every shard
            call (see :mod:`repro.serving.faults`); ``None`` disables it.

    Every prediction walks a degradation ladder until something answers:
    the owning shard's packed learned prediction, then up to two
    ring-successor shards (skipping shards whose circuit breaker is open,
    within a quarter second), then a heuristic
    :class:`~repro.cost.default_model.DefaultCostModel` floor, then a
    bounded default.  Shard answers are validated (finite, non-negative)
    before being accepted: on a ladder rung by the router, on the first
    rung every owner shares by the owner's own output validation.  With no
    faults injected the first rung always answers, so outputs and
    ``ServiceStats`` stay bitwise/counter-identical to one
    :class:`~repro.serving.service.CleoService` pricing the whole batch.
    """

    def __init__(
        self,
        predictors: "Mapping[str, CleoPredictor | CleoService]",
        n_shards: int = 1,
        n_workers: int = 1,
        prediction_cache_size: int = DEFAULT_PREDICTION_CACHE,
        resilience: ResilienceConfig = DEFAULT_RESILIENCE,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if not predictors:
            raise ValueError("a router needs at least one cluster")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.ring = HashRing(n_shards)
        self.n_workers = int(n_workers)
        self._base: dict[str, CleoPredictor] = {}
        for cluster, predictor in predictors.items():
            if isinstance(predictor, CleoService):
                predictor = predictor.predictor
            self._base[cluster] = predictor
            # Compile the shared read-only runtime up front: the packed bank
            # and the combined model's flat forest are otherwise compiled
            # lazily on first use, and a lazy compile under concurrent
            # fan-out would race (and duplicate) that work.
            predictor.store.packed_bank()
            combined = predictor.combined
            if combined is not None and combined.is_fitted:
                warm = getattr(combined.regressor, "_flat_forest", None)
                if warm is not None:
                    warm()
        #: shard index -> cluster name -> that shard's service.
        self._shards: list[dict[str, CleoService]] = [
            {
                cluster: CleoService(
                    CleoPredictor(
                        store=base.store,
                        combined=base.combined,
                        fallback_cost=base.fallback_cost,
                    ),
                    prediction_cache_size=prediction_cache_size,
                )
                for cluster, base in self._base.items()
            }
            for _ in range(self.ring.n_shards)
        ]
        #: cluster name -> approximate signature -> owning shard (bounded memo).
        self._routes: dict[str, dict[int, int]] = {c: {} for c in self._base}
        self._route_lock = Lock()
        self._resilience = resilience
        self._injector = fault_injector
        self._health = [ShardHealth(s, resilience) for s in range(self.ring.n_shards)]
        self._heuristic = DefaultCostModel()
        self._ladder_lock = Lock()
        self._retries = 0
        self._degraded = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._executor = (
            ThreadPoolExecutor(max_workers=self.n_workers, thread_name_prefix="cleo-shard")
            if self.n_workers > 1
            else None
        )

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    @property
    def clusters(self) -> tuple[str, ...]:
        return tuple(self._base)

    @property
    def n_shards(self) -> int:
        return self.ring.n_shards

    def service_for(self, cluster: str, shard: int) -> CleoService:
        """One shard's service for a cluster (tests and introspection)."""
        return self._shards[shard][self._check_cluster(cluster)]

    def shard_for(self, cluster: str, template_signature: int) -> int:
        """Owning shard of a ``(cluster, template)`` pair, memoized."""
        routes = self._routes[self._check_cluster(cluster)]
        shard = routes.get(template_signature)
        if shard is None:
            shard = self._route(cluster, routes, int(template_signature))
        return shard

    def _route(self, cluster: str, routes: dict[int, int], template: int) -> int:
        """Ring lookup of a template the memo does not hold, then memoized."""
        shard = self.ring.shard_for_key(route_key(cluster, template))
        with self._route_lock:
            if len(routes) >= _ROUTE_MEMO_LIMIT:
                routes.clear()
            routes[template] = shard
        return shard

    def _check_cluster(self, cluster: str) -> str:
        if cluster not in self._base:
            raise KeyError(f"router serves {sorted(self._base)}, not {cluster!r}")
        return cluster

    def _default_cluster(self, cluster: str | None) -> str:
        if cluster is not None:
            return self._check_cluster(cluster)
        if len(self._base) == 1:
            return next(iter(self._base))
        raise ValueError(
            f"router serves several clusters {sorted(self._base)}; pass one"
        )

    def _shards_for_column(self, cluster: str, approx: np.ndarray) -> np.ndarray:
        """Owning shard of every row, from the approx-signature column.

        Hashes each *unique* template once (memoized across calls), then
        maps rows back with one ``searchsorted`` — recurring workloads
        route whole tables without re-hashing.
        """
        uniques, inverse = np.unique(approx, return_inverse=True)
        owners = np.array(
            [self.shard_for(cluster, int(u)) for u in uniques], dtype=np.int64
        )
        return owners[inverse]

    # ------------------------------------------------------------------ #
    # Fan-out
    # ------------------------------------------------------------------ #

    def _fan_out(self, tasks: "Sequence[Callable[[], _T]]") -> list[_T]:
        """Run the owners' ladders, on the pool when it exists and helps.

        A ladder absorbs every shard failure, so a task raises only the
        caller's :class:`~repro.common.errors.FeatureValidationError`.  On
        the pool, the first one (in task order) propagates once every
        sibling has finished: no task outlives the call.
        """
        if self._executor is None or len(tasks) <= 1:
            return [task() for task in tasks]
        futures = [self._executor.submit(task) for task in tasks]
        wait(futures)
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # Degradation ladder
    # ------------------------------------------------------------------ #

    def _guarded(
        self,
        cluster: str,
        shard: int,
        idx: "list[int] | np.ndarray",
        approx: "Sequence[int] | np.ndarray",
        price: "Callable[[list], _Answer]",
        rows: "Callable[[list[int]], FeatureTable]",
        first: int = 0,
    ) -> np.ndarray:
        """Walk the degradation ladder for one owner's rows ``idx``.

        Rungs: owning shard -> ring-successor retries (breaker- and
        deadline-gated, at most :data:`_MAX_RETRIES`) -> heuristic floor of
        ``rows(idx)`` -> bounded default; each learned rung is a one-owner
        ``price`` call under the fault token ``(rows, first row's
        template)``.  Input validation errors re-raise immediately.
        ``first=1`` starts at the first retry: the owner's own rung already
        failed on the first rung every owner shared (:meth:`_sharded`).
        """
        shards = self._shards

        def compute(target: int) -> np.ndarray:
            values = _only(price([(shards[target][cluster], idx)]))
            return values if len(values) == len(idx) else values[idx]

        token = (len(idx), int(approx[idx[0]]))
        deadline = time.perf_counter() + _DEADLINE_S
        hedge_target = self._hedge_target(cluster, shard, token)
        if hedge_target is not None:
            # The deterministic analogue of first-response-wins hedging: the
            # owner's spike is known from the pure fault decision, so instead
            # of racing two in-flight calls the successor is asked first, at
            # ``attempt=1`` — the draw a ladder retry would see; the shared
            # read-only bank makes its answer bitwise identical to the
            # owner's.  A hedge that fails leaves the ladder to walk from the
            # owner, which still answers — late, but within the deadline.
            values = self._rung(cluster, hedge_target, 1, compute, token, hedge=True)
            if values is not None:
                with self._ladder_lock:
                    self._hedge_wins += 1
                return values
        n_shards = self.ring.n_shards
        for attempt in range(first, min(_MAX_RETRIES, n_shards - 1) + 1):
            if attempt > first and time.perf_counter() > deadline:
                break
            target = (shard + attempt) % n_shards
            values = self._rung(cluster, target, attempt, compute, token)
            if values is not None:
                return values
        # Every learned rung failed: heuristic floor, then bounded default.
        values = self._heuristic_floor(rows(list(idx)))
        with self._ladder_lock:
            self._degraded += len(values)
        return values

    def _rung(
        self,
        cluster: str,
        target: int,
        attempt: int,
        compute: Callable[[int], np.ndarray],
        token: tuple[int, int],
        hedge: bool = False,
    ) -> np.ndarray | None:
        """One rung of the ladder: allow -> count -> call -> settle.

        ``None`` when the rung did not answer: the target's breaker is open,
        the call failed, or its answer is not serveable (an injector may sit
        between the core and the rung, so the router checks it).  An
        admitted call off the owning shard counts as a retry — or, fired
        ahead of the owner, as a hedge.  Input validation errors are the
        caller's bug, not the shard's: the admission is given back (a
        half-open probe included) with no record, and the error re-raises.
        """
        health = self._health[target]
        if not health.allow():
            return None
        if hedge or attempt > 0:
            with self._ladder_lock:
                if hedge:
                    self._hedges += 1
                else:
                    self._retries += 1
        call = partial(compute, target)
        if self._injector is not None:
            call = partial(self._injector.invoke, target, cluster, token, attempt, call)
        try:
            values = call()
        except FeatureValidationError:
            health.release()
            raise
        except Exception as exc:
            values, failure = None, exc
        else:
            failure = None if values_ok(values) else ShardError(
                f"shard {target} answered unserveable values", shard=target
            )
        return values if self._settle(target, failure) else None

    def _hedge_target(self, cluster: str, shard: int, token: tuple[int, int]) -> int | None:
        """The ring successor to hedge to, when the owner would blow the SLO.

        Hedging fires only when a latency budget is configured, an injector
        is active (the zero-fault path must stay untouched), the fleet has
        a successor to ask, and the *pure* fault decision says the owning
        shard's attempt-0 call will sleep longer than the budget.  Keying
        the decision off :meth:`FaultInjector.decide` instead of a wall
        clock keeps hedged chaos runs bitwise replayable.
        """
        threshold = self._resilience.hedge_threshold_s
        injector = self._injector
        if threshold is None or injector is None or self.ring.n_shards < 2:
            return None
        if injector.policy.latency_spike_s <= threshold:
            return None
        if injector.decide(shard, cluster, token, 0) is not FaultKind.LATENCY:
            return None
        return (shard + 1) % self.ring.n_shards

    def _heuristic_floor(self, table: FeatureTable) -> np.ndarray:
        """DefaultCostModel floor of a table's rows (COMPUTE coefficients),
        bounded: a non-finite cost becomes the bounded default."""
        cost = self._heuristic.operator_cost_from_stats
        floor = np.array(
            [
                cost(PhysOpType.COMPUTE, float(i), float(o), float(b), max(1, int(p)))
                for i, o, b, p in zip(*_FLOOR_STATS(table))
            ],
            dtype=float,
        )
        floor = np.where(np.isfinite(floor), floor, _BOUNDED_DEFAULT_COST)
        return np.clip(floor, 0.0, _MAX_PREDICT_SECONDS)

    # ------------------------------------------------------------------ #
    # Prediction entry points (cluster-scoped)
    # ------------------------------------------------------------------ #

    def predict_batch(
        self, cluster: str, requests: Sequence[PredictionRequest]
    ) -> np.ndarray:
        """A request batch, split by owning shard and merged in input order.

        Identical requests share a template, hence a shard, so each owner's
        in-batch deduplication sees every duplicate pair a single service
        would.
        """
        approx = [request.signatures.approx for request in requests]
        keys, rows = request_keys(requests), _request_rows(requests)
        return self._sharded(
            cluster,
            approx,
            self._group_rows(cluster, approx),
            lambda owners: _cached_core(owners, keys, rows),
            rows,
        )

    def predict_inputs(self, cluster: str, table: FeatureTable) -> np.ndarray:
        """A signature-bearing table through each owning shard's LRU (the
        cached core :meth:`~repro.serving.service.CleoService.predict_inputs`
        runs), merged in input order.

        The optimizer's flushes are a dozen rows or so: they route with one
        read of the route memo per row (:meth:`_group_rows`), the table is
        keyed once, and the owners' misses are cut out of it with one
        gather.  With caching disabled the rows go through the table core,
        as a cache-less service's ``predict_inputs`` does.
        """
        _require_signatures(table)
        cached = self._shards[0][self._check_cluster(cluster)].prediction_cache_enabled
        approx = table.signature_column("approx").tolist()
        groups, rows = self._group_rows(cluster, approx), _table_rows(table)
        keys = table.row_keys() if cached else None
        return self._sharded(
            cluster,
            approx,
            groups,
            lambda owners: (
                _cached_core(owners, keys, rows) if cached else _table_core(owners, table)
            ),
            rows,
        )

    def predict_table(self, cluster: str, table: FeatureTable) -> np.ndarray:
        """A whole signature-bearing table, split by shard with array ops."""
        self._check_cluster(cluster)
        _require_signatures(table)
        approx = table.signature_column("approx")
        row_shards = self._shards_for_column(cluster, approx)
        return self._sharded(
            cluster,
            approx,
            [(int(s), np.flatnonzero(row_shards == s)) for s in np.unique(row_shards)],
            lambda owners: _table_core(owners, table),
            _table_rows(table),
        )

    def _sharded(
        self,
        cluster: str,
        approx: "Sequence[int] | np.ndarray",
        groups: "list[tuple[int, list[int] | np.ndarray]]",
        price: "Callable[[list], _Answer]",
        rows: "Callable[[list[int]], FeatureTable]",
    ) -> np.ndarray:
        """The one fan-out every batched entry point runs.

        ``groups`` holds each owning shard's row indices (shards ascending,
        rows in input order) over the ``approx`` column.  ``price(owners)``
        is a service-module pricing core over ``(service, row indices)``
        owners, and ``rows(positions)`` packs rows for the heuristic floor.

        When :meth:`_fusable` admits the call, its first rung is one
        ``price`` call with every owner, written straight into the answer;
        each owner makes its one breaker record (:meth:`_settle`), and only
        an owner whose rung failed walks its ladder (:meth:`_guarded`) from
        its first retry.  Otherwise every owner walks its own ladder.  A
        call with no rows has no owner and charges no shard.
        """
        if self._fusable(groups):
            shards = self._shards
            out, failures = price([(shards[shard][cluster], idx) for shard, idx in groups])
            for (shard, _), failure in zip(groups, failures):
                self._settle(shard, failure)
            if not any(failures):
                return out
            # Every owner's first-rung record comes before any ladder's.
            for (shard, idx), failure in zip(groups, failures):
                if failure is not None:
                    out[idx] = self._guarded(cluster, shard, idx, approx, price, rows, 1)
            return out
        answers = self._fan_out(
            [
                partial(self._guarded, cluster, shard, idx, approx, price, rows)
                for shard, idx in groups
            ]
        )
        out = np.empty(len(approx), dtype=float)
        for (_, idx), values in zip(groups, answers):
            out[idx] = values
        return out

    def resource_profiles(
        self, cluster: str, table: FeatureTable
    ) -> list[ResourceProfile | None]:
        """Batched Section-5.3 profiles of a table's rows, sharded and
        merged in input order: one read of the shared bank, each owner
        charged the lookups of its own covered rows (the profile core)."""
        _require_signatures(table)
        groups = self._group_rows(cluster, table.signature_column("approx").tolist())
        try:
            return _profile_core(
                [(self._shards[shard][cluster], idx) for shard, idx in groups], table
            )
        except FeatureValidationError:
            raise
        except Exception as exc:
            shard = groups[0][0]
            raise ShardError(f"shard {shard} failed during fan-out: {exc}", shard=shard) from exc

    # ------------------------------------------------------------------ #
    # The first rung every owner shares
    # ------------------------------------------------------------------ #

    def _fusable(self, groups: "list[tuple[int, object]]") -> bool:
        """Whether one call's owners share one first-rung core call: no
        fault injector (each shard call is then a chaos site of its own) and
        every owner's breaker CLOSED (:meth:`ShardHealth.allow` then admits
        a call without mutating anything)."""
        if self._injector is not None:
            return False
        health = self._health
        for shard, _ in groups:
            if health[shard].state is not BreakerState.CLOSED:
                return False
        return True

    def _settle(self, shard: int, failure: Exception | None) -> bool:
        """A rung's one breaker record on ``shard``: whether it answered
        (``failure`` is ``None``) or what its call raised.

        The only place a rung's outcome reaches a breaker: the first rung
        every owner shares and each ladder rung (:meth:`_rung`) settle
        here.  Values need no answer check here: a ladder rung checked
        them, and on the first rung each one passed its owner's output
        validation (on in every service the router builds) before the core
        returned or cached it, with no injector in between.
        """
        health = self._health[shard]
        if failure is None:
            health.record_success()
            return True
        health.record_failure(timeout=isinstance(failure, ShardTimeoutError))
        return False

    def _group_rows(
        self, cluster: str, approx: Sequence[int]
    ) -> list[tuple[int, list[int]]]:
        """Input indices per owning shard, shards in ascending order.

        The cluster is validated once and each row is one read of its
        route memo; only a template the memo does not hold asks the ring.
        """
        routes = self._routes[self._check_cluster(cluster)]
        groups: dict[int, list[int]] = {}
        for i, template in enumerate(approx):
            shard = routes.get(template)
            if shard is None:
                shard = self._route(cluster, routes, template)
            rows = groups.get(shard)
            if rows is None:
                groups[shard] = [i]
            else:
                rows.append(i)
        return sorted(groups.items())

    # ------------------------------------------------------------------ #
    # Optimizer-facing clients
    # ------------------------------------------------------------------ #

    def client(self, cluster: str | None = None) -> "ClusterClient":
        """A CleoService-shaped view of this router bound to one cluster
        (a fresh view per call: a cached one would make the router a cycle)."""
        return ClusterClient(self, self._default_cluster(cluster))

    def predict_plan(
        self, cluster: str, root: PhysicalOp, estimator: CardinalityEstimator
    ) -> float:
        """Total cost of a whole-plan request through :meth:`predict_inputs`
        (the service's plan table and fold, so bitwise its total)."""
        return price_plan(self.client(cluster), root, estimator)

    def cost_model(self, cluster: str | None = None) -> CostModel:
        """An optimizer-facing cost model that prices through the fleet."""
        return self.client(cluster).cost_model()

    # ------------------------------------------------------------------ #
    # Stats and lifecycle
    # ------------------------------------------------------------------ #

    def _services(self) -> Iterator[CleoService]:
        for shard in self._shards:
            yield from shard.values()

    def stats(self) -> ServiceStats:
        """Aggregated counters across every shard and cluster.

        Router-level reliability counters (ladder retries, breaker opens,
        degraded floor predictions, hedges) are merged in; on the zero-fault
        path all of them are zero and the aggregate is the shards' own.
        """
        base = ServiceStats.aggregate(s.stats() for s in self._services())
        with self._ladder_lock:
            retries, degraded, hedges = self._retries, self._degraded, self._hedges
        opens = sum(h.breaker_opens for h in self._health)
        return dataclass_replace(
            base,
            retries=base.retries + retries,
            breaker_opens=base.breaker_opens + opens,
            degraded_predictions=base.degraded_predictions + degraded,
            hedged_requests=base.hedged_requests + hedges,
        )

    def resilience_stats(self) -> list[ShardHealthStats]:
        """Per-shard health snapshots."""
        return [health.stats() for health in self._health]

    def fault_stats(self) -> dict[str, int]:
        """Injected-fault counts by kind (empty without an injector)."""
        if self._injector is None:
            return {}
        return self._injector.stats()

    def hedge_stats(self) -> dict[str, int]:
        """Hedged-request activity: fired and won (answered from the
        successor instead of waiting out the owner's spike)."""
        with self._ladder_lock:
            return {"hedges": self._hedges, "hedge_wins": self._hedge_wins}

    # ------------------------------------------------------------------ #
    # Durable health state
    # ------------------------------------------------------------------ #

    def export_health(self) -> dict:
        """Versioned snapshot of every shard's breaker for persistence.

        Pair with :meth:`restore_health` on a freshly constructed router
        (same shard count) after a process restart: breakers resume OPEN /
        mid-cooldown / HALF_OPEN exactly where the dead process left them,
        instead of every restart resetting the fleet to CLOSED and
        re-exposing it to a still-failing shard.
        """
        return health_state_to_dict([h.snapshot() for h in self._health])

    def restore_health(self, payload: dict) -> None:
        """Resume breaker state exported by :meth:`export_health`.

        All or nothing: the envelope and every shard's snapshot are checked
        before any breaker is touched, so a malformed or foreign state
        raises :class:`~repro.common.errors.ModelFileError` (a
        ``ValueError``) and leaves every breaker as it was.
        """
        snapshots = health_state_from_dict(payload)
        if len(snapshots) != len(self._health):
            raise ModelFileError(
                f"health state has {len(snapshots)} shards, router has "
                f"{len(self._health)}"
            )
        for health, snapshot in zip(self._health, snapshots):
            health.check_snapshot(snapshot)
        for health, snapshot in zip(self._health, snapshots):
            health.restore(snapshot)

    def shard_stats(self) -> list[ServiceStats]:
        """Per-shard aggregated counters (load-balance introspection)."""
        return [
            ServiceStats.aggregate(s.stats() for s in shard.values())
            for shard in self._shards
        ]

    @property
    def lookup_count(self) -> int:
        """Model lookups across the fleet plus the base predictors."""
        total = sum(s.predictor.lookup_count for s in self._services())
        return total + sum(p.lookup_count for p in self._base.values())

    def reset_stats(self) -> None:
        for service in self._services():
            service.reset_stats()
            service.predictor.reset_lookup_count()
        with self._ladder_lock:
            self._retries = 0
            self._degraded = 0
            self._hedges = 0
            self._hedge_wins = 0
        for health in self._health:
            health.reset_stats()
        if self._injector is not None:
            self._injector.reset_stats()

    def clear_caches(self) -> None:
        for cluster in self._base:
            self._clear_cluster(cluster)

    def _clear_cluster(self, cluster: str) -> None:
        """Drop one cluster's cached predictions and route memo."""
        for shard in self._shards:
            shard[cluster].clear_caches()
        with self._route_lock:
            self._routes[cluster].clear()

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedCleoRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def describe(self) -> str:
        injector = self._injector
        suffix = f", {injector.policy.name}" if injector is not None else ""
        return (
            f"ShardedCleoRouter({len(self._base)} clusters x "
            f"{self.ring.n_shards} shards, {self.n_workers} workers{suffix})"
        )


class ClusterClient:
    """One cluster's view of a router: the row surface with ``cluster`` bound.

    What :class:`~repro.core.cost_model.CleoCostModel` needs from a
    :class:`~repro.serving.service.CleoService`, re-pointed at the fleet.
    """

    def __init__(self, router: ShardedCleoRouter, cluster: str) -> None:
        self.router = router
        self.cluster = cluster

    @property
    def predictor(self) -> CleoPredictor:
        """The cluster's base (unsharded) predictor view."""
        return self.router._base[self.cluster]

    def predict_batch(self, requests: Sequence[PredictionRequest]) -> np.ndarray:
        return self.router.predict_batch(self.cluster, requests)

    def predict_inputs(self, table: FeatureTable) -> np.ndarray:
        return self.router.predict_inputs(self.cluster, table)

    def predict_table(self, table: FeatureTable) -> np.ndarray:
        return self.router.predict_table(self.cluster, table)

    def resource_profiles(self, table: FeatureTable) -> list[ResourceProfile | None]:
        return self.router.resource_profiles(self.cluster, table)

    def cost_model(self) -> CostModel:
        from repro.core.cost_model import CleoCostModel

        return CleoCostModel(self.predictor, service=self)

    def clear_caches(self) -> None:
        """Drop this cluster's caches; other clusters keep theirs."""
        self.router._clear_cluster(self.cluster)
