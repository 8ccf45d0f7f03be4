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
  merge answers back **in input order**.  A call several shards own takes
  the *fused first rung* when no fault injector is configured and every
  owner's breaker is CLOSED: each owner probes its own LRU, the union of
  every owner's distinct misses is input-checked once and priced in **one
  pass** over the shared bank (model calls charged to the first owner with
  a miss), and each owner then runs its service's output validation and
  repair on its slice, the router's answer check, its LRU fill and one
  health record.  LRUs, counters, breakers, quarantine ledgers and ladders
  stay per shard, and each owner's counters are those of the per-shard
  path.  Otherwise — an injector, one owning shard, or an owner's breaker
  not CLOSED — each owner's rows go through its own service's entry point,
  on a thread pool when ``n_workers > 1``.  Every per-row computation in
  the packed runtime is batch-size invariant, so the merged predictions
  are bitwise identical to one single-process :class:`~repro.serving.
  service.CleoService` pricing the whole batch — the property the serving
  load test asserts as ``predictions_bitwise_identical``.

Like the service, the router speaks only rows (plus ``predict_plan``, the
load replays' whole-plan request), and a single price is a one-row batch:
every entry point walks the one fan-out and the degradation ladder.
:class:`ClusterClient` binds one cluster so a
:class:`~repro.core.cost_model.CleoCostModel` prices through the fleet.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace as dataclass_replace
from operator import attrgetter
from threading import Lock
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import (
    FeatureValidationError,
    ModelFileError,
    ShardError,
    ShardTimeoutError,
)
from repro.core.learned_model import _MAX_PREDICT_SECONDS, ResourceProfile
from repro.core.packed import resource_profiles_most_specific
from repro.core.predictor import CleoPredictor
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import CostModel
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.plan.physical import PhysicalOp, PhysOpType
from repro.core.serialization import health_state_from_dict, health_state_to_dict
from repro.serving.faults import FaultInjector, FaultKind
from repro.serving.service import (
    DEFAULT_PREDICTION_CACHE,
    CleoService,
    PredictionRequest,
    ServiceStats,
    _request_rows,
    _require_signatures,
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
from repro.serving.shard.routing import DEFAULT_REPLICAS, HashRing, route_key

_T = TypeVar("_T")

#: The ladder's last rung when even the heuristic produced garbage.
_BOUNDED_DEFAULT_COST = 1.0

#: Templates memoized per cluster before the route memo starts over (entries
#: are pure recomputations of the ring lookup): ad-hoc traffic mints a new
#: approximate signature per query and must not grow the router forever.
_ROUTE_MEMO_LIMIT = 1 << 16

#: An owner's slice of a shared pass that priced none of its rows.
_NOTHING = np.empty(0, dtype=float)

#: What the heuristic floor reads, off one row or (as columns) a whole table.
_FLOOR_STATS = attrgetter(
    "input_card", "output_card", "avg_row_bytes", "partition_count"
)


class ShardedCleoRouter:
    """Routes prediction traffic for many clusters across service shards.

    Args:
        predictors: ``cluster name -> CleoPredictor`` (or ``CleoService``,
            whose predictor is adopted) — the model bank of each cluster.
        n_shards: number of service shards.
        n_workers: thread-pool width for the per-shard fan-out; ``1`` runs
            shards inline (still sharded caches, no threads).  A call the
            fused first rung takes runs inline whatever the width.
        replicas: virtual nodes per shard on the hash ring.
        prediction_cache_size: **per-shard** prediction-LRU capacity (each
            shard node brings its own cache memory; total capacity grows
            with the fleet).  ``0`` disables caching on every shard.
        resilience: retry / circuit-breaker / degradation-ladder knobs.
            ``None`` disables the reliability layer entirely (the pre-ladder
            fail-fast router: one shard exception aborts the fan-out).
        fault_injector: deterministic chaos injection around every shard
            call (see :mod:`repro.serving.faults`); ``None`` disables it.

    With ``resilience`` enabled, every prediction walks a degradation
    ladder until something answers: the owning shard's packed learned
    prediction, then up to ``max_retries`` ring-successor shards (skipping
    shards whose circuit breaker is open, within ``deadline_s``), then a
    heuristic :class:`~repro.cost.default_model.DefaultCostModel` floor,
    then a bounded default.  Shard answers are validated (finite,
    non-negative) before being accepted.  With no faults injected the
    ladder's first rung always answers, so outputs and ``ServiceStats``
    stay bitwise/counter-identical to the fail-fast router.
    """

    def __init__(
        self,
        predictors: "Mapping[str, CleoPredictor | CleoService]",
        n_shards: int = 1,
        n_workers: int = 1,
        replicas: int = DEFAULT_REPLICAS,
        prediction_cache_size: int = DEFAULT_PREDICTION_CACHE,
        resilience: ResilienceConfig | None = DEFAULT_RESILIENCE,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if not predictors:
            raise ValueError("a router needs at least one cluster")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.ring = HashRing(n_shards, replicas=replicas)
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
        self._clients: dict[str, ClusterClient] = {}
        self._resilience = resilience
        self._injector = fault_injector
        self._health: list[ShardHealth] | None = (
            [ShardHealth(s, resilience) for s in range(self.ring.n_shards)]
            if resilience is not None
            else None
        )
        self._heuristic = DefaultCostModel()
        self._ladder_lock = Lock()
        self._retries = 0
        self._degraded = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._executor = (
            ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="cleo-shard"
            )
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

    def _fan_out(
        self,
        tasks: "Sequence[Callable[[], _T]]",
        shards: "Sequence[int] | None" = None,
    ) -> list[_T]:
        """Run shard tasks, on the pool when it exists and helps.

        A failing task no longer leaves sibling futures running
        unobserved: the remaining futures are cancelled (or awaited if
        already running) before the first failure propagates, wrapped in
        a :class:`~repro.common.errors.ShardError` naming the failing
        shard.  ``shards[i]`` is the shard behind ``tasks[i]``.
        """
        if self._executor is None or len(tasks) <= 1:
            results: list[_T] = []
            for pos, task in enumerate(tasks):
                try:
                    results.append(task())
                except (ShardError, FeatureValidationError):
                    # Shard failures keep their shard id; validation errors
                    # are the caller's bug, not a shard's.
                    raise
                except Exception as exc:
                    raise self._fan_out_error(exc, shards, pos) from exc
            return results
        futures = [self._executor.submit(task) for task in tasks]
        results = []
        first_error: Exception | None = None
        first_pos = -1
        for pos, future in enumerate(futures):
            if first_error is not None:
                # First failure wins; stragglers are cancelled if still
                # queued, otherwise awaited so no future outlives the call.
                future.cancel()
                try:
                    future.result()
                except Exception:
                    pass
                continue
            try:
                results.append(future.result())
            except Exception as exc:
                first_error = exc
                first_pos = pos
        if first_error is not None:
            if isinstance(first_error, (ShardError, FeatureValidationError)):
                raise first_error
            raise self._fan_out_error(first_error, shards, first_pos) from first_error
        return results

    @staticmethod
    def _fan_out_error(
        exc: Exception, shards: "Sequence[int] | None", pos: int
    ) -> ShardError:
        shard = int(shards[pos]) if shards is not None else None
        where = f"shard {shard}" if shard is not None else "a shard task"
        return ShardError(f"{where} failed during fan-out: {exc}", shard=shard)

    # ------------------------------------------------------------------ #
    # Degradation ladder
    # ------------------------------------------------------------------ #

    def _call_shard(
        self,
        shard: int,
        cluster: str,
        token: tuple[int, int],
        attempt: int,
        compute: Callable[[int], np.ndarray],
    ) -> np.ndarray:
        if self._injector is None:
            return compute(shard)
        return self._injector.invoke(
            shard, cluster, token, attempt, lambda: compute(shard)
        )

    def _bounded(self, values: np.ndarray) -> np.ndarray:
        out = np.asarray(values, dtype=float)
        out = np.where(np.isfinite(out), out, _BOUNDED_DEFAULT_COST)
        return np.clip(out, 0.0, _MAX_PREDICT_SECONDS)

    def _guarded(
        self,
        cluster: str,
        shard: int,
        compute: Callable[[int], np.ndarray],
        token: tuple[int, int],
        heuristic: Callable[[], np.ndarray],
        first: int = 0,
    ) -> np.ndarray:
        """Walk the degradation ladder for one sub-batch.

        ``compute(s)`` prices the sub-batch on shard ``s``; ``heuristic()``
        produces the :class:`DefaultCostModel` floor for the same rows.
        Rungs: owning shard -> ring-successor retries (breaker- and
        deadline-gated, at most ``max_retries``) -> heuristic floor ->
        bounded default.  Input validation errors are the caller's bug, not
        a shard failure, and re-raise immediately.  With no fault the first
        rung answers: one breaker read, the shard call, two reductions over
        its answer, one health record.  ``first=1`` starts at the first
        retry: the owner's own rung already failed inside a fused call
        (:meth:`_fused_cached`).
        """
        resilience = self._resilience
        if resilience is None:
            # Fail-fast (and, with an injector, chaos without the safety
            # net, used to measure the blast radius): faults propagate.
            return self._call_shard(shard, cluster, token, 0, compute)
        deadline = time.perf_counter() + resilience.deadline_s
        hedge_target = self._hedge_target(cluster, shard, token)
        if hedge_target is not None:
            # The deterministic analogue of first-response-wins hedging: the
            # owner's spike is known from the pure fault decision, so instead
            # of racing two in-flight calls the successor is asked first, at
            # ``attempt=1`` — the draw a ladder retry would see; the shared
            # read-only bank makes its answer bitwise identical to the
            # owner's.  A hedge that fails leaves the ladder to walk from the
            # owner, which still answers — late, but within the deadline.
            values = self._attempt(
                cluster, hedge_target, 1, compute, token, hedge=True
            )
            if values is not None:
                with self._ladder_lock:
                    self._hedge_wins += 1
                return values
        n_shards = self.ring.n_shards
        for attempt in range(first, min(resilience.max_retries, n_shards - 1) + 1):
            if attempt > first and time.perf_counter() > deadline:
                break
            target = (shard + attempt) % n_shards
            values = self._attempt(cluster, target, attempt, compute, token)
            if values is not None:
                return values
        # Every learned rung failed: heuristic floor, then bounded default.
        values = self._bounded(heuristic())
        with self._ladder_lock:
            self._degraded += len(values)
        return values

    def _attempt(
        self,
        cluster: str,
        target: int,
        attempt: int,
        compute: Callable[[int], np.ndarray],
        token: tuple[int, int],
        hedge: bool = False,
    ) -> np.ndarray | None:
        """One rung of the ladder: allow -> call -> validate -> record.

        ``None`` when the rung did not answer: the target's breaker is open,
        the call failed, or its answer is not serveable.  An admitted call
        off the owning shard counts as a retry — or, fired ahead of the
        owner, as a hedge.  Input validation errors are the caller's bug,
        not a shard failure, and re-raise.
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
        try:
            values = self._call_shard(target, cluster, token, attempt, compute)
        except FeatureValidationError:
            raise
        except Exception as exc:
            health.record_failure(timeout=isinstance(exc, ShardTimeoutError))
            return None
        if self._resilience.validate_outputs and not values_ok(values):
            health.record_failure()
            return None
        health.record_success()
        return values

    def _hedge_target(
        self, cluster: str, shard: int, token: tuple[int, int]
    ) -> int | None:
        """The ring successor to hedge to, when the owner would blow the SLO.

        Hedging fires only when a latency budget is configured, an injector
        is active (the zero-fault path must stay untouched), the fleet has
        a successor to ask, and the *pure* fault decision says the owning
        shard's attempt-0 call will sleep longer than the budget.  Keying
        the decision off :meth:`FaultInjector.decide` instead of a wall
        clock keeps hedged chaos runs bitwise replayable.
        """
        resilience = self._resilience
        injector = self._injector
        if (
            resilience is None
            or resilience.hedge_threshold_s is None
            or injector is None
            or self.ring.n_shards < 2
        ):
            return None
        if injector.policy.latency_spike_s <= resilience.hedge_threshold_s:
            return None
        if injector.decide(shard, cluster, token, 0) is not FaultKind.LATENCY:
            return None
        return (shard + 1) % self.ring.n_shards

    def _heuristic_inputs(self, inputs: Iterable[FeatureInput]) -> np.ndarray:
        """DefaultCostModel floor for a row sequence (COMPUTE coefficients)."""
        return self._heuristic_floor(map(_FLOOR_STATS, inputs))

    def _heuristic_floor(self, stats: Iterable[tuple]) -> np.ndarray:
        """The floor itself, over one ``_FLOOR_STATS`` 4-tuple per row."""
        cost = self._heuristic.operator_cost_from_stats
        return np.array(
            [
                cost(
                    PhysOpType.COMPUTE,
                    float(input_card),
                    float(output_card),
                    float(avg_row_bytes),
                    max(1, int(partition_count)),
                )
                for input_card, output_card, avg_row_bytes, partition_count in stats
            ],
            dtype=float,
        )

    # ------------------------------------------------------------------ #
    # Prediction entry points (cluster-scoped)
    # ------------------------------------------------------------------ #

    def predict_batch(
        self, cluster: str, requests: Sequence[PredictionRequest]
    ) -> np.ndarray:
        """A request batch, split by owning shard and merged in input order.

        Identical requests share a template, hence a shard, so the
        per-shard in-batch deduplication of
        :meth:`~repro.serving.service.CleoService.predict_batch` sees every
        duplicate pair a single service would.
        """
        approx = [request.signatures.approx for request in requests]
        return self._sharded(
            cluster,
            approx,
            self._group_rows(cluster, approx),
            lambda idx: [requests[i] for i in idx],
            lambda service, sub: service.predict_batch(sub),
            lambda sub: self._heuristic_inputs([r.features for r in sub]),
            lambda groups: self._fused_cached(
                cluster, groups, request_keys(requests), _request_rows(requests)
            ),
        )

    def predict_inputs(self, cluster: str, table: FeatureTable) -> np.ndarray:
        """A signature-bearing table through each shard's cached entry
        (:meth:`~repro.serving.service.CleoService.predict_inputs`), split
        by owning shard and merged in input order.

        The optimizer's flushes are a dozen rows or so: they route with one
        read of the route memo per row (:meth:`_group_rows`); a fused call
        keys the table once and gathers the union of the owners' misses
        once, and the per-shard path cuts each shard's rows with one gather.
        """
        _require_signatures(table)
        approx = table.signature_column("approx").tolist()
        groups = self._group_rows(cluster, approx)
        cached = self._shards[0][cluster].prediction_cache_enabled

        def fused(groups: list) -> "list[np.ndarray | None]":
            if cached:
                return self._fused_cached(cluster, groups, table.row_keys(), table.take)
            # A cache-less service prices this table as predict_table does.
            return self._fused_table(cluster, table, groups)

        return self._sharded_table(
            cluster,
            table,
            approx,
            groups,
            lambda shard, sub: shard.predict_inputs(sub),
            fused,
        )

    def predict_table(self, cluster: str, table: FeatureTable) -> np.ndarray:
        """A whole signature-bearing table, split by shard with array ops."""
        self._check_cluster(cluster)
        _require_signatures(table)
        n = len(table)
        if n == 0:
            return self._shards[0][cluster].predict_table(table)
        approx = table.signature_column("approx")
        owners = self._shards_for_column(cluster, approx)
        shards = np.unique(owners)
        if len(shards) == 1:
            groups = [(int(shards[0]), np.arange(n, dtype=np.int64))]
        else:
            groups = [(int(s), np.flatnonzero(owners == s)) for s in shards]
        return self._sharded_table(
            cluster,
            table,
            approx,
            groups,
            lambda shard, sub: shard.predict_table(sub),
            lambda groups: self._fused_table(cluster, table, groups),
        )

    def _sharded_table(
        self,
        cluster: str,
        table: FeatureTable,
        approx: "Sequence[int] | np.ndarray",
        groups: "list[tuple[int, list[int] | np.ndarray]]",
        call: Callable[[CleoService, FeatureTable], np.ndarray],
        fused: "Callable[[list], list[np.ndarray | None]]",
    ) -> np.ndarray:
        """:meth:`_sharded` over one table: a shard's sub-batch is its rows'
        gather (the table itself when it owns them all), and the floor reads
        the table's columns."""
        n = len(table)
        return self._sharded(
            cluster,
            approx,
            groups,
            lambda idx: table if len(idx) == n else table.take(idx),
            call,
            lambda sub: self._heuristic_floor(zip(*_FLOOR_STATS(sub))),
            fused,
        )

    def _sharded(
        self,
        cluster: str,
        approx: "Sequence[int] | np.ndarray",
        groups: "list[tuple[int, list[int] | np.ndarray]]",
        take: Callable[["list[int] | np.ndarray"], _T],
        call: Callable[[CleoService, _T], np.ndarray],
        floor: Callable[[_T], np.ndarray],
        fused: "Callable[[list], list[np.ndarray | None]]",
    ) -> np.ndarray:
        """The one fan-out every batched entry point runs.

        ``groups`` holds each owning shard's row indices (shards ascending,
        rows in input order) over the ``approx`` column; ``take(idx)`` cuts
        that shard's sub-batch, ``call(service, sub)`` prices it on one
        shard's service and ``floor(sub)`` is its heuristic floor.  Every
        sub-batch walks the degradation ladder under the fault token
        ``(rows, first row's template)`` and answers merge back in input
        order.

        When :meth:`_fusable` admits the call, ``fused(groups)`` answers
        every owner's first rung in one pass over the shared bank instead
        (``None`` for an owner whose rung failed); such an owner walks the
        rest of the ladder from its first retry.
        """

        def price(
            shard: int, idx: "list[int] | np.ndarray", first: int = 0
        ) -> np.ndarray:
            sub = take(idx)
            return self._guarded(
                cluster,
                shard,
                lambda s: call(self._shards[s][cluster], sub),
                (len(idx), int(approx[idx[0]])),
                lambda: floor(sub),
                first,
            )

        if self._fusable(groups):
            answers = fused(groups)
            for pos, (shard, idx) in enumerate(groups):
                if answers[pos] is None:
                    answers[pos] = price(shard, idx, 1)
        else:
            tasks = [(lambda s=shard, i=idx: price(s, i)) for shard, idx in groups]
            answers = self._fan_out(tasks, [shard for shard, _ in groups])
        if len(groups) == 1:
            return answers[0]  # one shard owns every row, already in order
        out = np.empty(len(approx), dtype=float)
        for (_, idx), values in zip(groups, answers):
            out[np.asarray(idx, dtype=np.int64)] = values
        return out

    def resource_profiles(
        self, cluster: str, table: FeatureTable
    ) -> list[ResourceProfile | None]:
        """Batched Section-5.3 profiles of a table's rows, sharded and
        merged in input order.

        A call :meth:`_fusable` admits reads the shared bank once and
        charges each owner the lookups of its own covered rows.
        """
        _require_signatures(table)
        n = len(table)
        groups = self._group_rows(cluster, table.signature_column("approx").tolist())
        if self._fusable(groups):
            services = [self._shards[shard][cluster] for shard, _ in groups]
            services[0]._check_table(table)
            try:
                profiles, _ = resource_profiles_most_specific(
                    services[0].predictor.store, table
                )
            except Exception as exc:
                raise self._fan_out_error(exc, [groups[0][0]], 0) from exc
            for (_, idx), service in zip(groups, services):
                service._charge_lookups(sum(profiles[i] is not None for i in idx))
            return profiles
        out: list[ResourceProfile | None] = [None] * n

        def profile(shard: int, idx: list[int]) -> list[ResourceProfile | None]:
            sub = table if len(idx) == n else table.take(idx)
            return self._shards[shard][cluster].resource_profiles(sub)

        tasks = [(lambda s=shard, i=idx: profile(s, i)) for shard, idx in groups]
        shards = [shard for shard, _ in groups]
        for (_, idx), profiles in zip(groups, self._fan_out(tasks, shards)):
            for i, value in zip(idx, profiles):
                out[i] = value
        return out

    # ------------------------------------------------------------------ #
    # The fused first rung: several owners, one pass over the shared bank
    # ------------------------------------------------------------------ #

    def _fusable(self, groups: "list[tuple[int, object]]") -> bool:
        """Whether one call's owners take the fused first rung.

        Only state the router observes decides it: no fault injector (each
        shard call is then a chaos site of its own), two or more owning
        shards, and every owner's breaker CLOSED — the state in which
        :meth:`ShardHealth.allow` admits a call without mutating anything.
        """
        if self._injector is not None or len(groups) < 2:
            return False
        health = self._health
        return health is None or all(
            health[shard].state is BreakerState.CLOSED for shard, _ in groups
        )

    def _rung_failed(self, shard: int, exc: Exception) -> None:
        """An owner's fused first rung raised ``exc``.

        Input validation errors are the caller's bug and re-raise.  The
        fail-fast router raises a :class:`ShardError` naming the shard; the
        hardened one records the failure and lets the owner walk its ladder
        from the first retry.
        """
        if isinstance(exc, FeatureValidationError):
            raise exc
        if self._health is None:
            if isinstance(exc, ShardError):
                raise exc
            raise self._fan_out_error(exc, [shard], 0) from exc
        self._health[shard].record_failure(timeout=isinstance(exc, ShardTimeoutError))

    def _settle(
        self,
        shard: int,
        service: CleoService,
        values: np.ndarray,
        rows: Callable[[], FeatureTable],
        fill: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray | None:
        """Finish one owner's fused rung on ``values``, its slice of the
        shared pass: the owner's output validation and repair (over
        ``rows()``), the router's own check, the owner's ``fill`` and one
        health record.  ``None`` when the rung failed."""
        try:
            values = service._validated(values, rows)
            resilience = self._resilience
            if resilience is not None and resilience.validate_outputs:
                if not values_ok(values):
                    self._health[shard].record_failure()
                    return None
            if fill is not None:
                values = fill(values)
        except Exception as exc:
            self._rung_failed(shard, exc)
            return None
        if self._health is not None:
            self._health[shard].record_success()
        return values

    def _fused_cached(
        self,
        cluster: str,
        groups: "list[tuple[int, list[int]]]",
        keys: Sequence[bytes],
        rows: Callable[[list[int]], FeatureTable],
    ) -> "list[np.ndarray | None]":
        """The cached entry points' fused first rung.

        Every owner probes its own LRU over its rows' ``keys``; the first
        occurrences of every owner's distinct misses (owners in shard
        order) are packed with ``rows(positions)`` into one table, checked
        once, and priced in one :meth:`CleoService._price_table` pass whose
        model calls are charged to the first owner with a miss.  Each
        owner's accounting, repair and LRU fill run through its own service
        on its slice, so its counters are those of the per-shard path.
        """
        services = [self._shards[shard][cluster] for shard, _ in groups]
        probes: list[tuple[list, dict] | None] = []
        for (shard, idx), service in zip(groups, services):
            try:
                probes.append(service._probe([keys[i] for i in idx]))
            except Exception as exc:
                self._rung_failed(shard, exc)
                probes.append(None)
        firsts: list[int] = []
        ends: list[int] = []
        for (_, idx), probe in zip(groups, probes):
            if probe is not None:
                firsts.extend(idx[positions[0]] for positions in probe[1].values())
            ends.append(len(firsts))
        table = rows(firsts) if firsts else None
        if table is not None:
            services[0]._check_table(table)
        counts: list[int] = []
        payer = None
        for service, probe in zip(services, probes):
            if probe is not None:
                counts.extend(service._charge(len(probe[0]), probe[1]))
                if payer is None and probe[1]:
                    payer = service
        priced = None
        if table is not None:
            try:
                priced = payer._price_table(table, counts)
            except Exception as exc:
                # Every owner fed the shared pass: every owner's rung failed.
                for (shard, _), probe in zip(groups, probes):
                    if probe is not None:
                        self._rung_failed(shard, exc)
                return [None] * len(groups)
        answers: list[np.ndarray | None] = []
        start = 0
        for (shard, _), service, probe, end in zip(groups, services, probes, ends):
            if probe is None:
                answers.append(None)
            else:
                lo = start  # this owner's misses are rows [lo, end) of the pass
                answers.append(
                    self._settle(
                        shard,
                        service,
                        priced[lo:end] if end > lo else _NOTHING,
                        lambda: table.take(np.arange(lo, end)),
                        lambda values: service._fill(*probe, values),
                    )
                )
            start = end
        return answers

    def _fused_table(
        self,
        cluster: str,
        table: FeatureTable,
        groups: "list[tuple[int, list[int] | np.ndarray]]",
    ) -> "list[np.ndarray | None]":
        """The cache-less entry points' fused first rung: the table is
        checked once, each owner is charged its rows' batch, predictions and
        lookups, the table is priced in one pass (model calls charged to
        the first owner), and each owner validates its rows' answers."""
        services = [self._shards[shard][cluster] for shard, _ in groups]
        services[0]._check_table(table)
        for (_, idx), service in zip(groups, services):
            service._charge_rows(len(idx))
        try:
            priced = services[0]._price_table(table)
        except Exception as exc:
            for shard, _ in groups:
                self._rung_failed(shard, exc)
            return [None] * len(groups)
        return [
            self._settle(shard, service, priced[idx], lambda: table.take(idx))
            for (shard, idx), service in zip(groups, services)
        ]

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
        """A CleoService-shaped view of this router bound to one cluster."""
        cluster = self._default_cluster(cluster)
        client = self._clients.get(cluster)
        if client is None:
            client = self._clients[cluster] = ClusterClient(self, cluster)
        return client

    def predict_plan(
        self, cluster: str, root: PhysicalOp, estimator: CardinalityEstimator
    ) -> float:
        """Total cost of a whole-plan request through the sharded batch path
        (the service's request list and fold, so bitwise its total)."""
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
        degraded floor predictions) are merged in.  When all of them are
        zero the aggregate object is exactly what the fail-fast router
        reported — the counter-parity contract of the zero-fault path.
        """
        base = ServiceStats.aggregate(s.stats() for s in self._services())
        with self._ladder_lock:
            retries, degraded, hedges = self._retries, self._degraded, self._hedges
        opens = (
            sum(h.breaker_opens for h in self._health)
            if self._health is not None
            else 0
        )
        if not (retries or degraded or opens or hedges):
            return base
        return dataclass_replace(
            base,
            retries=base.retries + retries,
            breaker_opens=base.breaker_opens + opens,
            degraded_predictions=base.degraded_predictions + degraded,
            hedged_requests=base.hedged_requests + hedges,
        )

    def resilience_stats(self) -> list[ShardHealthStats]:
        """Per-shard health snapshots (empty when resilience is disabled)."""
        if self._health is None:
            return []
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
        if self._health is None:
            raise ValueError("resilience is disabled; there is no health state")
        return health_state_to_dict([h.snapshot() for h in self._health])

    def restore_health(self, payload: dict) -> None:
        """Resume breaker state exported by :meth:`export_health`.

        All or nothing: the envelope and every shard's snapshot are checked
        before any breaker is touched, so a malformed or foreign state
        raises :class:`~repro.common.errors.ModelFileError` (a
        ``ValueError``) and leaves every breaker as it was.
        """
        if self._health is None:
            raise ValueError("resilience is disabled; there is no health state")
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
        if self._health is not None:
            for health in self._health:
                health.reset_stats()
        if self._injector is not None:
            self._injector.reset_stats()

    def clear_caches(self) -> None:
        for service in self._services():
            service.clear_caches()
        with self._route_lock:
            for routes in self._routes.values():
                routes.clear()

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
        extras = []
        if self._resilience is not None:
            extras.append("resilient")
        if self._injector is not None:
            extras.append(self._injector.policy.name)
        suffix = f", {'+'.join(extras)}" if extras else ""
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
        self.router.clear_caches()
