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
  through its own service.  A call with no fault injector whose owners'
  breakers are all CLOSED runs its *first rung* as one core call with
  every owner; each owner's answer then makes one health record, and an
  owner that failed walks its degradation ladder from the first retry.  Under an injector, or with an owner's breaker not
  CLOSED, each owner walks its own ladder, every rung a one-owner core
  call (on a thread pool when ``n_workers > 1``).  LRUs, counters,
  breakers, quarantine ledgers and ladders stay per shard, and each
  owner's counters are those a standalone service fed only its rows would
  show.  Every per-row computation in the packed runtime is batch-size
  invariant, so the merged predictions are bitwise identical to one
  single-process :class:`~repro.serving.service.CleoService` pricing the
  whole batch — the property the serving load test asserts as
  ``predictions_bitwise_identical``.

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
    _BOUNDED_DEFAULT_COST,
    CleoService,
    PredictionRequest,
    ServiceStats,
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
from repro.serving.shard.routing import DEFAULT_REPLICAS, HashRing, route_key

_T = TypeVar("_T")

#: Templates memoized per cluster before the route memo starts over (entries
#: are pure recomputations of the ring lookup): ad-hoc traffic mints a new
#: approximate signature per query and must not grow the router forever.
_ROUTE_MEMO_LIMIT = 1 << 16

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
        n_workers: thread-pool width for the per-owner ladders of a call
            under a fault injector or a breaker that is not CLOSED; ``1``
            runs them inline (still sharded caches, no threads).  Every
            other call prices all its owners in one inline core call,
            whatever the width.
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
    non-negative) before being accepted: on a ladder rung by the router
    (``validate_outputs``), on the first rung every owner shares by the
    owner's own output validation.  With no faults injected the
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
        retry: the owner's own rung already failed on the first rung every
        owner shared (:meth:`_sharded`).
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
            lambda idx: self._heuristic_inputs([requests[i].features for i in idx]),
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
        approx = table.signature_column("approx").tolist()
        groups = self._group_rows(cluster, approx)
        floor = self._table_floor(table)
        if not self._shards[0][cluster].prediction_cache_enabled:
            return self._sharded(
                cluster, approx, groups, lambda owners: _table_core(owners, table), floor
            )
        keys, rows = table.row_keys(), _table_rows(table)
        return self._sharded(
            cluster, approx, groups, lambda owners: _cached_core(owners, keys, rows), floor
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
            self._table_floor(table),
        )

    def _table_floor(self, table: FeatureTable) -> Callable[[np.ndarray], np.ndarray]:
        """The heuristic floor of some of ``table``'s rows, from its columns."""
        return lambda idx: self._heuristic_floor(zip(*_FLOOR_STATS(table.take(idx))))

    def _sharded(
        self,
        cluster: str,
        approx: "Sequence[int] | np.ndarray",
        groups: "list[tuple[int, list[int] | np.ndarray]]",
        price: "Callable[[list], list[np.ndarray | Exception]]",
        floor: "Callable[[list[int] | np.ndarray], np.ndarray]",
    ) -> np.ndarray:
        """The one fan-out every batched entry point runs.

        ``groups`` holds each owning shard's row indices (shards ascending,
        rows in input order) over the ``approx`` column.  ``price(owners)``
        is a service-module pricing core over ``(service, row indices)``
        owners — one answer per owner, its values or the exception its part
        raised — and ``floor(idx)`` is the heuristic floor of some rows.

        When :meth:`_fusable` admits the call, its first rung is one
        ``price`` call with every owner; each owner's answer is settled by
        :meth:`_settle`, and an owner whose rung failed walks the rest of
        the ladder from its first retry.  Otherwise every owner walks its
        own ladder under the fault token ``(rows, first row's template)``.
        Every ladder rung is a one-owner ``price`` call on the rung's
        shard.  Answers merge back in input order; a call with no rows has
        no owner and charges no shard.
        """
        shards = self._shards

        def ladder(shard: int, idx: "list[int] | np.ndarray", first: int = 0):
            return self._guarded(
                cluster,
                shard,
                lambda s: _only(price([(shards[s][cluster], idx)])),
                (len(idx), int(approx[idx[0]])),
                lambda: floor(idx),
                first,
            )

        if self._fusable(groups):
            answers = price([(shards[shard][cluster], idx) for shard, idx in groups])
            answers = [
                self._settle(shard, answer)
                for (shard, _), answer in zip(groups, answers)
            ]
            for pos, (shard, idx) in enumerate(groups):
                if answers[pos] is None:
                    answers[pos] = ladder(shard, idx, 1)
        else:
            tasks = [(lambda s=shard, i=idx: ladder(s, i)) for shard, idx in groups]
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
        merged in input order: one read of the shared bank, each owner
        charged the lookups of its own covered rows (the profile core)."""
        _require_signatures(table)
        groups = self._group_rows(cluster, table.signature_column("approx").tolist())
        answers = _profile_core(
            [(self._shards[shard][cluster], idx) for shard, idx in groups], table
        )
        out: list[ResourceProfile | None] = [None] * len(table)
        for (shard, idx), answer in zip(groups, answers):
            if isinstance(answer, Exception):
                raise self._fan_out_error(answer, [shard], 0) from answer
            for i, profile in zip(idx, answer):
                out[i] = profile
        return out

    # ------------------------------------------------------------------ #
    # The first rung every owner shares
    # ------------------------------------------------------------------ #

    def _fusable(self, groups: "list[tuple[int, object]]") -> bool:
        """Whether one call's owners share one first-rung core call.

        Only state the router observes decides it: no fault injector (each
        shard call is then a chaos site of its own) and every owner's
        breaker CLOSED — the state in which :meth:`ShardHealth.allow`
        admits a call without mutating anything.
        """
        if self._injector is not None:
            return False
        health = self._health
        return health is None or all(
            health[shard].state is BreakerState.CLOSED for shard, _ in groups
        )

    def _settle(
        self, shard: int, answer: "np.ndarray | Exception"
    ) -> np.ndarray | None:
        """One owner's first-rung ``answer`` and its one health record;
        ``None`` when the rung failed.

        The fail-fast router raises a failure as a :class:`ShardError`
        naming the shard; the hardened one records it, and the owner walks
        its ladder from the first retry.  Values need no answer check here:
        each one passed its owner's output validation (on in every service
        the router builds) before the core returned or cached it, and no
        injector sits between the core and this rung.
        """
        health = self._health
        if isinstance(answer, Exception):
            if health is None:
                if isinstance(answer, ShardError):
                    raise answer
                raise self._fan_out_error(answer, [shard], 0) from answer
            health[shard].record_failure(timeout=isinstance(answer, ShardTimeoutError))
            return None
        if health is not None:
            health[shard].record_success()
        return answer

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
