"""Tests for the sharded serving tier (``repro.serving.shard``).

The load-bearing guarantees:

* routing is a pure function of ``(cluster, template signature)`` through
  ``stable_hash`` — no builtin ``hash`` anywhere on the path;
* every batch entry point merges per-shard results back in input order,
  **bitwise identical** to one single-process ``CleoService`` pricing the
  whole batch, for any shard/worker count;
* fleet statistics aggregate exactly (no counters lost to sharding or to
  concurrent fan-out).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.common.hashing import stable_hash
from repro.core.predictor import CleoPredictor
from repro.cost.default_model import DefaultCostModel
from repro.features.extract import feature_input_for
from repro.features.table import FeatureTable
from repro.plan.physical import PhysOpType
from repro.plan.signatures import SignatureBundle
from repro.plan.stages import build_stage_graph
from repro.serving import CleoService, PredictionRequest
from repro.serving.faults import FaultInjector, FaultPolicy
from repro.serving.service import ServiceStats
from repro.serving.shard import HashRing, ShardedCleoRouter, route_key
from repro.serving.shard.routing import _RING_SALT

# ------------------------------------------------------------------ #
# Fixtures
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def records(tiny_bundle):
    """A deterministic slice of the tiny workload's operator stream."""
    records = list(tiny_bundle.log.operator_records())[:600]
    assert len(records) == 600
    return records


@pytest.fixture(scope="module")
def requests(records):
    return [PredictionRequest.for_record(r) for r in records]


@pytest.fixture()
def baseline(tiny_predictor):
    return CleoService(tiny_predictor)


def per_row_floor(inputs) -> np.ndarray:
    """The ladder's heuristic floor, one row at a time: each input's
    ``DefaultCostModel`` COMPUTE cost, read off the row, not a table (finite
    on every row here, so the router's bound leaves it as it is)."""
    cost = DefaultCostModel().operator_cost_from_stats
    return np.array(
        [
            cost(
                PhysOpType.COMPUTE,
                float(f.input_card),
                float(f.output_card),
                float(f.avg_row_bytes),
                max(1, int(f.partition_count)),
            )
            for f in inputs
        ],
        dtype=float,
    )


def make_router(tiny_predictor, **kwargs) -> ShardedCleoRouter:
    return ShardedCleoRouter({"cluster1": tiny_predictor}, **kwargs)


# ------------------------------------------------------------------ #
# Hash ring
# ------------------------------------------------------------------ #


class TestHashRing:
    def test_rejects_bad_topologies(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for_key(key) for key in range(1000)} == {0}

    def test_positions_come_from_stable_hash(self):
        """Virtual nodes sit exactly at stable_hash(salt, shard, replica)."""
        ring = HashRing(3, replicas=8)
        expected = {
            stable_hash(_RING_SALT, shard, replica): shard
            for shard in range(3)
            for replica in range(8)
        }
        for position, owner in zip(ring._positions, ring._owners):
            assert expected[int(position)] == int(owner)

    def test_every_shard_owns_some_keys(self):
        ring = HashRing(4)
        owners = [ring.shard_for_key(route_key("cluster1", t)) for t in range(2000)]
        spread = np.bincount(owners, minlength=4)
        assert np.all(spread > 0)

    def test_route_key_is_stable_hash(self):
        assert route_key("cluster1", 77) == stable_hash("cluster1", 77)


# ------------------------------------------------------------------ #
# Routing through the router
# ------------------------------------------------------------------ #


class TestRouting:
    def test_needs_at_least_one_cluster(self):
        with pytest.raises(ValueError):
            ShardedCleoRouter({})

    def test_rejects_bad_worker_count(self, tiny_predictor):
        with pytest.raises(ValueError):
            make_router(tiny_predictor, n_workers=0)

    def test_unknown_cluster_raises(self, tiny_predictor, requests):
        with make_router(tiny_predictor, n_shards=2) as router:
            with pytest.raises(KeyError):
                router.predict_batch("nope", requests[:4])
            with pytest.raises(KeyError):
                router.shard_for("nope", 1)

    def test_template_affinity(self, tiny_predictor, requests):
        """Every request of a template lands on one shard, so per-shard
        in-batch deduplication sees every duplicate a single service would."""
        with make_router(tiny_predictor, n_shards=4) as router:
            owners: dict[int, int] = {}
            for request in requests:
                shard = router.shard_for("cluster1", request.signatures.approx)
                assert owners.setdefault(request.signatures.approx, shard) == shard

    def test_routing_uses_only_stable_hash(self, tiny_predictor, requests):
        """Shard assignment is reproducible from stable_hash alone."""
        with make_router(tiny_predictor, n_shards=4) as router:
            ring = HashRing(4)
            for request in requests[:100]:
                approx = request.signatures.approx
                expected = ring.shard_for_key(stable_hash("cluster1", int(approx)))
                assert router.shard_for("cluster1", approx) == expected

    def test_route_memo_is_bounded_and_dropped_with_the_caches(
        self, tiny_predictor, requests, monkeypatch
    ):
        """Ad-hoc traffic mints a new template per query: the route memo
        starts over at its limit instead of growing with every template
        ever routed, stays correct across the reset, and goes with
        ``clear_caches()``."""
        from repro.serving.shard import router as router_module

        limit = 32
        monkeypatch.setattr(router_module, "_ROUTE_MEMO_LIMIT", limit)
        adhoc = [
            PredictionRequest(
                requests[i % len(requests)].features,
                requests[i % len(requests)].signatures._replace(
                    approx=10_000_019 * (i + 1)
                ),
            )
            for i in range(10 * limit)
        ]
        with make_router(tiny_predictor, n_shards=4) as router:
            ring = HashRing(4)
            memo = router._routes["cluster1"]
            for start in range(0, len(adhoc), 40):
                chunk = adhoc[start : start + 40]
                router.predict_batch("cluster1", chunk)
                assert len(memo) <= limit
                for shard, rows in router._group_rows(
                    "cluster1", [r.signatures.approx for r in chunk]
                ):
                    for i in rows:
                        template = chunk[i].signatures.approx
                        assert shard == ring.shard_for_key(route_key("cluster1", template))
                        assert shard == router.shard_for("cluster1", template)
                assert len(memo) <= limit
            assert 0 < len(memo) <= limit
            router.clear_caches()
            assert len(memo) == 0
            assert router.shard_for("cluster1", adhoc[0].signatures.approx) == (
                ring.shard_for_key(route_key("cluster1", adhoc[0].signatures.approx))
            )

    def test_accepts_service_as_predictor(self, tiny_predictor, requests, baseline):
        """A CleoService stands in for its predictor at construction."""
        with ShardedCleoRouter({"cluster1": CleoService(tiny_predictor)}) as router:
            assert np.array_equal(
                router.predict_batch("cluster1", requests[:50]),
                baseline.predict_batch(requests[:50]),
            )

    def test_default_cluster_requires_unambiguity(self, tiny_predictor):
        with ShardedCleoRouter(
            {"a": tiny_predictor, "b": tiny_predictor}
        ) as router:
            with pytest.raises(ValueError):
                router.client()
        with make_router(tiny_predictor) as router:
            assert router.client().cluster == "cluster1"


# ------------------------------------------------------------------ #
# Bitwise parity with the single-process service
# ------------------------------------------------------------------ #

CONFIGS = [(1, 1), (2, 1), (3, 2), (4, 4)]


class TestParity:
    @pytest.mark.parametrize("shards,workers", CONFIGS)
    def test_predict_batch(self, tiny_predictor, requests, baseline, shards, workers):
        expected = baseline.predict_batch(requests)
        with make_router(tiny_predictor, n_shards=shards, n_workers=workers) as router:
            assert np.array_equal(
                router.predict_batch("cluster1", requests), expected
            )

    @pytest.mark.parametrize("shards,workers", CONFIGS)
    def test_predict_inputs(self, tiny_predictor, requests, baseline, shards, workers):
        table = FeatureTable.from_inputs(
            [r.features for r in requests], [r.signatures for r in requests]
        )
        expected = baseline.predict_inputs(table)
        with make_router(tiny_predictor, n_shards=shards, n_workers=workers) as router:
            assert np.array_equal(router.predict_inputs("cluster1", table), expected)

    @pytest.mark.parametrize("shards,workers", CONFIGS)
    def test_predict_table(self, tiny_predictor, requests, baseline, shards, workers):
        table = FeatureTable.from_inputs(
            [r.features for r in requests], [r.signatures for r in requests]
        )
        expected = baseline.predict_table(table)
        with make_router(tiny_predictor, n_shards=shards, n_workers=workers) as router:
            assert np.array_equal(router.predict_table("cluster1", table), expected)

    def test_one_row_predict(self, tiny_predictor, requests, baseline):
        with make_router(tiny_predictor, n_shards=4) as router:
            for request in requests[:50]:
                row = FeatureTable.from_inputs([request.features], [request.signatures])
                ours = router.predict_inputs("cluster1", row)
                assert ours.tobytes() == baseline.predict_inputs(row).tobytes()

    def test_duplicates_dedup_within_their_shard(self, tiny_predictor, requests, baseline):
        doubled = list(requests[:100]) * 2
        expected = baseline.predict_batch(doubled)
        with make_router(tiny_predictor, n_shards=4) as router:
            assert np.array_equal(
                router.predict_batch("cluster1", doubled), expected
            )
            assert router.stats().in_batch_reuses >= 100

    def test_resource_profiles(self, tiny_predictor, requests, baseline):
        inputs = [r.features for r in requests[:200]]
        bundles = [r.signatures for r in requests[:200]]
        # The object-graph oracle: the most specific covering model's own
        # profile read, one row at a time.
        store = baseline.predictor.store
        expected = [
            best[1].resource_profile(f) if (best := store.most_specific(s)) else None
            for f, s in zip(inputs, bundles)
        ]
        with make_router(tiny_predictor, n_shards=3, n_workers=2) as router:
            table = FeatureTable.from_inputs(inputs, bundles)
            assert router.resource_profiles("cluster1", table) == expected

    def test_predict_plan(self, tiny_bundle, tiny_predictor, baseline):
        plans = list(tiny_bundle.runner.plans.values())[:10]
        with make_router(tiny_predictor, n_shards=4, n_workers=2) as router:
            for root in plans:
                expected = baseline.predict_plan(root, tiny_bundle.fresh_estimator())
                assert router.predict_plan(
                    "cluster1", root, tiny_bundle.fresh_estimator()
                ) == expected

    def test_cost_model_prices_batched(self, tiny_predictor):
        with make_router(tiny_predictor, n_shards=2) as router:
            model = router.cost_model("cluster1")
            assert model.supports_batched_pricing

    def test_explain_matches_service(self, tiny_bundle, tiny_predictor, baseline):
        estimator = tiny_bundle.fresh_estimator()
        ops = list(next(iter(tiny_bundle.runner.plans.values())).walk())
        with make_router(tiny_predictor, n_shards=4) as router:
            ours = [router.cost_model("cluster1").explain(op, estimator) for op in ops]
        assert ours == [baseline.cost_model().explain(op, estimator) for op in ops]

    def test_explain_walks_the_ladder(self, tiny_bundle, tiny_predictor):
        """An explanation reports the cost the fleet actually served: with
        every shard failing, the heuristic floor, not a shard's learned
        answer."""
        estimator = tiny_bundle.fresh_estimator()
        op = next(next(iter(tiny_bundle.runner.plans.values())).walk())
        injector = FaultInjector(FaultPolicy(name="killall", error_rate=1.0))
        with make_router(tiny_predictor, n_shards=2, fault_injector=injector) as router:
            model = router.cost_model("cluster1")
            explanation = model.explain(op, estimator)
            floor = per_row_floor([feature_input_for(op, estimator)])
        assert explanation.cost == floor[0]

    def test_every_entry_point_degrades_to_the_one_floor(
        self, tiny_predictor, requests
    ):
        """Rows, requests and tables share one heuristic floor."""
        inputs = [r.features for r in requests[:120]]
        bundles = [r.signatures for r in requests[:120]]
        injector = FaultInjector(FaultPolicy(name="killall", error_rate=1.0))
        with make_router(
            tiny_predictor, n_shards=2, fault_injector=injector
        ) as router:
            floor = per_row_floor(inputs)
            table = FeatureTable.from_inputs(inputs, bundles)
            answers = [
                router.predict_batch("cluster1", requests[:120]),
                router.predict_inputs("cluster1", table),
                router.predict_table("cluster1", table),
                np.concatenate(
                    [
                        router.predict_inputs(
                            "cluster1", FeatureTable.from_inputs([f], [s])
                        )
                        for f, s in zip(inputs, bundles)
                    ]
                ),
            ]
        for values in answers:
            assert np.array_equal(values, floor)


# ------------------------------------------------------------------ #
# One CleoCostModel over any backend
# ------------------------------------------------------------------ #


def _pricing_transcript(model, bundle) -> list:
    """Every optimizer-facing answer of ``model`` on the day-1 plans."""
    estimator = bundle.fresh_estimator()
    plans = [bundle.runner.plans[j.job_id] for j in bundle.log.jobs if j.day == 1]
    transcript: list = []
    inputs, bundles, lengths = [], [], []
    for plan in plans:
        ops = list(plan.walk())
        stages = [stage.operators for stage in build_stage_graph(plan).stages]
        transcript += [
            [model.operator_cost(op, estimator) for op in ops],
            [model.operator_cost(op, estimator, partition_override=7) for op in ops],
            model.plan_cost(plan, estimator),
            model.price_operators(ops, estimator).tolist(),
            model.price_stage_sweep(stages, estimator, [[1, 4, 64]] * len(stages)),
            [model.resource_profiles([op], estimator)[0] for op in ops],
            model.resource_profiles(ops, estimator),
            [model.explain(op, estimator) for op in ops],
        ]
        inputs += [feature_input_for(op, estimator) for op in ops]
        bundles += [SignatureBundle.of(op) for op in ops]
        lengths.append(len(ops))
    transcript.append(model.price_plans(FeatureTable.from_inputs(inputs, bundles), lengths))
    return transcript


class TestCostModelBackendParity:
    """The contract the deleted service-side twins carried by being copies:
    a ``CleoCostModel`` answers the same bits whichever row tier it prices
    through, and charges the same lookups and per-request counters."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_router_client_matches_plain_service(
        self, tiny_bundle, tiny_predictor, n_shards
    ):
        def view() -> CleoPredictor:
            return CleoPredictor(
                store=tiny_predictor.store,
                combined=tiny_predictor.combined,
                fallback_cost=tiny_predictor.fallback_cost,
            )

        service = CleoService(view(), prediction_cache_size=0)
        expected = _pricing_transcript(service.cost_model(), tiny_bundle)
        with ShardedCleoRouter(
            {"cluster1": view()}, n_shards=n_shards, prediction_cache_size=0
        ) as router:
            model = router.client().cost_model()
            assert _pricing_transcript(model, tiny_bundle) == expected
            assert router.lookup_count == service.lookup_count > 0
            ours, theirs = router.stats(), service.stats()
        if n_shards == 1:
            assert ours == theirs
        # Splitting a batch across shards adds sub-batches (and their
        # vectorized model calls); what is charged per request cannot move.
        for counter in (
            "predictions",
            "fallback_predictions",
            "in_batch_reuses",
            "cache",
            "degraded_predictions",
            "quarantined_models",
        ):
            assert getattr(ours, counter) == getattr(theirs, counter), counter


# ------------------------------------------------------------------ #
# FeatureTable.take (the table split primitive)
# ------------------------------------------------------------------ #


class TestTableTake:
    def test_take_commutes_with_prediction(self, tiny_predictor, requests, baseline):
        table = FeatureTable.from_inputs(
            [r.features for r in requests], [r.signatures for r in requests]
        )
        rng = np.random.default_rng(7)
        idx = rng.permutation(len(table))[:250]
        full = baseline.predict_table(table)
        taken = CleoService(tiny_predictor).predict_table(table.take(idx))
        assert np.array_equal(taken, full[idx])

    def test_take_preserves_signatures(self, requests):
        table = FeatureTable.from_inputs(
            [r.features for r in requests[:20]], [r.signatures for r in requests[:20]]
        )
        sub = table.take(np.array([3, 1, 4]))
        assert len(sub) == 3
        assert sub.has_signatures
        assert np.array_equal(
            sub.signature_column("approx"),
            table.signature_column("approx")[[3, 1, 4]],
        )


# ------------------------------------------------------------------ #
# Stats aggregation and lifecycle
# ------------------------------------------------------------------ #


class TestStatsAndLifecycle:
    def test_fleet_counters_sum_exactly(self, tiny_predictor, requests):
        with make_router(tiny_predictor, n_shards=4) as router:
            router.predict_batch("cluster1", requests)
            stats = router.stats()
            assert stats.predictions == len(requests)
            per_shard = router.shard_stats()
            assert sum(s.predictions for s in per_shard) == len(requests)
            assert sum(s.batches for s in per_shard) == stats.batches
            assert stats.cache.requests == sum(
                s.cache.requests for s in per_shard
            )

    def test_aggregate_is_counterwise_sum(self, baseline, requests):
        baseline.predict_batch(requests[:100])
        one = baseline.stats()
        double = ServiceStats.aggregate([one, one])
        assert double.predictions == 2 * one.predictions
        assert double.cache.hits == 2 * one.cache.hits
        assert double.cache.capacity == 2 * one.cache.capacity

    def test_reset_and_clear(self, tiny_predictor, requests):
        with make_router(tiny_predictor, n_shards=2) as router:
            router.predict_batch("cluster1", requests[:100])
            assert router.stats().predictions == 100
            assert router.lookup_count > 0
            router.reset_stats()
            router.clear_caches()
            assert router.stats().predictions == 0
            assert router.stats().cache.size == 0

    def test_close_is_idempotent(self, tiny_predictor):
        router = make_router(tiny_predictor, n_workers=4)
        router.close()
        router.close()

    def test_concurrent_callers_lose_no_counters(self, tiny_predictor, requests):
        """Many client threads against one router: counters still sum."""
        with make_router(tiny_predictor, n_shards=2, n_workers=2) as router:
            errors: list[Exception] = []

            def hammer() -> None:
                try:
                    for _ in range(5):
                        router.predict_batch("cluster1", requests[:80])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert router.stats().predictions == 8 * 5 * 80
