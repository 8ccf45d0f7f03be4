"""Tests for the serving façade (repro.serving).

The load-bearing guarantee: batched serving is *bitwise identical* to
one-at-a-time prediction while collapsing a workload's pricing into one
vectorized model call per covering (kind, signature) group.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.model_store import ModelStore, signature_for
from repro.core.predictor import CleoPredictor
from repro.features.table import FeatureTable
from repro.plan.signatures import SignatureBundle
from repro.reference import predict_most_specific_reference
from repro.serving import CleoService, LRUCache, PredictionRequest
from repro.serving.service import as_cost_model


@pytest.fixture(scope="module")
def workload_records(tiny_bundle):
    """At least 1000 operator instances from the tiny cluster workload."""
    records = list(tiny_bundle.log.operator_records())
    assert len(records) >= 1000, "tiny workload should exceed 1k operators"
    return records


@pytest.fixture()
def service(tiny_predictor):
    return CleoService(tiny_predictor)


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_bounded_with_lru_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the oldest
        cache.put("c", 3)
        assert len(cache) == 2
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


def _one_row_each(service, records) -> np.ndarray:
    """Every record priced as its own one-row batch."""
    return np.concatenate(
        [
            service.predict_inputs(FeatureTable.from_inputs([r.features], [r.signatures]))
            for r in records
        ]
    )


class TestBatchedPrediction:
    def test_batch_bitwise_identical_to_sequential(self, service, workload_records):
        """Acceptance: 1k+ operators, batched == one row at a time, bit for
        bit (the rows priced by a cache-off twin, so no answer is replayed)."""
        requests = [PredictionRequest.for_record(r) for r in workload_records]
        batched = service.predict_batch(requests)
        one_row = CleoService(service.predictor, prediction_cache_size=0)
        assert np.array_equal(batched, _one_row_each(one_row, workload_records))

    def test_one_vectorized_call_per_model_group(self, service, workload_records):
        """Acceptance: at most one vectorized call per (kind, signature)
        group (plus one combined-model matrix call), via ``stats()``."""
        requests = [PredictionRequest.for_record(r) for r in workload_records]
        unique = {r.key: r.signatures for r in requests}
        expected_groups = len(
            {
                (kind, signature_for(kind, signatures))
                for signatures in unique.values()
                for kind in ModelKind
                if service.store.lookup(kind, signatures) is not None
            }
        )
        service.reset_stats()
        service.predict_batch(requests)
        stats = service.stats()
        assert stats.individual_model_calls == expected_groups
        assert stats.combined_model_calls == 1
        assert stats.model_calls <= expected_groups + 1
        assert stats.predictions == len(requests)

    def test_cache_hits_counted_and_models_not_recalled(self, service, workload_records):
        requests = [PredictionRequest.for_record(r) for r in workload_records[:200]]
        first = service.predict_batch(requests)
        calls_after_first = service.stats().model_calls
        second = service.predict_batch(requests)
        stats = service.stats()
        assert np.array_equal(first, second)
        assert stats.model_calls == calls_after_first  # no new model work
        assert stats.cache_hits >= len({r.key for r in requests})

    def test_one_row_price_uses_cache(self, service, workload_records):
        record = workload_records[0]
        first = _one_row_each(service, [record])
        lookups_after_first = service.predictor.lookup_count
        second = _one_row_each(service, [record])
        assert first.tobytes() == second.tobytes()
        assert service.predictor.lookup_count == lookups_after_first
        assert service.stats().cache_hits >= 1

    def test_store_only_batch_matches_sequential(self, tiny_predictor, workload_records):
        """Without the combined model the grouped fallback chain batches too."""
        store_only = CleoPredictor(store=tiny_predictor.store)
        service = CleoService(store_only)
        requests = [PredictionRequest.for_record(r) for r in workload_records[:500]]
        batched = service.predict_batch(requests)
        sequential = predict_most_specific_reference(
            store_only.store,
            [r.features for r in workload_records[:500]],
            [r.signatures for r in workload_records[:500]],
            store_only.fallback_cost,
        )
        assert np.array_equal(batched, sequential)
        assert service.stats().combined_model_calls == 0

    def test_cache_disabled_recomputes(self, tiny_predictor, workload_records):
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        requests = [PredictionRequest.for_record(r) for r in workload_records[:50]]
        service.predict_batch(requests)
        first_calls = service.stats().model_calls
        service.predict_batch(requests)
        assert service.stats().model_calls == 2 * first_calls
        assert service.stats().cache_hits == 0

    def test_cache_disabled_lookup_accounting_matches_scalar(
        self, tiny_predictor, workload_records
    ):
        """In-batch dedup must not undercount the 5-lookups-per-sample
        accounting when the cache is off (Section 6.5 parity)."""
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        requests = [PredictionRequest.for_record(r) for r in workload_records]
        tiny_predictor.reset_lookup_count()
        service.predict_batch(requests)
        assert tiny_predictor.lookup_count == (
            len(requests) * CleoPredictor.LOOKUPS_PER_PREDICTION
        )


class TestExplain:
    def test_combined_tier(self, service, workload_records):
        record = workload_records[0]
        explanation = service.explain(record.features, record.signatures)
        assert explanation.source == "combined"
        assert explanation.cost == _one_row_each(service, [record])[0]

    def test_individual_tier_reports_most_specific_kind(
        self, tiny_predictor, workload_records
    ):
        store_only = CleoService(CleoPredictor(store=tiny_predictor.store))
        for record in workload_records[:100]:
            explanation = store_only.explain(record.features, record.signatures)
            best = tiny_predictor.store.most_specific(record.signatures)
            assert best is not None
            kind = best[0]
            assert explanation.source == kind.value
            assert explanation.model_kind == kind.value
            assert explanation.signature == signature_for(kind, record.signatures)
            if kind is SPECIFICITY_ORDER[0]:
                assert explanation.fallback_reason is None
            else:
                assert kind.value in explanation.fallback_reason

    def test_global_fallback_tier(self, workload_records):
        empty = CleoService(CleoPredictor(store=ModelStore(), fallback_cost=7.5))
        record = workload_records[0]
        explanation = empty.explain(record.features, record.signatures)
        assert explanation.source == "fallback"
        assert explanation.model_kind is None
        assert explanation.cost == 7.5
        assert "no trained model" in explanation.fallback_reason


class TestLifecycle:
    def test_save_load_round_trip(self, service, workload_records, tmp_path):
        path = tmp_path / "models.json"
        service.save(path)
        reloaded = CleoService.load(path)
        requests = [PredictionRequest.for_record(r) for r in workload_records[:200]]
        assert np.array_equal(
            service.predict_batch(requests), reloaded.predict_batch(requests)
        )
        assert reloaded.model_count == service.model_count

    def test_train_constructor(self, tiny_bundle):
        trained = CleoService.train(
            tiny_bundle.log, individual_days=[1, 2], combined_days=[2]
        )
        assert trained.model_count > 0
        record = next(tiny_bundle.log.operator_records())
        assert _one_row_each(trained, [record])[0] >= 0.0

    def test_ensure_idempotent(self, service, tiny_predictor):
        assert CleoService.ensure(service) is service
        wrapped = CleoService.ensure(tiny_predictor)
        assert isinstance(wrapped, CleoService)
        assert wrapped.predictor is tiny_predictor


class TestCostModelFacade:
    def test_cost_model_prices_like_predictor(self, service, tiny_bundle):
        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        estimator = tiny_bundle.fresh_estimator()
        model = service.cost_model()
        sequential = [model.operator_cost(op, estimator) for op in plan.walk()]
        total = model.plan_cost(plan, estimator)
        assert total == pytest.approx(sum(sequential))
        explanation = model.explain(next(plan.walk()), estimator)
        assert explanation.source == "combined"

    def test_as_cost_model(self, service):
        model = as_cost_model(service)
        assert model.service is service
        assert as_cost_model(model) is model

    def test_pricing_leaves_no_reference_to_the_plan(
        self, tiny_predictor, join_plan, estimator
    ):
        """Bundles live on the operators; the service keeps no ``(op,
        bundle)`` pairs (the old LRU pinned up to 8192 live operators)."""
        import gc
        import sys

        from repro.cost.default_model import DefaultCostModel
        from repro.optimizer.planner import QueryPlanner

        service = CleoService(tiny_predictor)
        plan = QueryPlanner(DefaultCostModel(), estimator).plan(join_plan).plan
        ops = list(plan.walk())
        gc.collect()  # the planner that built the plan is gone
        # PhysicalOp is slotted without ``__weakref__``, so count references.
        before = [sys.getrefcount(op) for op in ops]
        model = service.cost_model()
        model.plan_cost(plan, estimator)
        model.price_operators(ops, estimator)
        assert SignatureBundle.of(plan) is SignatureBundle.of(plan)
        assert service.stats().predictions == 2 * len(ops)
        assert [sys.getrefcount(op) for op in ops] == before
