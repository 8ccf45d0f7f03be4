"""The request path end to end: keys made once, counters exactly the parent's.

Three things the one-pass sub-batch rests on:

* a prediction-cache key is the request's row bytes — the same bytes a
  table row of it gets from ``FeatureTable.row_keys`` — computed once per
  request, and every copy (``replace``, pickle) carries its own;
* through the sharded router on the zero-fault path — default
  ``ResilienceConfig``, no injector — one replay of a request stream
  leaves every service, cache, shard and health counter exactly where the
  commit before the one-pass rewrite left it (values pinned below);
* a non-finite feature still raises before anything is priced or inserted.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import replace

import pytest

from repro.common.errors import FeatureValidationError
from repro.core.config import CleoConfig
from repro.core.trainer import CleoTrainer
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.plan.signatures import SignatureBundle
from repro.serving import CleoService, PredictionRequest
from repro.serving.cache import LRUCache
from repro.serving.service import request_keys
from repro.serving.shard import ShardedCleoRouter
from repro.serving.shard.health import BreakerState


def make_features(partition_count: float = 8.0) -> FeatureInput:
    return FeatureInput(
        input_card=1.5e6,
        base_card=2.5e7,
        output_card=3.5e4,
        avg_row_bytes=64.0,
        partition_count=partition_count,
        input_enc=0.25,
        params_enc=0.5,
        logical_count=3.0,
        depth=2.0,
    )


def make_bundle() -> SignatureBundle:
    return SignatureBundle(strict=2**63 + 5, approx=2**62 + 1, input=17, operator=2**64 - 1)


class TestKeysHashedOnce:
    def test_equal_requests_share_one_cache_entry(self):
        first = PredictionRequest(make_features(), make_bundle())
        second = PredictionRequest(make_features(), make_bundle())
        assert first is not second and first.features is not second.features
        assert first == second and hash(first.key) == hash(second.key)
        cache = LRUCache(4)
        cache.put(first.key, 1.25)
        cache.put(second.key, 2.5)
        assert len(cache) == 1 and cache.get(first.key) == 2.5

    def test_key_is_the_row_bytes(self):
        """One layout: a request's key is its row's key in any table."""
        request = PredictionRequest(make_features(), make_bundle())
        assert type(request.key) is bytes and len(request.key) == 104
        assert not gc.is_tracked(request.key)
        assert request.key is request.key  # computed once, then kept
        other = PredictionRequest(make_features(3.0), make_bundle())
        table = FeatureTable.from_inputs(
            [other.features, request.features, other.features],
            [other.signatures, request.signatures, other.signatures],
        )
        assert table.row_keys() == [other.key, request.key, other.key]
        assert request_keys([other, request]) == [other.key, request.key]
        assert request.key != other.key

    def test_keys_compare_bits(self):
        """``-0.0`` and ``0.0`` rows are two keys, a NaN row equals itself."""
        zero = PredictionRequest(replace(make_features(), params_enc=0.0), make_bundle())
        negative = PredictionRequest(replace(make_features(), params_enc=-0.0), make_bundle())
        assert zero == negative and zero.key != negative.key
        nan = replace(make_features(), output_card=float("nan"))
        assert PredictionRequest(nan, make_bundle()).key == PredictionRequest(
            nan, make_bundle()
        ).key

    def test_copies_carry_their_own_key(self):
        original = PredictionRequest(make_features(), make_bundle())
        key = original.key
        assert pickle.loads(pickle.dumps(original)).key == key
        moved = replace(original, features=make_features(32.0))
        assert moved.key == PredictionRequest(make_features(32.0), make_bundle()).key
        assert moved.key != key


# ------------------------------------------------------------------ #
# Counters through the router, pinned to the parent commit's values
# ------------------------------------------------------------------ #

#: (predictions, batches, cache hits, misses, evictions, size, individual
#: calls, combined calls, fallbacks, in-batch reuses), recorded on the commit
#: that still had a scalar path, with the replay's single prices issued as
#: one-row ``predict_inputs`` calls.
PINNED = {
    1: {
        "fleet": (1405, 55, 643, 648, 584, 64, 1140, 30, 0, 14),
        "shards": [(1405, 55, 643, 648, 584, 64, 1140, 30, 0, 14)],
        "health_calls": [55],
        "lookups": 3810,
    },
    3: {
        "fleet": (1405, 153, 657, 639, 447, 192, 1334, 81, 0, 9),
        "shards": [
            (351, 49, 151, 173, 109, 64, 311, 26, 0, 0),
            (435, 51, 201, 199, 135, 64, 423, 27, 0, 6),
            (619, 53, 305, 267, 203, 64, 600, 28, 0, 3),
        ],
        "health_calls": [49, 51, 53],
        "lookups": 3740,
    },
}


def counters(stats) -> tuple:
    assert (
        stats.retries,
        stats.breaker_opens,
        stats.degraded_predictions,
        stats.quarantined_models,
        stats.hedged_requests,
    ) == (0, 0, 0, 0, 0)
    return (
        stats.predictions,
        stats.batches,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.size,
        stats.individual_model_calls,
        stats.combined_model_calls,
        stats.fallback_predictions,
        stats.in_batch_reuses,
    )


@pytest.fixture(scope="module")
def records(tiny_bundle):
    records = list(tiny_bundle.log.operator_records())[:700]
    assert len(records) == 700
    return records


@pytest.fixture(scope="module")
def requests(records):
    return [PredictionRequest.for_record(r) for r in records]


@pytest.fixture(scope="module")
def pristine_predictor(tiny_bundle):
    """Trained here, on the bundle's own day split: the session-wide
    ``tiny_predictor`` is shared with tests that quarantine models out of
    its store, and the pins below count model calls."""
    return CleoTrainer(CleoConfig()).train(
        tiny_bundle.log, individual_days=[1, 2], combined_days=[2]
    )


def replay(router: ShardedCleoRouter, records, requests) -> None:
    """Every batched entry point plus five single prices; each 25-request
    chunk twice back to back, so the second pass hits what the first
    inserted while the 64-entry shard caches keep evicting."""
    for start in range(0, 600, 25):
        for _ in range(2):
            router.predict_batch("cluster1", requests[start : start + 25])
    tail = requests[600:700]
    router.predict_inputs(
        "cluster1",
        FeatureTable.from_inputs([r.features for r in tail], [r.signatures for r in tail]),
    )
    router.predict_table("cluster1", FeatureTable.from_records(records[:100]))
    for request in requests[:5]:
        router.predict_inputs(
            "cluster1", FeatureTable.from_inputs([request.features], [request.signatures])
        )


class TestZeroFaultCountersUnchanged:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_every_counter_matches_the_parent_commit(
        self, pristine_predictor, records, requests, n_shards
    ):
        pinned = PINNED[n_shards]
        with ShardedCleoRouter(
            {"cluster1": pristine_predictor}, n_shards=n_shards, prediction_cache_size=64
        ) as router:
            before = router.lookup_count
            replay(router, records, requests)
            assert counters(router.stats()) == pinned["fleet"]
            assert [counters(s) for s in router.shard_stats()] == pinned["shards"]
            assert router.lookup_count - before == pinned["lookups"]
            health = router.resilience_stats()
            assert [h.calls for h in health] == pinned["health_calls"]
            for h in health:
                assert h.state is BreakerState.CLOSED
                assert (h.failures, h.timeouts, h.consecutive_failures) == (0, 0, 0)
                assert (h.breaker_opens, h.breaker_closes, h.rejected) == (0, 0, 0)
                assert h.window_failure_rate == 0.0
            windows = [shard["window"] for shard in router.export_health()["shards"]]
            assert [len(w) for w in windows] == pinned["health_calls"]
            assert all(all(w) for w in windows)


class TestBadInputStillRaisesFirst:
    def test_non_finite_feature_prices_and_inserts_nothing(
        self, tiny_predictor, requests
    ):
        service = CleoService(tiny_predictor, prediction_cache_size=64)
        poisoned = PredictionRequest(
            replace(requests[7].features, output_card=float("nan")),
            requests[7].signatures,
        )
        batch = [*requests[:7], poisoned, *requests[8:12]]
        lookups_before = service.lookup_count  # the shared predictor's, so far
        with pytest.raises(FeatureValidationError):
            service.predict_batch(batch)
        stats = service.stats()
        assert stats.cache.size == 0  # nothing inserted, not even the good rows
        assert stats.model_calls == 0 and stats.predictions == 0
        assert service.lookup_count == lookups_before
        with ShardedCleoRouter({"cluster1": tiny_predictor}, n_shards=3) as router:
            with pytest.raises(FeatureValidationError):
                router.predict_batch("cluster1", batch)
            assert router.stats().degraded_predictions == 0
            assert router.stats().retries == 0
        # A cached key skips the check (it passed before insertion) and a
        # good batch still prices normally afterwards.
        values = service.predict_batch(requests[:12])
        assert len(values) == 12 and service.stats().cache.size == len(
            {r.key for r in requests[:12]}
        )
