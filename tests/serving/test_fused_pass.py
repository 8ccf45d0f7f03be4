"""One router call, one pass over the shared bank.

A zero-fault call prices the cache misses of all its owning shards
together, while each shard keeps its own LRU, counters and breaker; under a
fault injector every owner prices its own rows on its own ladder through
the same pricing core.  These tests hold both paths to independent oracles
— a cache-less :class:`CleoService` for the values and, per shard, a
standalone service fed only that shard's rows for the counters — and pin
the quarantine semantics of services that share one store.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model_store import signature_for
from repro.core.predictor import CleoPredictor
from repro.features.featurizer import feature_vector
from repro.features.table import FeatureTable
from repro.serving import CleoService, PredictionRequest
from repro.serving.faults import SCENARIOS, FaultInjector
from repro.serving.shard import ShardedCleoRouter

CLUSTER = "cluster1"

ENTRIES = ("predict_batch", "predict_inputs", "predict_table", "resource_profiles")


@pytest.fixture(scope="module")
def pool(tiny_bundle):
    """Requests to draw from: 40 logged operators plus a ``+0.0`` / ``-0.0``
    pair of each of the first five (distinct cache keys, same template)."""
    records = list(tiny_bundle.log.operator_records())[:40]
    requests = [PredictionRequest.for_record(r) for r in records]
    for request in requests[:5]:
        for zero in (0.0, -0.0):
            requests.append(
                PredictionRequest(
                    replace(request.features, params_enc=zero), request.signatures
                )
            )
    return requests


@pytest.fixture(scope="module")
def predictors(tiny_predictor):
    """The bundle's models (combined meta-ensemble) and a store-only view
    (the fallback chain), over a private store no other test quarantines."""
    store = copy.deepcopy(tiny_predictor.store)
    return (
        CleoPredictor(store=store, combined=tiny_predictor.combined),
        CleoPredictor(store=store, combined=None),
    )


def _view(predictor: CleoPredictor) -> CleoPredictor:
    """A fresh predictor over the same models (own lookup accounting)."""
    return CleoPredictor(
        store=predictor.store,
        combined=predictor.combined,
        fallback_cost=predictor.fallback_cost,
    )


def _call(tier, entry: str, requests, cluster: str | None = None):
    table = FeatureTable.from_inputs(
        [r.features for r in requests], [r.signatures for r in requests]
    )
    args = (cluster,) if cluster is not None else ()
    if entry == "predict_batch":
        return getattr(tier, entry)(*args, list(requests))
    return getattr(tier, entry)(*args, table)


def _counters(service: CleoService) -> tuple:
    stats = service.stats()
    return (
        stats.predictions,
        stats.batches,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.size,
        stats.in_batch_reuses,
        service.predictor.lookup_count,
    )


calls = st.lists(
    st.tuples(
        st.sampled_from(ENTRIES),
        st.lists(st.integers(0, 49), min_size=1, max_size=24),
    ),
    min_size=1,
    max_size=8,
)


class TestFusedPassAgainstOracles:
    """``injected`` configures a :class:`FaultInjector` that injects nothing:
    every owner then walks its own ladder, each rung a one-owner core call,
    and must meet the same oracles."""

    @pytest.mark.parametrize("injected", [False, True], ids=["shared", "per-owner"])
    @settings(max_examples=60, deadline=None)
    @given(
        n_shards=st.integers(1, 4),
        cache_size=st.sampled_from([0, 6, 4096]),
        store_only=st.booleans(),
        script=calls,
    )
    def test_values_and_every_shards_counters(
        self, pool, predictors, injected, n_shards, cache_size, store_only, script
    ):
        predictor = predictors[store_only]
        oracle = CleoService(_view(predictor), prediction_cache_size=0)
        with ShardedCleoRouter(
            {CLUSTER: predictor},
            n_shards=n_shards,
            prediction_cache_size=cache_size,
            fault_injector=FaultInjector(SCENARIOS["baseline"]) if injected else None,
        ) as router:
            alone = [
                CleoService(_view(predictor), prediction_cache_size=cache_size)
                for _ in range(n_shards)
            ]
            health_calls = [0] * n_shards
            for entry, picks in script:
                requests = [pool[i] for i in picks]
                got = _call(router, entry, requests, CLUSTER)
                want = _call(oracle, entry, requests)
                if entry == "resource_profiles":
                    assert got == want
                else:
                    assert got.tobytes() == want.tobytes()
                owners = [
                    router.shard_for(CLUSTER, r.signatures.approx) for r in requests
                ]
                for shard in sorted(set(owners)):
                    own = [r for r, o in zip(requests, owners) if o == shard]
                    _call(alone[shard], entry, own)
                    if entry != "resource_profiles":
                        health_calls[shard] += 1
            for shard in range(n_shards):
                service = router.service_for(CLUSTER, shard)
                assert _counters(service) == _counters(alone[shard])
            health = router.resilience_stats()
            assert [h.calls for h in health] == health_calls
            assert all(h.failures == 0 for h in health)
            stats = router.stats()
            assert (stats.retries, stats.degraded_predictions) == (0, 0)


class TestEmptyCall:
    @pytest.mark.parametrize("cache_size", [0, 1024])
    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_no_rows_no_owner_no_charge(self, predictors, entry, n_shards, cache_size):
        """A call with no rows has no owner: it charges no shard and
        records no health call."""
        with ShardedCleoRouter(
            {CLUSTER: predictors[0]},
            n_shards=n_shards,
            prediction_cache_size=cache_size,
        ) as router:
            got = _call(router, entry, [], CLUSTER)
            stats = router.stats()
            health = router.resilience_stats()
        assert len(got) == 0
        assert (stats.batches, stats.predictions) == (0, 0)
        assert router.lookup_count == 0
        assert [h.calls for h in health] == [0] * n_shards


# ------------------------------------------------------------------ #
# A quarantine reaches every shard that shares the store
# ------------------------------------------------------------------ #


def _split_model(store, requests, owner):
    """A model that is the most specific one for a shard-0 row and a
    shard-1 row, two of its coefficients ``up`` and ``down``, and the two
    rows.  The shard-1 row's standardized features are negative in column
    ``up`` and positive in column ``down``; the shard-0 row's are positive
    in both.  With ``up`` at ``+inf`` and ``down`` at ``-inf`` the model
    prices the shard-1 row at ``-inf``, clamped to 0.0 (serveable), and the
    shard-0 row at ``inf - inf``, NaN."""
    by_model: dict[tuple, list[int]] = {}
    for i, request in enumerate(requests):
        best = store.most_specific(request.signatures)
        if best is not None:
            key = (best[0], signature_for(best[0], request.signatures))
            by_model.setdefault(key, []).append(i)
    for (kind, signature), rows in by_model.items():
        model = store.get(kind, signature)
        scaler = model._net._scaler
        signs = {
            i: np.sign(
                scaler.transform(
                    feature_vector(
                        requests[i].features, include_context=model.include_context
                    ).reshape(1, -1)
                )[0]
            )
            for i in rows
        }
        width = len(model._net.coef_)
        for up in range(width):
            for down in range(width):
                pair = {i: (signs[i][up], signs[i][down]) for i in rows}
                nan = [i for i in rows if owner[i] == 0 and pair[i] == (1, 1)]
                zero = [i for i in rows if owner[i] == 1 and pair[i] == (-1, 1)]
                if nan and zero:
                    return kind, signature, (up, down), nan[0], zero[0]
    raise AssertionError("no model splits across the two shards")


def _poisoned_store(predictor, kind, signature, columns):
    """A private copy of the store with coefficients ``up`` / ``down`` at
    ``+inf`` / ``-inf``, republished so the packed bank recompiles."""
    store = copy.deepcopy(predictor.store)
    model = store.get(kind, signature)
    coef = model._net.coef_.copy()
    coef[list(columns)] = (np.inf, -np.inf)
    model._net.coef_ = coef
    store.add(kind, signature, model)
    return store


class TestQuarantineReachesSiblingShards:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("fused", [False, True], ids=["one-owner", "fused"])
    def test_router_matches_one_service_after_a_quarantine(
        self, tiny_bundle, predictors, fused
    ):
        """Shard 0 quarantines a model that shard 1 has a cached answer
        from; shard 1 must stop serving it, as one service sharing nothing
        would.  ``fused`` prices the two rows in one two-owner call."""
        records = list(tiny_bundle.log.operator_records())[:400]
        requests = [PredictionRequest.for_record(r) for r in records]
        with ShardedCleoRouter({CLUSTER: predictors[1]}, n_shards=2) as probe:
            owner = [probe.shard_for(CLUSTER, r.signatures.approx) for r in requests]
        kind, signature, columns, row_0, row_1 = _split_model(
            predictors[1].store, requests, owner
        )
        on_0, on_1 = requests[row_0], requests[row_1]
        script = [[on_1], [on_1, on_0] if fused else [on_0], [on_1]]

        def replay(tier, *cluster):
            return [
                _call(tier, "predict_inputs", batch, *cluster).tolist()
                for batch in script
            ]

        single = CleoService(
            CleoPredictor(
                store=_poisoned_store(predictors[1], kind, signature, columns),
                combined=None,
            )
        )
        expected = replay(single)
        store = _poisoned_store(predictors[1], kind, signature, columns)
        with ShardedCleoRouter(
            {CLUSTER: CleoPredictor(store=store, combined=None)}, n_shards=2
        ) as router:
            got = replay(router, CLUSTER)
            stats = router.stats()
        assert expected[0] == [0.0]  # the poisoned model answers shard 1's row
        assert store.get(kind, signature) is None  # and shard 0 quarantined it
        assert stats.quarantined_models == single.stats().quarantined_models == 1
        assert got == expected
        assert expected[2][0] > 0.0
