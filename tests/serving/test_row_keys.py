"""Row-bit cache keys: caching never changes a bit of any answer.

The prediction LRU keys a row by its bytes (``FeatureTable.row_keys``):
nine float64 features then four uint64 signatures.  Key equality is bit
equality, so a ``-0.0`` row and a ``0.0`` row are two entries — the
distinction cache-off pricing makes too — and a batch full of duplicates
shares one entry per distinct row.  Keys are ``bytes``: nothing the
garbage collector tracks is held by a cache.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.featurizer import COLUMN_NAMES
from repro.features.table import FeatureTable
from repro.serving import CleoService, PredictionRequest
from repro.serving.shard import ShardedCleoRouter

_POOL = 200


@pytest.fixture(scope="module")
def pool(tiny_bundle):
    records = list(tiny_bundle.log.operator_records())[:_POOL]
    assert len(records) == _POOL
    return [r.features for r in records], [r.signatures for r in records]


#: Row picks (duplicates welcome) and, per row, the sign of its zero.
_batch = st.lists(st.tuples(st.integers(0, _POOL - 1), st.booleans()), min_size=1, max_size=48)


def _rows(pool, batch):
    inputs, bundles = pool
    features = [
        replace(inputs[i], params_enc=-0.0 if negative else 0.0) for i, negative in batch
    ]
    return features, [bundles[i] for i, _ in batch]


def _distinct(features, bundles) -> int:
    """Distinct rows by bit pattern, computed without the key layout."""
    return len(
        {
            (
                tuple(np.array([getattr(f, n) for n in COLUMN_NAMES]).view(np.uint64).tolist()),
                (b.strict, b.approx, b.input, b.operator),
            )
            for f, b in zip(features, bundles)
        }
    )


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _assert_untracked_bytes(service: CleoService) -> None:
    entries = list(service._prediction_cache._entries.items())
    for key, value in entries:
        assert type(key) is bytes and len(key) == 104 and not gc.is_tracked(key)
        assert type(value) is float


@settings(max_examples=25, deadline=None)
@given(_batch)
def test_service_cache_on_equals_cache_off(tiny_predictor, pool, batch):
    features, bundles = _rows(pool, batch)
    off = CleoService(tiny_predictor, prediction_cache_size=0)
    on = CleoService(tiny_predictor, prediction_cache_size=4096)
    table = FeatureTable.from_inputs(features, bundles)
    expected = _bits(off.predict_inputs(table))
    assert _bits(on.predict_inputs(table)) == expected  # misses
    assert _bits(on.predict_inputs(table)) == expected  # hits
    requests = [PredictionRequest(f, b) for f, b in zip(features, bundles)]
    assert _bits(on.predict_batch(requests)) == expected
    assert on.stats().cache.size == _distinct(features, bundles)
    keys = FeatureTable.from_inputs(features, bundles).row_keys()
    assert [r.key for r in requests] == keys
    _assert_untracked_bytes(on)


@pytest.fixture(scope="module")
def routers(tiny_predictor):
    on = ShardedCleoRouter({"c": tiny_predictor}, n_shards=2, prediction_cache_size=64)
    off = ShardedCleoRouter({"c": tiny_predictor}, n_shards=2, prediction_cache_size=0)
    with on, off:
        yield on, off


@settings(max_examples=25, deadline=None)
@given(_batch)
def test_two_shard_router_cache_on_equals_cache_off(routers, pool, batch):
    """A small per-shard LRU keeps evicting across examples: hits, misses
    and re-inserts all answer the cache-off bits."""
    on, off = routers
    features, bundles = _rows(pool, batch)
    table = FeatureTable.from_inputs(features, bundles)
    expected = _bits(off.predict_inputs("c", table))
    assert _bits(on.predict_inputs("c", table)) == expected
    requests = [PredictionRequest(f, b) for f, b in zip(features, bundles)]
    assert _bits(on.predict_batch("c", requests)) == expected
    for shard in range(on.n_shards):
        _assert_untracked_bytes(on.service_for("c", shard))


def test_signed_zeros_are_two_entries(tiny_predictor, pool):
    inputs, bundles = pool
    zero = replace(inputs[0], params_enc=0.0)
    negative = replace(inputs[0], params_enc=-0.0)
    assert zero == negative  # equal as values ...
    service = CleoService(tiny_predictor, prediction_cache_size=16)
    table = FeatureTable.from_inputs([zero, negative, zero], [bundles[0]] * 3)
    service.predict_inputs(table)
    stats = service.stats()
    assert stats.cache.size == 2 and stats.cache.misses == 2  # ... not as keys
    assert stats.in_batch_reuses == 1
