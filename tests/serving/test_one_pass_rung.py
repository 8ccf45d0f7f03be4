"""The fused first rung is one pass: what a zero-fault routed call does.

On the zero-fault path every owning shard makes one LRU probe, one charge
and one breaker record.  An owner that hits on every row packs no table and
reaches neither the input check nor the bank; the misses of all owners are
priced together, in one ``_price_table`` pass.  These tests count those
calls; ``test_fused_pass.py`` and ``test_faults.py::TestZeroFaultParity``
hold the values and counters to their oracles.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.features.table import FeatureTable
from repro.serving import CleoService, PredictionRequest
from repro.serving.shard import ShardedCleoRouter
from repro.serving.shard.health import ShardHealth

CLUSTER = "cluster1"


@pytest.fixture(scope="module")
def requests(tiny_bundle) -> list[PredictionRequest]:
    records = list(tiny_bundle.log.operator_records())[:60]
    return [PredictionRequest.for_record(record) for record in records]


def _table(requests) -> FeatureTable:
    return FeatureTable.from_inputs(
        [r.features for r in requests], [r.signatures for r in requests]
    )


class _Calls:
    """Counts, per instance, the calls of a few methods while armed."""

    def __init__(self, monkeypatch) -> None:
        self.counts: Counter = Counter()
        self.armed = False
        self._wrap(monkeypatch, CleoService, "_probe")
        self._wrap(monkeypatch, CleoService, "_charge")
        self._wrap(monkeypatch, CleoService, "_price_table")
        self._wrap(monkeypatch, CleoService, "_check_table")
        self._wrap(monkeypatch, ShardHealth, "record_success")
        self._wrap(monkeypatch, ShardHealth, "record_failure")
        self._wrap(monkeypatch, FeatureTable, "__init__")

    def _wrap(self, monkeypatch, owner: type, name: str) -> None:
        original = getattr(owner, name)

        def counted(instance, *args, **kwargs):
            if self.armed:
                self.counts[name, id(instance)] += 1
                self.counts[name] += 1
            return original(instance, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def per(self, name: str, instances) -> list[int]:
        return [self.counts[name, id(instance)] for instance in instances]


def _owners(router: ShardedCleoRouter, requests) -> list[int]:
    return sorted({router.shard_for(CLUSTER, r.signatures.approx) for r in requests})


def _spread(router: ShardedCleoRouter, requests, size: int) -> list[PredictionRequest]:
    """``size`` requests whose rows several shards own."""
    batch = requests[:size]
    assert len(_owners(router, batch)) > 1, "the batch must span several owners"
    return batch


def _call(router, entry: str, batch, table) -> np.ndarray:
    if entry == "predict_batch":
        return router.predict_batch(CLUSTER, list(batch))
    return router.predict_inputs(CLUSTER, table)


@pytest.mark.parametrize("entry", ["predict_batch", "predict_inputs"])
@pytest.mark.parametrize("n_shards", [2, 3])
class TestOnePassRung:
    def _expect_one_of_each(self, calls, router, owners) -> None:
        services = [router.service_for(CLUSTER, shard) for shard in owners]
        healths = [router._health[shard] for shard in owners]
        assert calls.per("_probe", services) == [1] * len(owners)
        assert calls.per("_charge", services) == [1] * len(owners)
        assert calls.per("record_success", healths) == [1] * len(owners)
        assert calls.counts["_probe"] == calls.counts["_charge"] == len(owners)
        assert calls.counts["record_success"] == len(owners)
        assert calls.counts["record_failure"] == 0

    def test_all_hit_call_packs_no_table_and_prices_nothing(
        self, tiny_predictor, requests, monkeypatch, n_shards, entry
    ):
        with ShardedCleoRouter({CLUSTER: tiny_predictor}, n_shards=n_shards) as router:
            batch = _spread(router, requests, 24)
            table = _table(batch)
            cold = _call(router, entry, batch, table)
            calls = _Calls(monkeypatch)
            calls.armed = True
            hot = _call(router, entry, batch, table)
            calls.armed = False
            owners = _owners(router, batch)
            self._expect_one_of_each(calls, router, owners)
        assert hot.tobytes() == cold.tobytes()
        assert calls.counts["__init__"] == 0  # no FeatureTable packed
        assert calls.counts["_price_table"] == 0
        assert calls.counts["_check_table"] == 0

    def test_misses_of_every_owner_share_one_pass(
        self, tiny_predictor, requests, monkeypatch, n_shards, entry
    ):
        oracle = CleoService(tiny_predictor, prediction_cache_size=0)
        with ShardedCleoRouter({CLUSTER: tiny_predictor}, n_shards=n_shards) as router:
            batch = _spread(router, requests, 40)
            table = _table(batch)
            # Warm half the rows: every owner then hits on some and misses others.
            _call(router, "predict_batch", batch[::2], None)
            calls = _Calls(monkeypatch)
            calls.armed = True
            values = _call(router, entry, batch, table)
            calls.armed = False
            owners = _owners(router, batch[1::2])
            assert len(owners) > 1, "the misses must span several owners"
            self._expect_one_of_each(calls, router, _owners(router, batch))
        assert calls.counts["_price_table"] == 1
        assert calls.counts["_check_table"] == 1
        assert values.tobytes() == oracle.predict_batch(batch).tobytes()
