"""Batch-size invariance on generated tables.

A single price is a one-row batch, so every tier must answer a row the same
bits whatever batch it arrives in.  For random model banks, row counts and
cut points, pricing a table in pieces and concatenating the answers equals
pricing it whole — on a ``CleoService`` (combined and store-only) and through
routers of one and three shards — and a one-row ``predict_inputs`` equals
its row of the whole.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combined import CombinedModel, build_meta_matrix
from repro.core.config import CleoConfig
from repro.core.predictor import CleoPredictor
from repro.features.table import FeatureTable
from repro.serving import CleoService
from repro.serving.shard import ShardedCleoRouter
from tests.serving.test_packed_inference import _random_store, _random_workload

BANK_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def banks() -> dict[tuple[int, bool], CleoPredictor]:
    """``(seed, combined) -> predictor``: each seed's random store served
    store-only and under a combined model fitted on random meta rows."""
    out = {}
    for seed in BANK_SEEDS:
        rng = np.random.default_rng(1000 + seed)
        store = _random_store(rng, coverage=0.4)
        _, _, train = _random_workload(rng, 80)
        combined = CombinedModel(store, config=CleoConfig(meta_trees=6, meta_depth=3))
        combined.fit_rows(
            build_meta_matrix(store, train), rng.uniform(0.01, 40.0, size=len(train))
        )
        out[seed, False] = CleoPredictor(store=store, fallback_cost=2.5)
        out[seed, True] = CleoPredictor(store=store, combined=combined)
    return out


@given(
    seed=st.sampled_from(BANK_SEEDS),
    combined=st.booleans(),
    n_rows=st.integers(min_value=1, max_value=150),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_pieces_price_like_the_whole(banks, seed, combined, n_rows, data):
    predictor = banks[seed, combined]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rows"))
    inputs, bundles, table = _random_workload(rng, n_rows)
    cuts = data.draw(st.lists(st.integers(0, n_rows), max_size=4), label="cuts")
    bounds = [0, *sorted(cuts), n_rows]
    pieces = [table.take(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

    service = CleoService(predictor, prediction_cache_size=0)
    whole = service.predict_table(table)
    priced = np.concatenate([service.predict_table(piece) for piece in pieces])
    assert priced.tobytes() == whole.tobytes()

    row = data.draw(st.integers(0, n_rows - 1), label="row")
    one_row = FeatureTable.from_inputs([inputs[row]], [bundles[row]])
    one = service.predict_inputs(one_row)
    assert one.tobytes() == whole[row : row + 1].tobytes()

    for n_shards in (1, 3):
        with ShardedCleoRouter(
            {"c": predictor}, n_shards=n_shards, prediction_cache_size=0
        ) as router:
            assert router.predict_table("c", table).tobytes() == whole.tobytes()
            routed = np.concatenate([router.predict_table("c", piece) for piece in pieces])
            assert routed.tobytes() == whole.tobytes()
            one = router.predict_inputs("c", one_row)
            assert one.tobytes() == whole[row : row + 1].tobytes()
