"""Packed inference runtime tests (repro.core.packed + serving fast path).

The load-bearing guarantee: pricing through the compiled
``PackedModelBank`` / flat tree ensemble is *bitwise identical* to the
object-graph reference path and to one-at-a-time prediction, across
randomized stores and tables (including rows no model covers), with the
serving layer's model-call / fallback / lookup accounting preserved.  A
model the bank cannot pack never enters a store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ModelNotTrainedError, ValidationError
from repro.core.combined import (
    CombinedModel,
    build_meta_matrix,
    build_meta_matrix_reference,
    predict_covered,
    predict_covered_reference,
)
from repro.core.config import CleoConfig, ModelKind
from repro.core.learned_model import LearnedCostModel
from repro.core.model_store import ModelStore
from repro.core.packed import predict_most_specific
from repro.core.predictor import CleoPredictor
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.ml.gbm import FastTreeRegressor
from repro.plan.signatures import SignatureBundle
from repro.serving import CleoService, PredictionRequest

#: Signature alphabet sizes per kind column (small so groups repeat).
_SIG_CARDINALITY = {"strict": 12, "approx": 8, "input": 6, "operator": 4}


def _random_input(rng: np.random.Generator) -> FeatureInput:
    return FeatureInput(
        input_card=float(rng.uniform(1, 1e6)),
        base_card=float(rng.uniform(1, 1e6)),
        output_card=float(rng.uniform(0, 1e5)),
        avg_row_bytes=float(rng.uniform(8, 256)),
        partition_count=float(rng.integers(1, 64)),
        input_enc=float(rng.uniform(0, 1)),
        params_enc=float(rng.uniform(0, 1)),
        logical_count=float(rng.integers(1, 20)),
        depth=float(rng.integers(1, 10)),
    )


def _random_workload(rng: np.random.Generator, n: int):
    inputs = [_random_input(rng) for _ in range(n)]
    bundles = [
        SignatureBundle(
            strict=int(rng.integers(0, _SIG_CARDINALITY["strict"])),
            approx=int(rng.integers(0, _SIG_CARDINALITY["approx"])),
            input=int(rng.integers(0, _SIG_CARDINALITY["input"])),
            operator=int(rng.integers(0, _SIG_CARDINALITY["operator"])),
        )
        for _ in range(n)
    ]
    return inputs, bundles, FeatureTable.from_inputs(inputs, bundles)


def _fitted_model(rng: np.random.Generator, kind: ModelKind) -> LearnedCostModel:
    config = CleoConfig(elastic_max_iter=25)
    model = LearnedCostModel(include_context=kind.uses_context_features, config=config)
    train = [_random_input(rng) for _ in range(10)]
    latencies = rng.uniform(0.01, 30.0, size=10)
    return model.fit(train, latencies)


def _random_store(
    rng: np.random.Generator, coverage: float = 0.6
) -> ModelStore:
    """Cover a random subset of each kind's signature alphabet."""
    store = ModelStore()
    for kind, field in (
        (ModelKind.OP_SUBGRAPH, "strict"),
        (ModelKind.OP_SUBGRAPH_APPROX, "approx"),
        (ModelKind.OP_INPUT, "input"),
        (ModelKind.OPERATOR, "operator"),
    ):
        for signature in range(_SIG_CARDINALITY[field]):
            if rng.uniform() < coverage:
                store.add(kind, signature, _fitted_model(rng, kind))
    return store


def _object_graph(store, inputs, bundles, fallback_cost):
    """The object-graph oracle: each row's most specific covering model,
    one row at a time, else the fallback cost."""
    values = []
    for features, bundle in zip(inputs, bundles):
        best = store.most_specific(bundle)
        values.append(best[1].predict_one(features) if best is not None else fallback_cost)
    return np.array(values)


class TestRandomizedParity:
    """Property-style: packed == object graph == one row, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_store_only_fallback_chain(self, seed):
        rng = np.random.default_rng(seed)
        inputs, bundles, table = _random_workload(rng, 90)
        store = _random_store(rng, coverage=0.25)
        scalar = _object_graph(store, inputs, bundles, 2.75)
        packed, _, n_fallbacks = predict_most_specific(store, table, 2.75)
        assert np.array_equal(scalar, packed)
        uncovered = sum(1 for b in bundles if store.most_specific(b) is None)
        assert n_fallbacks == uncovered
        assert uncovered > 0, "property test should exercise fallback rows"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_predict_covered_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        _, _, table = _random_workload(rng, 70)
        store = _random_store(rng, coverage=0.5)
        for kind in ModelKind:
            ref_mask, ref_values = predict_covered_reference(store, table, kind)
            mask, values = predict_covered(store, table, kind)
            assert np.array_equal(ref_mask, mask)
            assert np.array_equal(ref_values[ref_mask], values[mask])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_combined_serving_matches_reference_and_scalar(self, seed):
        rng = np.random.default_rng(200 + seed)
        inputs, bundles, table = _random_workload(rng, 80)
        store = _random_store(rng, coverage=0.6)
        combined = CombinedModel(
            store, config=CleoConfig(meta_trees=6, meta_depth=3)
        )
        combined.fit_rows(
            build_meta_matrix_reference(store, table),
            rng.uniform(0.01, 40.0, size=len(table)),
        )
        predictor = CleoPredictor(store=store, combined=combined)
        service = CleoService(predictor, prediction_cache_size=0)

        packed = service.predict_table(table)
        reference = combined.predict_rows_reference(
            build_meta_matrix_reference(store, table)
        )
        scalar = np.array([combined.predict_one(f, b) for f, b in zip(inputs, bundles)])
        assert np.array_equal(packed, reference)
        assert np.array_equal(packed, scalar)

    def test_unpackable_model_is_refused_at_add(self):
        """The store holds only what the bank can pack: an unfitted model
        and one of the wrong width are refused, typed, before anything
        changes, so the bank still matches the object graph."""
        rng = np.random.default_rng(7)
        inputs, bundles, table = _random_workload(rng, 60)
        store = _random_store(rng, coverage=0.5)
        models, version = store.count(), store.version
        with pytest.raises(ModelNotTrainedError):
            store.add(ModelKind.OPERATOR, 10_000, LearnedCostModel(include_context=True))
        with pytest.raises(ValidationError):
            store.add(ModelKind.OPERATOR, 10_000, _fitted_model(rng, ModelKind.OP_SUBGRAPH))
        assert store.get(ModelKind.OPERATOR, 10_000) is None
        assert (store.count(), store.version) == (models, version)
        scalar = _object_graph(store, inputs, bundles, 1.5)
        packed, _, _ = predict_most_specific(store, table, 1.5)
        assert np.array_equal(scalar, packed)

    def test_batch_and_table_paths_agree_cache_disabled(self):
        rng = np.random.default_rng(11)
        inputs, bundles, table = _random_workload(rng, 60)
        store = _random_store(rng, coverage=0.55)
        predictor = CleoPredictor(store=store, fallback_cost=4.0)
        service = CleoService(predictor, prediction_cache_size=0)
        requests = [
            PredictionRequest(features=f, signatures=b)
            for f, b in zip(inputs, bundles)
        ]
        batched = service.predict_batch(requests)
        table_native = service.predict_table(table)
        assert np.array_equal(batched, table_native)


class TestStatsAccounting:
    """predict_table preserves the cache-disabled batch path's accounting."""

    def _accounting(self, service, run):
        service.reset_stats()
        before = service.predictor.lookup_count
        run()
        stats = service.stats()
        return {
            "individual": stats.individual_model_calls,
            "combined": stats.combined_model_calls,
            "fallbacks": stats.fallback_predictions,
            "lookups": service.predictor.lookup_count - before,
            "predictions": stats.predictions,
        }

    def test_store_only_accounting_matches_batch_path(self):
        rng = np.random.default_rng(21)
        inputs, bundles, table = _random_workload(rng, 70)
        # Duplicate a row: per-request fallback charging must still agree.
        inputs.append(inputs[0])
        bundles.append(bundles[0])
        table = FeatureTable.from_inputs(inputs, bundles)
        store = _random_store(rng, coverage=0.4)
        predictor = CleoPredictor(store=store, fallback_cost=1.0)
        requests = [
            PredictionRequest(features=f, signatures=b)
            for f, b in zip(inputs, bundles)
        ]

        batch_service = CleoService(predictor, prediction_cache_size=0)
        via_batch = self._accounting(
            batch_service, lambda: batch_service.predict_batch(requests)
        )
        table_service = CleoService(predictor, prediction_cache_size=0)
        via_table = self._accounting(
            table_service, lambda: table_service.predict_table(table)
        )
        assert via_table == via_batch
        assert via_table["fallbacks"] > 0

    def test_combined_accounting_matches_batch_path(self, tiny_predictor, tiny_bundle):
        table = tiny_bundle.test_table()
        records = list(tiny_bundle.test_log().operator_records())
        requests = [PredictionRequest.for_record(r) for r in records]

        batch_service = CleoService(tiny_predictor, prediction_cache_size=0)
        via_batch = self._accounting(
            batch_service, lambda: batch_service.predict_batch(requests)
        )
        table_service = CleoService(tiny_predictor, prediction_cache_size=0)
        via_table = self._accounting(
            table_service, lambda: table_service.predict_table(table)
        )
        # The batch path dedups identical requests before grouping; the
        # covering-group set (and so the call counters) is unchanged, and
        # lookups charge per request either way (Section 6.5 accounting).
        assert via_table == via_batch
        assert via_table["combined"] == 1
        assert via_table["individual"] > 0


class TestInvalidation:
    def test_store_add_recompiles_bank_and_serves_new_model(self):
        rng = np.random.default_rng(31)
        inputs, bundles, table = _random_workload(rng, 50)
        store = ModelStore()
        predictor = CleoPredictor(store=store, fallback_cost=9.0)
        service = CleoService(predictor, prediction_cache_size=0)
        first = service.predict_table(table)
        assert np.all(first == 9.0)  # empty store: all fallbacks

        model = _fitted_model(rng, ModelKind.OPERATOR)
        store.add(ModelKind.OPERATOR, bundles[0].operator, model)
        second = service.predict_table(table)
        assert second[0] == model.predict_one(inputs[0])

    def test_memory_bytes_cached_and_invalidated(self):
        rng = np.random.default_rng(41)
        store = _random_store(rng, coverage=0.5)
        first = store.memory_bytes
        assert store.memory_bytes == first  # cached path
        model = _fitted_model(rng, ModelKind.OPERATOR)
        store.add(ModelKind.OPERATOR, 999, model)
        assert store.memory_bytes == first + model.memory_bytes
        store.remove(ModelKind.OPERATOR, 999)
        assert store.memory_bytes == first

    def test_predictor_swap_serves_new_models(self, tiny_predictor, tiny_bundle):
        table = tiny_bundle.test_table()
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        with_combined = service.predict_table(table)
        service.predictor = CleoPredictor(store=tiny_predictor.store)
        store_only = service.predict_table(table)
        assert not np.array_equal(with_combined, store_only)


class TestRoundTrip:
    def test_save_load_predict_rebuilds_bank(self, tiny_predictor, tiny_bundle, tmp_path):
        table = tiny_bundle.test_table()
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        original = service.predict_table(table)

        path = tmp_path / "models.json"
        service.save(path)
        reloaded = CleoService.load(path, prediction_cache_size=0)
        # Fresh store, fresh (lazily compiled) bank.
        assert reloaded.store is not service.store
        restored = reloaded.predict_table(table)
        assert np.array_equal(original, restored)

    def test_predict_records_roundtrip_matches_reference(
        self, tiny_predictor, tiny_bundle
    ):
        records = list(tiny_bundle.test_log().operator_records())
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        packed = service.predict_records(records)
        reference = service.predict_records_reference(records)
        assert np.array_equal(packed, reference)


class TestPredictorRecordsStoreOnly:
    """Store-only ``predict_records`` runs the packed chain."""

    def test_bitwise_parity_with_scalar_loop(self, tiny_predictor, tiny_bundle):
        records = list(tiny_bundle.test_log().operator_records())
        store_only = CleoPredictor(store=tiny_predictor.store, fallback_cost=1.0)
        grouped = CleoService(store_only, prediction_cache_size=0).predict_records(records)
        scalar = _object_graph(
            store_only.store,
            [r.features for r in records],
            [r.signatures for r in records],
            1.0,
        )
        assert np.array_equal(grouped, scalar)

    def test_lookup_accounting_matches_scalar_loop(self, tiny_predictor, tiny_bundle):
        records = list(tiny_bundle.test_log().operator_records())
        store_only = CleoPredictor(store=tiny_predictor.store)
        store_only.reset_lookup_count()
        CleoService(store_only, prediction_cache_size=0).predict_records(records)
        assert store_only.lookup_count == (
            len(records) * CleoPredictor.LOOKUPS_PER_PREDICTION
        )


class TestFlatForestParity:
    def test_predict_matches_reference(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(0, 100, size=(300, 7))
        y = rng.uniform(0, 50, size=300)
        model = FastTreeRegressor(n_estimators=12, max_depth=4, seed=3)
        model.fit(x, y)
        fresh = rng.uniform(0, 120, size=(500, 7))
        assert np.array_equal(model.predict(fresh), model.predict_reference(fresh))

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 500])
    def test_stage_reduction_is_the_sequential_loop_at_every_size(self, n_rows):
        """One axis-0 reduction over the (1 + trees, n) stack replays the
        stage-order ``out += lr * leaves[stage]`` loop bit for bit — except
        at one row, where numpy would sum the contiguous axis pairwise, so
        that case keeps the loop.  Paper-shaped ensemble: 20 trees, log
        target, non-contiguous rows included."""
        rng = np.random.default_rng(71)
        x = np.exp(rng.normal(0, 3, size=(800, 15)))
        y = np.exp(rng.normal(1, 1, size=800))
        model = FastTreeRegressor().fit(x, y)
        assert len(model.trees_) == 20
        fresh = np.exp(rng.normal(0, 3, size=(n_rows, 15)))
        assert np.array_equal(model.predict(fresh), model.predict_reference(fresh))
        strided = np.exp(rng.normal(0, 3, size=(2 * n_rows, 15)))[::2]
        assert np.array_equal(model.predict(strided), model.predict_reference(strided))
        if n_rows > 1:
            # Row by row (the n == 1 loop) equals the batched reduction too.
            one_at_a_time = np.concatenate([model.predict(fresh[i : i + 1]) for i in range(n_rows)])
            assert np.array_equal(model.predict(fresh), one_at_a_time)

    def test_refit_invalidates_flat_layout(self):
        rng = np.random.default_rng(61)
        x = rng.uniform(0, 10, size=(120, 4))
        y = rng.uniform(0, 5, size=120)
        model = FastTreeRegressor(n_estimators=5, max_depth=3, seed=1)
        model.fit(x, y)
        first = model.predict(x)
        model.fit(x, y * 3.0)  # refit: flat layout must recompile
        second = model.predict(x)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, model.predict_reference(x))

    def test_packed_meta_builder_matches_reference(self, tiny_predictor, tiny_bundle):
        table = tiny_bundle.test_table()
        store = tiny_predictor.store
        assert np.array_equal(
            build_meta_matrix(store, table),
            build_meta_matrix_reference(store, table),
        )
