"""Tests for the model store, trainer, combined model, and predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.combined import META_FEATURE_NAMES
from repro.core.config import SPECIFICITY_ORDER, CleoConfig, ModelKind
from repro.core.model_store import ModelStore, signature_for
from repro.core.predictor import CleoPredictor
from repro.core.robustness import evaluate_predictor_on_log, evaluate_store_on_log
from repro.core.trainer import CleoTrainer
from repro.reference import build_meta_row
from repro.serving import CleoService


def _served(predictor, records):
    """Records priced by a cache-off service over ``predictor``."""
    return CleoService(predictor, prediction_cache_size=0).predict_records(records)


class TestConfig:
    def test_specificity_order(self):
        assert SPECIFICITY_ORDER[0] is ModelKind.OP_SUBGRAPH
        assert SPECIFICITY_ORDER[-1] is ModelKind.OPERATOR

    def test_context_feature_flag(self):
        assert not ModelKind.OP_SUBGRAPH.uses_context_features
        assert ModelKind.OPERATOR.uses_context_features

    def test_validation(self):
        with pytest.raises(ValueError):
            CleoConfig(min_samples=1)
        with pytest.raises(ValueError):
            CleoConfig(elastic_alpha=-1)


class TestModelStore(object):
    def test_counts(self, tiny_predictor):
        store = tiny_predictor.store
        assert store.count() == sum(store.count(kind) for kind in ModelKind)
        assert store.count() > 0

    def test_lookup_consistency(self, tiny_bundle, tiny_predictor):
        store = tiny_predictor.store
        record = next(tiny_bundle.log.operator_records())
        for kind in ModelKind:
            sig = signature_for(kind, record.signatures)
            got, looked_up = store.get(kind, sig), store.lookup(kind, record.signatures)
            covered = store.covers(kind, record.signatures)
            assert (got is None) == (looked_up is None) == (not covered)
            if got is not None:  # two views of one block row
                assert got._net.coef_.tobytes() == looked_up._net.coef_.tobytes()
                assert got._net.intercept_ == looked_up._net.intercept_

    def test_most_specific_ordering(self, tiny_bundle, tiny_predictor):
        store = tiny_predictor.store
        for record in list(tiny_bundle.test_log().operator_records())[:50]:
            found = store.most_specific(record.signatures)
            if found is None:
                continue
            kind, _ = found
            # Everything more specific than `kind` must be uncovered.
            for candidate in SPECIFICITY_ORDER:
                if candidate is kind:
                    break
                assert store.lookup(candidate, record.signatures) is None

    def test_memory_accounting(self, tiny_predictor):
        assert tiny_predictor.memory_bytes > 0

    @pytest.mark.parametrize("source", ["trained", "loaded"])
    def test_no_model_object_is_reachable(self, tiny_bundle, tiny_predictor, source):
        """A predictor holds its individual models as one parameter block:
        no model, net or scaler object is reachable from it, trained or
        loaded, and pricing through it builds none."""
        import gc
        import types

        from repro.core.learned_model import LearnedCostModel
        from repro.core.serialization import predictor_from_dict, predictor_to_dict
        from repro.ml.preprocessing import StandardScaler
        from repro.ml.proximal import ElasticNetMSLE

        predictor = CleoTrainer().train(tiny_bundle.log)
        if source == "loaded":
            predictor = predictor_from_dict(predictor_to_dict(tiny_predictor))
        CleoService(predictor).predict_table(tiny_bundle.test_table())
        seen, stack = set(), [predictor]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (LearnedCostModel, ElasticNetMSLE, StandardScaler))
            stack.extend(gc.get_referents(obj))
        assert len(seen) > predictor.store.count(ModelKind.OPERATOR) > 0

    def test_describe(self, tiny_predictor):
        text = tiny_predictor.store.describe()
        assert "op_subgraph" in text


class TestTrainer:
    def test_min_samples_respected(self, tiny_bundle):
        trainer = CleoTrainer(CleoConfig(min_samples=10_000))
        store = trainer.train_individual(tiny_bundle.log)
        assert store.count() == 0

    def test_training_produces_all_kinds(self, tiny_predictor):
        for kind in ModelKind:
            assert tiny_predictor.store.count(kind) > 0

    def test_operator_model_count_bounded_by_op_types(self, tiny_predictor):
        # At most one model per physical operator type.
        assert tiny_predictor.store.count(ModelKind.OPERATOR) <= 15

    def test_combined_requires_records(self, tiny_predictor):
        from repro.execution.runtime_log import RunLog

        trainer = CleoTrainer()
        with pytest.raises(ValueError):
            trainer.train_combined(tiny_predictor.store, RunLog())


class TestCombinedModel:
    def test_meta_row_shape(self, tiny_bundle, tiny_predictor):
        record = next(tiny_bundle.log.operator_records())
        row = build_meta_row(tiny_predictor.store, record.features, record.signatures)
        assert row.shape == (len(META_FEATURE_NAMES),)
        assert np.isfinite(row).all()

    def test_coverage_flags_binary(self, tiny_bundle, tiny_predictor):
        record = next(tiny_bundle.log.operator_records())
        row = build_meta_row(tiny_predictor.store, record.features, record.signatures)
        flags = row[4:8]
        assert set(flags.tolist()) <= {0.0, 1.0}

    def test_predictions_nonnegative(self, tiny_bundle, tiny_predictor):
        records = list(tiny_bundle.test_log().operator_records())[:100]
        assert (_served(tiny_predictor, records) >= 0.0).all()


class TestPredictor:
    def test_full_coverage(self, tiny_bundle, tiny_predictor):
        records = list(tiny_bundle.test_log().operator_records())
        predictions = _served(tiny_predictor, records)
        assert len(predictions) == len(records)
        assert np.isfinite(predictions).all()

    def test_lookup_accounting(self, tiny_bundle, tiny_predictor):
        tiny_predictor.reset_lookup_count()
        record = next(tiny_bundle.test_log().operator_records())
        _served(tiny_predictor, [record])
        assert tiny_predictor.lookup_count == CleoPredictor.LOOKUPS_PER_PREDICTION

    def test_fallback_without_combined(self, tiny_bundle, tiny_predictor):
        bare = CleoPredictor(store=tiny_predictor.store, combined=None)
        record = next(tiny_bundle.test_log().operator_records())
        assert _served(bare, [record])[0] >= 0.0

    def test_coverage_fraction_bounds(self, tiny_bundle, tiny_predictor):
        records = list(tiny_bundle.test_log().operator_records())
        for kind in ModelKind:
            fraction = tiny_predictor.coverage_fraction(kind, records)
            assert 0.0 <= fraction <= 1.0


class TestPaperShape:
    """The headline Table 5 orderings, asserted at tiny scale."""

    def test_accuracy_coverage_tradeoff(self, tiny_bundle, tiny_predictor):
        test = tiny_bundle.test_log()
        quality = evaluate_store_on_log(tiny_predictor.store, test)
        coverage = {kind: quality[kind].coverage_pct for kind in ModelKind}
        assert coverage[ModelKind.OP_SUBGRAPH] <= coverage[ModelKind.OP_SUBGRAPH_APPROX]
        assert coverage[ModelKind.OP_SUBGRAPH_APPROX] <= coverage[ModelKind.OP_INPUT] + 1e-9
        assert coverage[ModelKind.OP_INPUT] <= coverage[ModelKind.OPERATOR] + 1e-9

    def test_subgraph_beats_operator_accuracy(self, tiny_bundle, tiny_predictor):
        quality = evaluate_store_on_log(tiny_predictor.store, tiny_bundle.test_log())
        assert (
            quality[ModelKind.OP_SUBGRAPH].median_error_pct
            < quality[ModelKind.OPERATOR].median_error_pct
        )

    def test_combined_covers_everything_accurately(self, tiny_bundle, tiny_predictor):
        test = tiny_bundle.test_log()
        combined = evaluate_predictor_on_log(tiny_predictor, test)
        operator = evaluate_store_on_log(tiny_predictor.store, test)[ModelKind.OPERATOR]
        assert combined.coverage_pct == 100.0
        assert combined.median_error_pct <= operator.median_error_pct


def test_concurrent_removals_and_reads_lose_no_edit(tiny_predictor):
    """Router workers share a store: removals on some threads while others
    read (folding staged edits into a new block) lose no removal."""
    import copy
    import sys
    import threading

    store = copy.deepcopy(tiny_predictor.store)
    doomed = [
        (kind, signature)
        for kind in ModelKind
        for signature in store.columns(kind).signatures.tolist()[::2]
    ]
    before, version = store.count(), store.version
    done = threading.Event()

    def remove(share):
        for kind, signature in share:
            assert store.remove(kind, signature)

    def read():
        while not done.is_set():
            store.packed_bank()
            store.count()

    removers = [threading.Thread(target=remove, args=(doomed[i::4],)) for i in range(4)]
    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers + removers:
            thread.start()
        for thread in removers:
            thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + removers)
    assert store.version == version + len(doomed)
    assert store.count() == before - len(doomed)
    assert all(store.get(kind, signature) is None for kind, signature in doomed)
