"""Tests for model serialization (the feedback-loop text-file transport)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serialization import (
    load_predictor,
    save_predictor,
    store_from_dict,
    store_to_dict,
)
from repro.serving import CleoService


class TestStoreRoundTrip:
    def test_counts_preserved(self, tiny_predictor):
        payload = store_to_dict(tiny_predictor.store)
        restored = store_from_dict(payload)
        assert restored.count() == tiny_predictor.store.count()

    def test_individual_predictions_exact(self, tiny_bundle, tiny_predictor):
        restored = store_from_dict(store_to_dict(tiny_predictor.store))
        records = list(tiny_bundle.test_log().operator_records())[:40]
        for record in records:
            original = tiny_predictor.store.most_specific(record.signatures)
            loaded = restored.most_specific(record.signatures)
            assert (original is None) == (loaded is None)
            if original is None or loaded is None:
                continue
            assert original[0] is loaded[0]  # same model kind chosen
            assert original[1].predict_one(record.features) == pytest.approx(
                loaded[1].predict_one(record.features), rel=1e-12
            )

    def test_resource_profiles_exact(self, tiny_bundle, tiny_predictor):
        restored = store_from_dict(store_to_dict(tiny_predictor.store))
        record = next(tiny_bundle.test_log().operator_records())
        original = tiny_predictor.store.most_specific(record.signatures)
        loaded = restored.most_specific(record.signatures)
        if original is None:
            pytest.skip("record not covered")
        p1 = original[1].resource_profile(record.features)
        p2 = loaded[1].resource_profile(record.features)
        assert p1.theta_p == pytest.approx(p2.theta_p)
        assert p1.theta_c == pytest.approx(p2.theta_c)

    def test_version_check(self, tiny_predictor):
        payload = store_to_dict(tiny_predictor.store)
        payload["format_version"] = 999
        with pytest.raises(ValueError):
            store_from_dict(payload)

    def test_unfitted_model_rejected(self):
        from repro.core.learned_model import LearnedCostModel
        from repro.core.serialization import _learned_model_to_dict

        with pytest.raises(ValueError):
            _learned_model_to_dict(LearnedCostModel(include_context=False))


class TestPredictorRoundTrip:
    def test_file_roundtrip_predictions_match(self, tiny_bundle, tiny_predictor, tmp_path):
        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        loaded = load_predictor(path)
        records = list(tiny_bundle.test_log().operator_records())[:60]
        original = CleoService(tiny_predictor, prediction_cache_size=0).predict_records(records)
        restored = CleoService(loaded, prediction_cache_size=0).predict_records(records)
        assert np.allclose(original, restored, rtol=1e-9)

    def test_loaded_predictor_has_combined(self, tiny_predictor, tmp_path):
        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        loaded = load_predictor(path)
        assert loaded.combined is not None and loaded.combined.is_fitted

    def test_file_is_json_text(self, tiny_predictor, tmp_path):
        import json

        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        payload = json.loads(path.read_text())
        assert "models" in payload and "combined" in payload


class TestRegistryRoundTrip:
    """Round-trip of the lifecycle registry (all versions + active pointer)."""

    @pytest.fixture()
    def registry(self, tiny_predictor):
        from repro.core.lifecycle import ModelRegistry

        registry = ModelRegistry()
        registry.publish(tiny_predictor, day=3, window=(1, 2))
        registry.publish(tiny_predictor, day=13, window=(11, 12))
        return registry

    def test_roundtrip_preserves_versions(self, registry, tmp_path):
        from repro.core.serialization import load_registry, save_registry

        path = tmp_path / "registry.json"
        save_registry(registry, path)
        restored = load_registry(path)
        assert restored.version_count == 2
        assert restored.active().version == 2
        assert restored.get(1).window == (1, 2)
        assert restored.get(2).trained_on_day == 13

    def test_roundtrip_preserves_rollback_state(self, registry, tmp_path):
        from repro.core.serialization import load_registry, save_registry

        registry.rollback()
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        restored = load_registry(path)
        assert restored.version_count == 2
        assert restored.active().version == 1

    def test_restored_predictions_match(self, registry, tiny_bundle, tmp_path):
        from repro.core.serialization import load_registry, save_registry

        path = tmp_path / "registry.json"
        save_registry(registry, path)
        restored = load_registry(path)
        records = [next(tiny_bundle.test_log().operator_records())]
        assert CleoService(restored.active().predictor).predict_records(
            records
        ) == pytest.approx(
            CleoService(registry.active().predictor).predict_records(records), rel=1e-9
        )

    def test_version_check(self, registry, tmp_path):
        import json

        from repro.core.serialization import load_registry, registry_to_dict

        payload = registry_to_dict(registry)
        payload["format_version"] = 99
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_registry(path)


class TestAtomicSave:
    def test_atomic_save_roundtrips(self, tmp_path):
        import json

        from repro.core.serialization import save_json_atomic

        path = tmp_path / "state.json"
        save_json_atomic({"a": 1}, path)
        save_json_atomic({"a": 2}, path)
        assert json.loads(path.read_text()) == {"a": 2}
        # No temp-file litter left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_failed_payload_leaves_old_file(self, tmp_path):
        import json

        from repro.core.serialization import save_json_atomic

        path = tmp_path / "state.json"
        save_json_atomic({"a": 1}, path)
        with pytest.raises(TypeError):
            save_json_atomic({"bad": object()}, path)
        assert json.loads(path.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


class TestQuarantineRoundTrip:
    def test_ledger_roundtrips(self):
        from repro.core.config import ModelKind
        from repro.core.regression_control import ModelQuarantine
        from repro.core.serialization import (
            quarantine_from_dict,
            quarantine_to_dict,
        )

        quarantine = ModelQuarantine(tolerance_factor=3.0, min_observations=7)
        quarantine.record(ModelKind.OP_SUBGRAPH, 123)
        quarantine.record(ModelKind.OPERATOR, 456)
        restored = quarantine_from_dict(quarantine_to_dict(quarantine))
        assert restored.tolerance_factor == 3.0
        assert restored.min_observations == 7
        assert restored.ledger() == quarantine.ledger()

    def test_restored_ledger_replays_on_fresh_store(self, tiny_predictor):
        from repro.core.config import ModelKind
        from repro.core.regression_control import ModelQuarantine
        from repro.core.serialization import (
            predictor_from_dict,
            predictor_to_dict,
            quarantine_from_dict,
            quarantine_to_dict,
        )

        store = predictor_from_dict(predictor_to_dict(tiny_predictor)).store
        signature = next(iter(store.models[ModelKind.OP_SUBGRAPH]))
        quarantine = ModelQuarantine()
        quarantine.record(ModelKind.OP_SUBGRAPH, signature)
        restored = quarantine_from_dict(quarantine_to_dict(quarantine))
        assert restored.replay(store) == 1
        assert restored.replay(store) == 0  # idempotent second replay

    def test_version_check(self):
        from repro.core.regression_control import ModelQuarantine
        from repro.core.serialization import (
            quarantine_from_dict,
            quarantine_to_dict,
        )

        payload = quarantine_to_dict(ModelQuarantine())
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            quarantine_from_dict(payload)


class TestHealthStateRoundTrip:
    def test_snapshots_roundtrip(self):
        from repro.core.serialization import (
            health_state_from_dict,
            health_state_to_dict,
        )
        from repro.serving.shard.health import ResilienceConfig, ShardHealth

        health = ShardHealth(0, ResilienceConfig())
        health.record_failure()
        health.record_success()
        payload = health_state_to_dict([health.snapshot()])
        restored_snapshots = health_state_from_dict(payload)
        fresh = ShardHealth(0, ResilienceConfig())
        fresh.restore(restored_snapshots[0])
        assert fresh.stats() == health.stats()

    def test_torn_state_rejected(self):
        from repro.core.serialization import (
            health_state_from_dict,
            health_state_to_dict,
        )
        from repro.serving.shard.health import ResilienceConfig, ShardHealth

        payload = health_state_to_dict(
            [ShardHealth(0, ResilienceConfig()).snapshot()]
        )
        payload["n_shards"] = 2
        with pytest.raises(ValueError):
            health_state_from_dict(payload)
