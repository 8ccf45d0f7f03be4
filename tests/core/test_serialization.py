"""Tests for model serialization (the feedback-loop text-file transport).

Model files carry every parameter's exact bits, so every round trip here
is compared bit for bit, never approximately.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.errors import ModelFileError, ModelNotTrainedError
from repro.core.combined import build_meta_matrix
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.learned_model import LearnedCostModel, ParameterColumns
from repro.core.model_store import RAW, RAW_INTERCEPT, ModelStore, ParameterBlock
from repro.core.packed import predict_most_specific
from repro.core.predictor import CleoPredictor
from repro.core.serialization import (
    load_predictor,
    predictor_from_dict,
    predictor_to_dict,
    save_predictor,
    store_from_dict,
    store_to_dict,
)
from repro.features.featurizer import feature_names
from repro.features.table import FeatureTable
from repro.reference import predict_reference
from repro.serving import CleoService
from tests.serving.test_packed_inference import _random_workload


#: A kind's parameter columns, as a model file writes them.
_PARAMETERS = ("mean", "scale", "coef", "intercept", "y_scale", "n_samples")


def _bits(values) -> bytes:
    """The IEEE-754 bytes of ``values`` (so -0.0 != 0.0 and NaN == NaN)."""
    return np.asarray(values, dtype=float).tobytes()


def _profile_bits(profiles) -> list:
    return [
        None if p is None else _bits([p.theta_p, p.theta_c, p.theta_0]) for p in profiles
    ]


def _served(predictor: CleoPredictor, table) -> bytes:
    return _bits(CleoService(predictor, prediction_cache_size=0).predict_table(table))


@pytest.fixture(scope="module")
def held_out(tiny_bundle):
    """The whole held-out day: its table and its operator records."""
    log = tiny_bundle.test_log()
    return log.to_table(), list(log.operator_records())


def _column_bits(store: ModelStore) -> dict:
    """Every kind's signatures (in store order), non-negative features and
    parameter-column bytes."""
    out = {}
    for kind in ModelKind:
        columns = store.columns(kind)
        out[kind] = (
            columns.signatures.tolist(),
            columns.nonneg_indices,
            *(getattr(columns, name).tobytes() for name in _PARAMETERS),
        )
    return out


class TestStoreRoundTrip:
    def test_counts_preserved(self, tiny_predictor):
        payload = store_to_dict(tiny_predictor.store)
        restored = store_from_dict(payload)
        assert restored.count() == tiny_predictor.store.count()

    def test_parameters_bitwise(self, tiny_predictor):
        restored = store_from_dict(store_to_dict(tiny_predictor.store))
        assert _column_bits(restored) == _column_bits(tiny_predictor.store)

    def test_individual_predictions_exact(self, held_out, tiny_predictor):
        restored = store_from_dict(store_to_dict(tiny_predictor.store))
        table, records = held_out
        for store in (tiny_predictor.store, restored):
            assert predict_most_specific(store, table, 1.0)[1] > 0
        assert _bits(predict_most_specific(restored, table, 1.0)[0]) == _bits(
            predict_most_specific(tiny_predictor.store, table, 1.0)[0]
        )
        for record in records[:40]:
            original = tiny_predictor.store.most_specific(record.signatures)
            loaded = restored.most_specific(record.signatures)
            assert (original is None) == (loaded is None)
            if original is None or loaded is None:
                continue
            assert original[0] is loaded[0]  # same model kind chosen
            assert _bits(loaded[1].predict_one(record.features)) == _bits(
                original[1].predict_one(record.features)
            )

    def test_resource_profiles_exact(self, held_out, tiny_predictor):
        restored = predictor_from_dict(predictor_to_dict(tiny_predictor))
        _, records = held_out
        inputs = [record.features for record in records]
        bundles = [record.signatures for record in records]
        table = FeatureTable.from_inputs(inputs, bundles)
        original = CleoService(tiny_predictor).resource_profiles(table)
        loaded = CleoService(restored).resource_profiles(table)
        assert any(profile is not None for profile in original)
        assert _profile_bits(loaded) == _profile_bits(original)

    def test_version_check(self, tiny_predictor):
        payload = store_to_dict(tiny_predictor.store)
        payload["format_version"] = 999
        with pytest.raises(ValueError):
            store_from_dict(payload)

    def test_unfitted_model_rejected(self):
        """No store holds an unfitted model, so none reaches a model file:
        the store refuses it at ``add`` and serializes as it was."""
        store = ModelStore()
        with pytest.raises(ModelNotTrainedError, match="unfitted"):
            store.add(ModelKind.OPERATOR, 7, LearnedCostModel(include_context=True))
        assert (store.count(), store.version) == (0, 0)
        assert store_from_dict(store_to_dict(store)).count() == 0

    def test_loaded_views_read_the_one_block(self, tiny_predictor):
        """A load builds no model: what ``get`` returns is a view whose
        arrays are rows of the loaded store's one parameter block."""
        restored = store_from_dict(store_to_dict(tiny_predictor.store))
        planes = restored.block.planes
        for kind in ModelKind:
            signatures = restored.columns(kind).signatures.tolist()
            assert signatures
            for signature in signatures[:5]:
                net = restored.get(kind, signature)._net
                for array in (net.coef_, net._scaler.mean_, net._scaler.scale_):
                    assert np.shares_memory(array, planes)


#: Bit patterns a parameter column must carry through a file unchanged.
_SPECIAL = [-0.0, 0.0, 5e-324, 2.5e-310, -2.5e-310, 1e300, -1e300, 1.5, -3.25]
_POSITIVE = [5e-324, 2.5e-310, 1e300, 1.0, 0.75]
#: Subsets whose raw-space parameters (coef / scale * y_scale, and the
#: intercept less the sum of coef * mean / scale) stay finite, whatever the
#: mean and intercept draw from ``_SPECIAL``.
_MODEST_COEF = [-0.0, 0.0, 5e-324, 2.5e-310, -2.5e-310, 1.5, -3.25]
_LARGE_SCALE = [1e300, 1.0, 0.75]
_SMALL_Y_SCALE = [5e-324, 2.5e-310, 1.0, 0.75]
#: Rows whose signatures hit the small end of the stores' alphabet.
_, _, _TABLE = _random_workload(np.random.default_rng(0), 60)


@st.composite
def _stores(draw, coef=_SPECIAL, scale=_POSITIVE, y_scale=_POSITIVE) -> ModelStore:
    """``_random_store``-style stores (a random subset of each kind's
    signature alphabet, plus signatures with the top bit set) whose
    parameters include -0.0, subnormals and 1e300."""

    def column(values, shape):
        size = int(np.prod(shape))
        return np.array(
            draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
        ).reshape(shape)

    kinds = {}
    for kind in SPECIFICITY_ORDER:
        signatures = draw(
            st.lists(
                st.integers(0, 11) | st.integers(2**63, 2**64 - 1), max_size=8, unique=True
            )
        )
        width = len(feature_names(kind.uses_context_features))
        n = len(signatures)
        kinds[kind] = ParameterColumns(
            signatures=np.array(signatures, dtype=np.uint64),
            nonneg_indices=tuple(
                draw(st.lists(st.integers(0, width - 1), max_size=3, unique=True))
            ),
            mean=column(_SPECIAL, (n, width)),
            scale=column(scale, (n, width)),
            coef=column(coef, (n, width)),
            intercept=column(_SPECIAL, (n,)),
            y_scale=column(y_scale, (n,)),
            n_samples=column(range(10**6), (n,)).astype(np.int64),
        )
    with np.errstate(all="ignore"):  # raw-space parameters of 1.5 / 5e-324
        return ModelStore(ParameterBlock.build(kinds))


def _overflowing(store: ModelStore) -> list[tuple[ModelKind, int]]:
    """Every model whose raw-space parameters are non-finite, in block order."""
    block = store.block
    finite = np.isfinite(block.planes[RAW]).all(axis=1) & np.isfinite(block.scalars[RAW_INTERCEPT])
    models = [
        (kind, signature)
        for kind in SPECIFICITY_ORDER
        for signature in store.columns(kind).signatures.tolist()
    ]
    return [model for model, ok in zip(models, finite) if not ok]


class TestSpecialValuesRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(store=_stores(coef=_MODEST_COEF, scale=_LARGE_SCALE, y_scale=_SMALL_Y_SCALE))
    def test_every_bit_survives_a_file(self, store, tmp_path_factory):
        assert _overflowing(store) == []
        path = tmp_path_factory.mktemp("models") / "cleo_models.json"
        save_predictor(CleoPredictor(store=store), path)
        restored = load_predictor(path).store
        assert _column_bits(restored) == _column_bits(store)
        with np.errstate(all="ignore"):  # prices of 1e300 parameters overflow
            priced = [predict_most_specific(s, _TABLE, 2.5) for s in (store, restored)]
        assert _bits(priced[1][0]) == _bits(priced[0][0])
        assert priced[1][1:] == priced[0][1:]

    @settings(max_examples=40, deadline=None)
    @given(store=_stores())
    def test_non_finite_raw_parameters_are_refused(self, store, tmp_path_factory):
        """Finite columns that derive an inf or NaN raw-space parameter
        load as a typed error naming the first such model."""
        overflowing = _overflowing(store)
        assume(overflowing)
        path = tmp_path_factory.mktemp("models") / "cleo_models.json"
        save_predictor(CleoPredictor(store=store), path)
        kind, signature = overflowing[0]
        with pytest.raises(ModelFileError, match=f"the {kind.value} model {signature} "):
            load_predictor(path)


class TestPredictorRoundTrip:
    def test_file_roundtrip_predictions_match(self, held_out, tiny_predictor, tmp_path):
        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        loaded = load_predictor(path)
        table, _ = held_out
        assert _served(loaded, table) == _served(tiny_predictor, table)

    def test_combined_predictions_bitwise(self, held_out, tiny_predictor):
        loaded = predictor_from_dict(predictor_to_dict(tiny_predictor))
        table, _ = held_out
        rows = build_meta_matrix(tiny_predictor.store, table)
        assert _bits(loaded.combined.predict_rows(rows)) == _bits(
            tiny_predictor.combined.predict_rows(rows)
        )
        assert _bits(predict_reference(loaded.combined.regressor, rows)) == _bits(
            predict_reference(tiny_predictor.combined.regressor, rows)
        )

    def test_loaded_predictor_has_combined(self, tiny_predictor, tmp_path):
        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        loaded = load_predictor(path)
        assert loaded.combined is not None and loaded.combined.is_fitted

    def test_file_is_json_text(self, tiny_predictor, tmp_path):
        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        payload = json.loads(path.read_text())
        assert "models" in payload and "combined" in payload
        assert payload["format_version"] == 2


class TestModelFileBytes:
    def test_tiny_model_file_is_pinned(self, tiny_predictor, tmp_path):
        """The tiny predictor's model file hashes to the checked-in digest:
        the v2 layout and the file's byte determinism (CI re-runs this
        under a second hash seed).  A deliberate format change re-records
        ``tiny_model_file.sha256``."""
        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        pinned = Path(__file__).with_name("tiny_model_file.sha256").read_text().split()[0]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned


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

    def test_restored_predictions_match(self, registry, held_out, tmp_path):
        from repro.core.serialization import load_registry, save_registry

        path = tmp_path / "registry.json"
        save_registry(registry, path)
        restored = load_registry(path)
        table, _ = held_out
        for version in (1, 2):
            assert _served(restored.get(version).predictor, table) == _served(
                registry.get(version).predictor, table
            )

    def test_version_check(self, registry, tmp_path):
        from repro.core.serialization import load_registry, registry_to_dict

        payload = registry_to_dict(registry)
        payload["format_version"] = 99
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_registry(path)


class TestLifecycleRoundTrip:
    def test_lifecycle_state_bitwise(self, tiny_bundle, held_out, tmp_path):
        from repro.core.lifecycle import LifecycleManager, RetrainPolicy

        policy = RetrainPolicy(window_days=2, frequency_days=1)
        state_path = tmp_path / "state.json"
        manager = LifecycleManager(policy=policy, state_path=state_path)
        for day in tiny_bundle.log.days[2:]:
            manager.step(tiny_bundle.log, day)
        resumed = LifecycleManager.resume(state_path, policy=policy)
        table, _ = held_out
        assert resumed.registry.version_count == manager.registry.version_count
        for version in manager.registry.history():
            assert _served(resumed.registry.get(version.version).predictor, table) == (
                _served(version.predictor, table)
            )
        assert _bits(list(resumed._error_window)) == _bits(list(manager._error_window))


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


    @pytest.mark.parametrize("save", ["save_predictor", "save_registry"])
    def test_failed_model_write_leaves_old_file(self, save, tiny_predictor, tmp_path, monkeypatch):
        """A model file is replaced whole or not at all: neither a payload
        that fails to encode nor a crash before the rename tears it."""
        from repro.core import serialization
        from repro.core.lifecycle import ModelRegistry

        def target(predictor):
            if save == "save_predictor":
                return predictor
            registry = ModelRegistry()
            registry.publish(predictor, day=3, window=(1, 2))
            return registry

        smaller = predictor_from_dict(predictor_to_dict(tiny_predictor))
        operators = smaller.store.columns(ModelKind.OPERATOR).signatures
        smaller.store.remove(ModelKind.OPERATOR, int(operators[0]))
        path = tmp_path / "cleo_models.json"
        getattr(serialization, save)(target(smaller), path)
        before = path.read_bytes()

        to_dict = "predictor_to_dict" if save == "save_predictor" else "registry_to_dict"
        with monkeypatch.context() as patch:
            patch.setattr(serialization, to_dict, lambda _: {"format_version": 2, "bad": object()})
            with pytest.raises(TypeError):
                getattr(serialization, save)(target(tiny_predictor), path)
        with monkeypatch.context() as patch:

            def crash(*_):
                raise OSError("killed before the rename")

            patch.setattr(serialization.os, "replace", crash)
            with pytest.raises(OSError, match="killed"):
                getattr(serialization, save)(target(tiny_predictor), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cleo_models.json"]


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
        signature = int(store.columns(ModelKind.OP_SUBGRAPH).signatures[0])
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
