"""Corruption suite for model files and reliability state.

Every defect a model file can carry — torn bytes, bad JSON, a foreign
format version, a column of the wrong size, duplicate signatures,
non-finite or non-positive parameters, a broken tree — must fail with the
typed :class:`~repro.common.errors.ModelFileError` before any model is
built, and a corrupt lifecycle state must leave no half-restored registry.
The same holds for the breaker and quarantine state: a malformed snapshot
anywhere in it restores no breaker at all, and a malformed ledger entry
builds no quarantine.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.common.errors import ModelFileError, ModelNotTrainedError
from repro.core.config import ModelKind
from repro.core.lifecycle import LifecycleManager, RetrainPolicy
from repro.core.regression_control import ModelQuarantine
from repro.core.serialization import (
    lifecycle_state_apply,
    lifecycle_state_to_dict,
    load_predictor,
    predictor_from_dict,
    predictor_to_dict,
    quarantine_from_dict,
    quarantine_to_dict,
    save_json_atomic,
    save_predictor,
)
from repro.serving.shard import ShardedCleoRouter
from repro.serving.shard.health import BreakerState, ResilienceConfig, ShardHealth

KIND = ModelKind.OP_INPUT.value
POLICY = RetrainPolicy(window_days=2, frequency_days=1)


@pytest.fixture(scope="module")
def model_text(tiny_predictor) -> str:
    return json.dumps(predictor_to_dict(tiny_predictor))


@pytest.fixture()
def payload(model_text) -> dict:
    """A fresh, valid model payload to corrupt."""
    return json.loads(model_text)


def _column(block: dict, name: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(block[name]), dtype=dtype).copy()


def _put(block: dict, name: str, values: np.ndarray, dtype: str) -> None:
    block[name] = base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def _rejected(payload: dict, match: str) -> None:
    with pytest.raises(ModelFileError, match=match):
        predictor_from_dict(payload)


class TestUnreadableFiles:
    def test_truncated_file(self, tiny_predictor, tmp_path):
        path = tmp_path / "cleo_models.json"
        save_predictor(tiny_predictor, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ModelFileError, match="not JSON"):
            load_predictor(path)

    @pytest.mark.parametrize("content", [b"", b"{not json", b"\xff\xfe\x00binary"])
    def test_invalid_json(self, content, tmp_path):
        path = tmp_path / "cleo_models.json"
        path.write_bytes(content)
        with pytest.raises(ModelFileError, match="not JSON"):
            load_predictor(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "cleo_models.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ModelFileError, match="JSON object"):
            load_predictor(path)


class TestEnvelope:
    @pytest.mark.parametrize("version", [1, 3, "2", None])
    def test_wrong_format_version(self, payload, version):
        payload["format_version"] = version
        _rejected(payload, "format version")

    def test_missing_format_version(self, payload):
        del payload["format_version"]
        _rejected(payload, "format version")

    def test_v1_payload(self, tiny_predictor):
        """The retired per-model layout: a dict of decimal floats per model."""
        signature, model = next(iter(tiny_predictor.store.models[ModelKind.OP_INPUT].items()))
        mean, scale, coef, intercept, y_scale = model.packed_parameters()
        v1_model = {
            "include_context": True,
            "n_samples": model.n_samples,
            "coef": coef.tolist(),
            "intercept": intercept,
            "y_scale": y_scale,
            "scaler_mean": mean.tolist(),
            "scaler_scale": scale.tolist(),
            "nonneg_indices": [],
        }
        v1 = {"format_version": 1, "models": {KIND: {str(signature): v1_model}}}
        _rejected(v1, "format version")
        v1["format_version"] = 2  # relabelled, the layout still fails typed
        _rejected(v1, "count")

    def test_models_missing(self, payload):
        del payload["models"]
        _rejected(payload, "models")


class TestKindBlocks:
    def test_unknown_kind(self, payload):
        payload["models"]["subgraph_v0"] = payload["models"].pop(KIND)
        _rejected(payload, "unknown model kind")

    @pytest.mark.parametrize("width", [29, 30, 32, 31.0, "31", None])
    def test_width_not_the_kinds_layout(self, payload, width):
        payload["models"][KIND]["width"] = width
        _rejected(payload, "wide, expected 31")

    @pytest.mark.parametrize(
        "name", ["signatures", "mean", "scale", "coef", "intercept", "y_scale", "n_samples"]
    )
    def test_column_byte_count(self, payload, name):
        block = payload["models"][KIND]
        block[name] = block[name][:-12]  # still valid base64, 9 bytes short
        _rejected(payload, f"column '{name}' holds")

    def test_count_disagrees_with_columns(self, payload):
        payload["models"][KIND]["count"] += 1
        _rejected(payload, "holds")

    def test_column_not_base64(self, payload):
        payload["models"][KIND]["coef"] = "!!" + payload["models"][KIND]["coef"][2:]
        _rejected(payload, "not base64")

    def test_column_missing(self, payload):
        del payload["models"][KIND]["scale"]
        _rejected(payload, "'scale' is missing")

    def test_duplicate_signatures(self, payload):
        block = payload["models"][KIND]
        signatures = _column(block, "signatures", "<u8")
        signatures[1] = signatures[0]
        _put(block, "signatures", signatures, "<u8")
        _rejected(payload, "duplicate")

    @pytest.mark.parametrize("name", ["mean", "scale", "coef", "intercept", "y_scale"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter(self, payload, name, bad):
        block = payload["models"][KIND]
        column = _column(block, name, "<f8")
        column[-1] = bad
        _put(block, name, column, "<f8")
        _rejected(payload, "non-finite")

    @pytest.mark.parametrize("name", ["scale", "y_scale"])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
    def test_scale_not_positive(self, payload, name, bad):
        block = payload["models"][KIND]
        column = _column(block, name, "<f8")
        column[0] = bad
        _put(block, name, column, "<f8")
        _rejected(payload, "scale <= 0")

    def test_nonneg_index_out_of_range(self, payload):
        payload["models"][KIND]["nonneg_indices"] = [31]
        _rejected(payload, "outside")


class TestCombinedBlock:
    def _internal_node(self, block: dict) -> int:
        return int(np.flatnonzero(_column(block, "feature", "<i8") >= 0)[0])

    @pytest.mark.parametrize("child", ["left", "right"])
    @pytest.mark.parametrize("bad", [-1, 0, 10**6])
    def test_child_index_out_of_range(self, payload, child, bad):
        block = payload["combined"]
        column = _column(block, child, "<i8")
        column[self._internal_node(block)] = bad
        _put(block, child, column, "<i8")
        _rejected(payload, "child index is out of range")

    def test_feature_out_of_range(self, payload):
        block = payload["combined"]
        column = _column(block, "feature", "<i8")
        column[self._internal_node(block)] = 15
        _put(block, "feature", column, "<i8")
        _rejected(payload, "feature out of range")

    def test_non_finite_leaf_value(self, payload):
        block = payload["combined"]
        column = _column(block, "value", "<f8")
        column[0] = np.nan
        _put(block, "value", column, "<f8")
        _rejected(payload, "non-finite")

    def test_node_counts_disagree_with_columns(self, payload):
        block = payload["combined"]
        counts = _column(block, "node_count", "<i8")
        counts[0] += 1
        _put(block, "node_count", counts, "<i8")
        _rejected(payload, "holds")


class TestSave:
    def test_unfitted_model_is_not_saved(self, tiny_predictor, tmp_path):
        """An unfitted model is refused at ``add``, so the saved file holds
        exactly the models the predictor held before."""
        from repro.core.learned_model import LearnedCostModel

        predictor = predictor_from_dict(predictor_to_dict(tiny_predictor))
        models, version = predictor.store.count(), predictor.store.version
        with pytest.raises(ModelNotTrainedError, match="unfitted"):
            predictor.store.add(
                ModelKind.OPERATOR, 10**9, LearnedCostModel(include_context=True)
            )
        assert predictor.store.get(ModelKind.OPERATOR, 10**9) is None
        assert (predictor.store.count(), predictor.store.version) == (models, version)
        path = tmp_path / "cleo_models.json"
        save_predictor(predictor, path)
        restored = load_predictor(path).store
        assert {kind: set(by_sig) for kind, by_sig in restored.models.items()} == {
            kind: set(by_sig) for kind, by_sig in tiny_predictor.store.models.items()
        }


class TestLifecycleState:
    @pytest.fixture()
    def state(self, tiny_predictor) -> dict:
        """A two-version lifecycle state."""
        manager = LifecycleManager(policy=POLICY)
        manager.registry.publish(tiny_predictor, day=3, window=(1, 2))
        manager.registry.publish(tiny_predictor, day=4, window=(2, 3))
        return json.loads(json.dumps(lifecycle_state_to_dict(manager)))

    def test_truncated_state_file(self, state, tmp_path):
        path = tmp_path / "state.json"
        save_json_atomic(state, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ModelFileError):
            LifecycleManager.resume(path, policy=POLICY)

    def test_corrupt_later_version_restores_nothing(self, state, tmp_path):
        block = state["registry"]["versions"][1]["predictor"]["models"][KIND]
        coef = _column(block, "coef", "<f8")
        coef[0] = np.nan
        _put(block, "coef", coef, "<f8")
        path = tmp_path / "state.json"
        save_json_atomic(state, path)
        with pytest.raises(ModelFileError, match="non-finite"):
            LifecycleManager.resume(path, policy=POLICY)
        # Applied to a live manager, the defect is found before the first
        # (valid) version is built: the manager keeps its own state.
        manager = LifecycleManager(policy=POLICY)
        with pytest.raises(ModelFileError):
            lifecycle_state_apply(manager, state)
        assert manager.registry.version_count == 0
        assert not manager.registry.has_active

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format_version", 1),
            ("drift_pending", "yes"),
            ("error_window", ["high"]),
            ("last_train_day", 2.5),
        ],
    )
    def test_bad_control_state(self, state, field, value):
        state[field] = value
        manager = LifecycleManager(policy=POLICY)
        with pytest.raises(ModelFileError):
            lifecycle_state_apply(manager, state)
        assert manager.registry.version_count == 0

    def test_active_version_not_published(self, state):
        state["registry"]["active_version"] = 3
        with pytest.raises(ModelFileError, match="active version"):
            lifecycle_state_apply(LifecycleManager(policy=POLICY), state)


RESILIENCE = ResilienceConfig(failure_threshold=2, cooldown_calls=8, window=8)


def _router(tiny_predictor) -> ShardedCleoRouter:
    return ShardedCleoRouter(
        {"cluster1": tiny_predictor}, n_shards=2, resilience=RESILIENCE
    )


class TestBreakerState:
    """A restore is all or nothing: the live router's breakers (shard 0
    OPEN mid-cooldown, shard 1 CLOSED with a mixed window) must read the
    same after any rejected payload, though the payload's own first
    snapshot is valid and different."""

    @pytest.fixture()
    def live(self, tiny_predictor):
        with _router(tiny_predictor) as router:
            health = router._health
            health[0].record_failure()
            health[0].record_failure()
            health[0].allow()
            health[1].record_failure()
            health[1].record_success()
            assert health[0].state is BreakerState.OPEN
            yield router

    @pytest.fixture()
    def payload(self, tiny_predictor) -> dict:
        """A valid state of another router: shard 0 CLOSED, shard 1 OPEN."""
        with _router(tiny_predictor) as donor:
            donor._health[0].record_success()
            for _ in range(2):
                donor._health[1].record_failure(timeout=True)
            return json.loads(json.dumps(donor.export_health()))

    def _rejected(self, router, payload) -> None:
        before = router.export_health()
        with pytest.raises(ModelFileError):
            router.restore_health(payload)
        assert router.export_health() == before

    def test_the_valid_payload_restores(self, live, payload):
        live.restore_health(payload)
        assert live.export_health() == payload

    @pytest.mark.parametrize(
        "field, value",
        [
            ("calls", "3"),
            ("calls", True),
            ("calls", -1),
            ("calls", 2.0),
            ("cooldown_remaining", None),
            ("state", "melted"),
            ("state", ["open"]),
            ("window", [True, "no"]),
            ("window", "TTF"),
            ("shard", 0),
        ],
    )
    def test_bad_second_snapshot_restores_no_shard(self, live, payload, field, value):
        payload["shards"][1][field] = value
        self._rejected(live, payload)

    @pytest.mark.parametrize("field", ["rejected", "state", "window", "shard"])
    def test_missing_field(self, live, payload, field):
        del payload["shards"][1][field]
        self._rejected(live, payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format_version", 2),
            ("format_version", "1"),
            ("n_shards", "2"),
            ("n_shards", 3),
            ("n_shards", -1),
            ("shards", {"0": {}}),
        ],
    )
    def test_bad_envelope(self, live, payload, field, value):
        payload[field] = value
        self._rejected(live, payload)

    def test_snapshot_not_an_object(self, live, payload):
        payload["shards"][1] = ["closed"]
        self._rejected(live, payload)

    def test_not_an_object(self, live):
        self._rejected(live, [])

    def test_other_shard_count(self, live, payload):
        payload["shards"].pop()
        payload["n_shards"] = 1
        self._rejected(live, payload)

    def test_one_breaker_restores_nothing_from_a_bad_snapshot(self, payload):
        health = ShardHealth(1, RESILIENCE)
        health.record_failure()
        before = health.snapshot()
        snapshot = payload["shards"][1]
        snapshot["cooldown_remaining"] = "soon"
        with pytest.raises(ModelFileError):
            health.restore(snapshot)
        assert health.snapshot() == before


class TestQuarantineState:
    @pytest.fixture()
    def payload(self) -> dict:
        quarantine = ModelQuarantine(tolerance_factor=3.0, min_observations=7)
        quarantine.record(ModelKind.OP_SUBGRAPH, 2**64 - 1)
        quarantine.record(ModelKind.OPERATOR, 456)
        return json.loads(json.dumps(quarantine_to_dict(quarantine)))

    def test_the_valid_payload_restores(self, payload):
        restored = quarantine_from_dict(payload)
        assert restored.ledger() == (
            (ModelKind.OP_SUBGRAPH, 2**64 - 1),
            (ModelKind.OPERATOR, 456),
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format_version", 2),
            ("tolerance_factor", "4"),
            ("tolerance_factor", float("nan")),
            ("min_observations", -1),
            ("min_observations", 2.5),
            ("min_observations", True),
            ("ledger", {"operator": "456"}),
        ],
    )
    def test_bad_policy(self, payload, field, value):
        payload[field] = value
        with pytest.raises(ModelFileError):
            quarantine_from_dict(payload)

    @pytest.mark.parametrize(
        "entry",
        [
            ["melted", "1"],
            ["operator"],
            ["operator", "1", "2"],
            "operator:1",
            ["operator", 456],
            ["operator", "-5"],
            ["operator", "0x1f"],
            ["operator", str(2**64)],
            ["operator", "\u00b2"],
        ],
    )
    def test_bad_ledger_entry(self, payload, entry):
        payload["ledger"].append(entry)
        with pytest.raises(ModelFileError):
            quarantine_from_dict(payload)

    def test_not_an_object(self):
        with pytest.raises(ModelFileError):
            quarantine_from_dict([])
