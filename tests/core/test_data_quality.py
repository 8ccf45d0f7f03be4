"""Tests for the trainer's data-quality gate and the quarantine ledger.

The gate's contract has three legs:

* **Detection** — poisoned rows (NaN / absurd latencies, double-appended
  duplicates, non-finite features) are excised with per-rule counts in a
  :class:`~repro.core.trainer.TrainingAudit`.
* **Clean-path parity** — a clean table short-circuits to the original
  object, so sanitized training is bitwise-identical to unsanitized
  training on healthy data; duplicate-only corruption is excised back to
  bitwise-identical models.
* **Typed failure** — a table that sanitizes to zero rows raises
  :class:`~repro.common.errors.DataQualityError`, never a silent fit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.common.chaos import PoisonPolicy, RunLogPoisoner
from repro.common.errors import DataQualityError
from repro.core.config import ModelKind
from repro.core.trainer import CleoTrainer, TrainingAudit
from repro.features.table import MAX_SANE_LATENCY_S


def _store_models_equal(a, b) -> bool:
    """Bitwise equality of every individual model in two stores."""
    for kind in ModelKind:
        signatures = a.columns(kind).signatures.tolist()
        if set(signatures) != set(b.columns(kind).signatures.tolist()):
            return False
        for signature in signatures:
            model, other = a.get(kind, signature), b.get(kind, signature)
            if not np.array_equal(model._net.coef_, other._net.coef_):
                return False
            if model._net.intercept_ != other._net.intercept_:
                return False
    return True


# ------------------------------------------------------------------ #
# FeatureTable.sanitize_mask
# ------------------------------------------------------------------ #


class TestSanitizeMask:
    def test_clean_table_keeps_everything(self, tiny_bundle):
        table = tiny_bundle.log.to_table()
        keep, counts = table.sanitize_mask()
        assert keep.all()
        assert counts["rows_dropped"] == 0

    def test_nan_latency_flagged(self, tiny_bundle):
        policy = PoisonPolicy(name="nan", nan_rate=0.1)
        poisoned, injected = RunLogPoisoner(policy).poison(tiny_bundle.log)
        keep, counts = poisoned.to_table().sanitize_mask()
        assert counts["invalid_latency"] == injected["nan"]
        assert counts["rows_dropped"] == injected["nan"]

    def test_outlier_latency_flagged(self, tiny_bundle):
        policy = PoisonPolicy(name="out", outlier_rate=0.1)
        poisoned, injected = RunLogPoisoner(policy).poison(tiny_bundle.log)
        keep, counts = poisoned.to_table().sanitize_mask()
        assert counts["invalid_latency"] == injected["outlier"]

    def test_adjacent_duplicates_flagged(self, tiny_bundle):
        policy = PoisonPolicy(name="dup", duplicate_rate=0.1)
        poisoned, injected = RunLogPoisoner(policy).poison(tiny_bundle.log)
        keep, counts = poisoned.to_table().sanitize_mask()
        assert counts["duplicate_rows"] == injected["duplicate"]

    def test_sane_latency_bound_is_physical(self):
        # ~116 days: beyond any real operator, below float overflow.
        assert MAX_SANE_LATENCY_S == 1e7


# ------------------------------------------------------------------ #
# CleoTrainer gate
# ------------------------------------------------------------------ #


class TestTrainerGate:
    def test_sanitized_training_is_bitwise_noop_on_clean_data(self, tiny_bundle):
        log = tiny_bundle.log
        gated = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])
        ungated = CleoTrainer(sanitize=False).train(
            log, individual_days=[1, 2], combined_days=[2]
        )
        assert _store_models_equal(gated.store, ungated.store)

    def test_duplicate_poison_recovers_bitwise(self, tiny_bundle):
        log = tiny_bundle.log
        clean = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])
        policy = PoisonPolicy(name="dup", duplicate_rate=0.2, days=(1, 2))
        poisoned, injected = RunLogPoisoner(policy).poison(log)
        assert injected["duplicate"] > 0
        trainer = CleoTrainer()
        recovered = trainer.train(
            poisoned, individual_days=[1, 2], combined_days=[2]
        )
        assert _store_models_equal(clean.store, recovered.store)
        assert trainer.last_audit is not None
        assert trainer.last_audit.duplicate_rows > 0

    def test_nan_poison_trains_through_with_audit(self, tiny_bundle):
        policy = PoisonPolicy(name="nan", nan_rate=0.1, days=(1, 2))
        poisoned, injected = RunLogPoisoner(policy).poison(tiny_bundle.log)
        trainer = CleoTrainer()
        predictor = trainer.train(
            poisoned, individual_days=[1, 2], combined_days=[2]
        )
        audit = trainer.last_audit
        assert audit is not None and audit.rows_dropped > 0
        assert audit.invalid_latency > 0
        assert predictor.store.count() > 0

    def test_all_poisoned_day_raises_typed_error(self, tiny_bundle):
        policy = PoisonPolicy(name="storm", nan_rate=1.0, days=(1,))
        poisoned, _ = RunLogPoisoner(policy).poison(tiny_bundle.log)
        with pytest.raises(DataQualityError):
            CleoTrainer().train_individual(poisoned.filter(days=[1]))

    def test_sanitize_off_restores_pre_gate_behavior(self, tiny_bundle):
        # Without the gate, NaN targets reach the fitter and blow up with
        # an untyped ValueError — the failure mode the gate exists to
        # replace with typed excision.
        policy = PoisonPolicy(name="nan", nan_rate=0.1, days=(1, 2))
        poisoned, _ = RunLogPoisoner(policy).poison(tiny_bundle.log)
        trainer = CleoTrainer(sanitize=False)
        with pytest.raises(ValueError):
            trainer.train_individual(poisoned.filter(days=[1, 2]))
        assert trainer.last_audit is None

    def test_audit_resets_per_train_call(self, tiny_bundle):
        trainer = CleoTrainer()
        trainer.train(tiny_bundle.log, individual_days=[1, 2], combined_days=[2])
        first = trainer.last_audit
        trainer.train(tiny_bundle.log, individual_days=[1, 2], combined_days=[2])
        assert trainer.last_audit is not None
        assert trainer.last_audit.rows_seen == first.rows_seen

    def test_audit_merge_and_describe(self):
        a = TrainingAudit(rows_seen=10, rows_kept=8, invalid_latency=2)
        b = TrainingAudit(rows_seen=5, rows_kept=5)
        merged = a.merge(b)
        assert merged.rows_seen == 15 and merged.rows_dropped == 2
        assert b.rows_dropped == 0
        assert "13/15 rows kept" in merged.describe()


# ------------------------------------------------------------------ #
# ModelStore.remove
# ------------------------------------------------------------------ #


class TestModelStoreRemove:
    def test_remove_existing_model(self, tiny_predictor):
        from repro.core.serialization import predictor_from_dict, predictor_to_dict

        store = predictor_from_dict(predictor_to_dict(tiny_predictor)).store
        kind = ModelKind.OP_SUBGRAPH
        signature = int(store.columns(kind).signatures[0])
        before = store.count()
        assert store.remove(kind, signature) is True
        assert store.count() == before - 1
        assert signature not in store.columns(kind).signatures.tolist()
        assert store.get(kind, signature) is None

    def test_remove_missing_signature_is_noop(self, tiny_predictor):
        from repro.core.serialization import predictor_from_dict, predictor_to_dict

        store = predictor_from_dict(predictor_to_dict(tiny_predictor)).store
        before = store.count()
        assert store.remove(ModelKind.OP_SUBGRAPH, 123456789) is False
        assert store.count() == before

    def test_remove_is_idempotent(self, tiny_predictor):
        from repro.core.serialization import predictor_from_dict, predictor_to_dict

        store = predictor_from_dict(predictor_to_dict(tiny_predictor)).store
        kind = ModelKind.OP_SUBGRAPH
        signature = int(store.columns(kind).signatures[0])
        assert store.remove(kind, signature) is True
        assert store.remove(kind, signature) is False
