"""Columnar trainer parity: the fast path must match the scalar reference.

``CleoTrainer.train`` (columnar: table grouping, batched elastic nets,
bulk meta rows) and ``CleoTrainer.train_reference`` (per-record scalar
loops) must produce bitwise-identical models and predictions — this is the
pin that lets the hot path evolve without silently changing results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.combined import build_meta_matrix, meta_matrix_and_calls
from repro.core.config import CleoConfig, ModelKind
from repro.core.trainer import CleoTrainer
from repro.features.table import FeatureTable
from repro.ml.proximal import ElasticNetMSLE, fit_elastic_nets
from repro.reference import (
    build_meta_row,
    meta_matrix_and_calls_reference,
    train_combined_reference,
    train_individual_reference,
)
from repro.serving import CleoService


@pytest.fixture(scope="module")
def parity_predictors(tiny_bundle):
    trainer = CleoTrainer(CleoConfig())
    columnar = trainer.train(tiny_bundle.log)
    reference = trainer.train_reference(tiny_bundle.log)
    return columnar, reference


#: A kind's parameter columns.
_PARAMETERS = ("mean", "scale", "coef", "intercept", "y_scale", "n_samples")


def _assert_same_models(fast, slow) -> None:
    """Both stores hold the same signatures per kind, and each signature's
    parameter row is bitwise the same (the stores' model orders differ:
    sorted signatures vs first appearance in the log)."""
    for kind in ModelKind:
        ours, theirs = fast.columns(kind), slow.columns(kind)
        assert set(ours.signatures.tolist()) == set(theirs.signatures.tolist())
        order = np.argsort(theirs.signatures)
        rows = order[np.searchsorted(theirs.signatures[order], ours.signatures)]
        assert np.array_equal(theirs.signatures[rows], ours.signatures)
        assert ours.nonneg_indices == theirs.nonneg_indices
        for name in _PARAMETERS:
            assert getattr(ours, name).tobytes() == getattr(theirs, name)[rows].tobytes()


class TestTrainerParity:
    def test_same_model_inventory(self, parity_predictors):
        columnar, reference = parity_predictors
        for kind in ModelKind:
            assert set(columnar.store.columns(kind).signatures.tolist()) == set(
                reference.store.columns(kind).signatures.tolist()
            )

    def test_individual_coefficients_bitwise_identical(self, parity_predictors):
        columnar, reference = parity_predictors
        _assert_same_models(columnar.store, reference.store)

    def test_predictions_bitwise_identical(self, tiny_bundle, parity_predictors):
        columnar, reference = parity_predictors
        records = list(tiny_bundle.test_log().operator_records())
        batched = CleoService(columnar, prediction_cache_size=0).predict_records(records)
        one_row = CleoService(reference, prediction_cache_size=0)
        scalar = np.concatenate(
            [
                one_row.predict_inputs(FeatureTable.from_records([r]))
                for r in records
            ]
        )
        assert np.array_equal(batched, scalar)

    def test_train_raises_on_empty_log(self):
        from repro.execution.runtime_log import RunLog

        trainer = CleoTrainer()
        with pytest.raises(ValueError):
            trainer.train_combined(trainer.train_individual(RunLog()), RunLog())


class TestStageReferences:
    """Per-stage references must stay exercised (reference-parity lint rule).

    ``train_reference`` covers the end-to-end path; these pin the two
    stage-level references bitwise against their batched twins so neither
    can rot unnoticed.
    """

    def test_train_individual_reference_bitwise(self, tiny_bundle):
        trainer = CleoTrainer(CleoConfig())
        fast = trainer.train_individual(tiny_bundle.log)
        slow = train_individual_reference(tiny_bundle.log, trainer.config)
        assert fast.count() == slow.count() > 0
        _assert_same_models(fast, slow)

    def test_train_combined_reference_bitwise(self, tiny_bundle):
        trainer = CleoTrainer(CleoConfig())
        store = trainer.train_individual(tiny_bundle.log)
        fast = trainer.train_combined(store, tiny_bundle.log)
        slow = train_combined_reference(store, tiny_bundle.log, trainer.config)
        table = tiny_bundle.test_log().to_table()
        rows = build_meta_matrix(store, table)
        assert np.array_equal(fast.predict_rows(rows), slow.predict_rows(rows))


class TestMetaMatrix:
    def test_matches_scalar_meta_rows(self, tiny_bundle, parity_predictors):
        columnar, _ = parity_predictors
        log = tiny_bundle.test_log()
        table = log.to_table()
        matrix = build_meta_matrix(columnar.store, table)
        records = list(log.operator_records())
        for i in range(0, len(records), max(1, len(records) // 25)):
            row = build_meta_row(
                columnar.store, records[i].features, records[i].signatures
            )
            assert np.array_equal(matrix[i], row)

    def test_model_call_accounting(self, tiny_bundle, parity_predictors):
        columnar, _ = parity_predictors
        table = tiny_bundle.test_log().to_table()
        _, calls = meta_matrix_and_calls(columnar.store, table)
        # One vectorized call per covering (kind, signature) group; never
        # more than one per model nor per (kind, record).
        assert 0 < calls <= columnar.store.count()
        # The packed ledger counts exactly what the object-graph loop makes.
        assert calls == meta_matrix_and_calls_reference(columnar.store, table)[1]


def _assert_row_is_the_fit(fitted, g: int, net: ElasticNetMSLE) -> None:
    """Row ``g`` of a batched fit holds, bit for bit, what ``net.fit`` left
    on the net and its scaler."""
    *planes, intercept, y_scale = net.packed_parameters()
    for column, plane in zip(fitted[:3], planes):  # mean, scale, coef
        assert column[g].tobytes() == plane.tobytes()
    assert (fitted[3][g], fitted[4][g]) == (intercept, y_scale)
    assert fitted[5][g] == net.n_iter_


class TestBatchedElasticNet:
    def test_batched_fit_bitwise_equals_individual_fits(self):
        rng = np.random.default_rng(7)
        sizes = [5, 23, 8, 147, 64]
        matrices = [np.exp(rng.normal(0, 4, size=(n, 6))) for n in sizes]
        targets = [np.exp(rng.normal(2, 1, size=n)) for n in sizes]
        # A constant column: its scale is read as 1, as StandardScaler does.
        matrices[2][:, 4] = 3.0

        def make_net() -> ElasticNetMSLE:
            return ElasticNetMSLE(alpha=0.01, max_iter=120, tol=1e-5, nonneg_indices=(2,))

        solo = [make_net().fit(x, y) for x, y in zip(matrices, targets)]
        lengths = np.array(sizes)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        template = make_net()
        fitted = fit_elastic_nets(
            template, np.vstack(matrices), np.concatenate(targets), starts, lengths
        )
        assert template.coef_ is None  # it only holds the hyperparameters
        for g, one in enumerate(solo):
            _assert_row_is_the_fit(fitted, g, one)

    def test_batched_fit_with_gapped_starts(self):
        # The segment contract is "net g owns rows starts[g]:starts[g]+
        # lengths[g]" — gaps between segments (skipped rows) are legal and
        # must not shift any net's training data.
        rng = np.random.default_rng(11)
        x = np.exp(rng.normal(0, 3, size=(100, 4)))
        y = np.exp(rng.normal(1, 1, size=100))
        starts = np.array([0, 60])  # rows 50..59 belong to no net
        lengths = np.array([50, 40])

        def make_net() -> ElasticNetMSLE:
            return ElasticNetMSLE(alpha=0.01, max_iter=80, tol=1e-5)

        fitted = fit_elastic_nets(make_net(), x, y, starts, lengths)
        solo = [
            make_net().fit(x[0:50], y[0:50]),
            make_net().fit(x[60:100], y[60:100]),
        ]
        for g, one in enumerate(solo):
            _assert_row_is_the_fit(fitted, g, one)

    def test_batched_fit_rejects_misaligned_segments(self):
        x = np.ones((4, 2))
        y = np.ones(4)
        with pytest.raises(ValueError):
            fit_elastic_nets(ElasticNetMSLE(), x, y, np.array([0, 2]), np.array([2]))
