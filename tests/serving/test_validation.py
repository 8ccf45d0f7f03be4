"""Tests for serving-boundary validation and model quarantine.

Input side: requests carrying non-finite features (or misaligned
sequences) are rejected with a typed
:class:`~repro.common.errors.FeatureValidationError` — which is also a
``ValueError``, so pre-existing ``except ValueError`` callers keep
working — instead of being priced into garbage.

Output side: a model that emits NaN/inf/negative predictions is caught
red-handed at the service boundary, removed from the
:class:`~repro.core.model_store.ModelStore` via
:class:`~repro.core.regression_control.ModelQuarantine` (the bank
recompiles without it), and the offending rows are repriced through the
fallback chain — the caller always receives finite, non-negative costs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import FeatureValidationError, ValidationError
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.model_store import signature_for
from repro.core.predictor import CleoPredictor
from repro.core.regression_control import ModelQuarantine
from repro.core.robustness import score_table
from repro.features.table import FeatureTable
from repro.plan.signatures import SignatureBundle
from repro.serving import CleoService, PredictionRequest
from repro.serving.shard import ShardedCleoRouter

# ------------------------------------------------------------------ #
# Fixtures
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def records(tiny_bundle):
    return list(tiny_bundle.log.operator_records())[:200]


@pytest.fixture(scope="module")
def requests(records):
    return [PredictionRequest.for_record(r) for r in records]


def corrupt_most_specific(store, bundle):
    """NaN-poison and republish the store's most specific model for
    ``bundle``, so the packed bank recompiles with the bad parameters —
    the way a model broken at training time actually reaches serving."""
    kind, model = store.most_specific(bundle)
    model._net.coef_ = np.full_like(model._net.coef_, np.nan)
    signature = signature_for(kind, bundle)
    store.add(kind, signature, model)
    return kind, signature


@pytest.fixture(params=["service", "router"])
def cost_model(request, tiny_predictor):
    """A ``CleoCostModel`` over a plain service and over a router client."""
    if request.param == "service":
        yield CleoService(tiny_predictor).cost_model()
    else:
        with ShardedCleoRouter({"cluster1": tiny_predictor}, n_shards=2) as router:
            yield router.client().cost_model()


@pytest.fixture()
def corrupt_service(tiny_bundle, records):
    """A store-only service whose most specific model for record 0 is NaN.

    Store-only (no combined meta-ensemble) because tree ensembles route
    NaN features to finite leaves — the combined model would mask the
    poisoned individual model instead of exposing it.
    """
    store = copy.deepcopy(tiny_bundle.predictor().store)
    kind, signature = corrupt_most_specific(store, records[0].signatures)
    service = CleoService(CleoPredictor(store=store, combined=None))
    return service, store, kind, signature


# ------------------------------------------------------------------ #
# Input validation
# ------------------------------------------------------------------ #


class TestInputValidation:
    def test_error_type_is_both_validation_and_value_error(self):
        assert issubclass(FeatureValidationError, ValidationError)
        assert issubclass(FeatureValidationError, ValueError)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_one_row_price_rejects_non_finite_features(
        self, tiny_predictor, requests, bad
    ):
        service = CleoService(tiny_predictor)
        request = requests[0]
        poisoned = replace(request.features, input_card=bad)
        with pytest.raises(FeatureValidationError):
            service.predict_inputs(
                FeatureTable.from_inputs([poisoned], [request.signatures])
            )

    def test_resource_profiles_reject_non_finite_features(
        self, tiny_predictor, requests
    ):
        """A covered row with a NaN base cardinality is refused before any
        lookup is charged, on a service and through a router; it used to come
        back as a profile with ``theta_0 = nan``."""
        row = next(
            r for r in requests if tiny_predictor.store.most_specific(r.signatures)
        )
        table = FeatureTable.from_inputs(
            [row.features, replace(row.features, base_card=float("nan"))],
            [row.signatures, row.signatures],
        )
        service = CleoService(tiny_predictor)
        before = service.lookup_count
        with pytest.raises(FeatureValidationError):
            service.resource_profiles(table)
        assert service.lookup_count == before
        with ShardedCleoRouter({"cluster1": tiny_predictor}, n_shards=2) as router:
            before = router.lookup_count
            with pytest.raises(FeatureValidationError):
                router.resource_profiles("cluster1", table)
            assert router.lookup_count == before

    def test_batch_rejects_non_finite_features(self, tiny_predictor, requests):
        service = CleoService(tiny_predictor)
        poisoned = PredictionRequest(
            replace(requests[3].features, avg_row_bytes=float("nan")),
            requests[3].signatures,
        )
        with pytest.raises(FeatureValidationError):
            service.predict_batch([*requests[:3], poisoned])

    def test_table_rejects_non_finite_features(self, tiny_predictor, requests):
        service = CleoService(tiny_predictor)
        table = FeatureTable.from_inputs(
            [r.features for r in requests[:10]],
            [r.signatures for r in requests[:10]],
        )
        table.output_card[4] = float("inf")
        with pytest.raises(FeatureValidationError):
            service.predict_table(table)

    def test_table_requires_signatures(self, tiny_predictor, requests):
        service = CleoService(tiny_predictor)
        bare = FeatureTable.from_inputs([r.features for r in requests[:5]])
        with pytest.raises(FeatureValidationError):
            service.predict_table(bare)

    def test_misaligned_sequences_rejected(self, tiny_predictor, requests):
        service = CleoService(tiny_predictor)
        with pytest.raises(FeatureValidationError):
            service.predict_inputs(
                FeatureTable.from_inputs(
                    [r.features for r in requests[:4]],
                    [r.signatures for r in requests[:3]],
                )
            )

    def test_inputs_and_profiles_require_signatures(self, tiny_predictor, requests):
        service = CleoService(tiny_predictor)
        bare = FeatureTable.from_inputs([r.features for r in requests[:5]])
        with ShardedCleoRouter({"cluster1": tiny_predictor}, n_shards=2) as router:
            for price in (
                service.predict_inputs,
                service.resource_profiles,
                router.client("cluster1").predict_inputs,
                router.client("cluster1").resource_profiles,
            ):
                with pytest.raises(FeatureValidationError):
                    price(bare)

    @pytest.mark.parametrize(
        "n_bundles, lengths", [(3, [4]), (4, [3])], ids=["misaligned", "lengths"]
    )
    def test_price_plans_misuse_is_typed_on_every_backend(
        self, cost_model, requests, n_bundles, lengths
    ):
        inputs = [r.features for r in requests[:4]]
        bundles = [r.signatures for r in requests[:n_bundles]]
        with pytest.raises(FeatureValidationError):
            table = FeatureTable.from_inputs(inputs, bundles)
            cost_model.price_plans(table, lengths=lengths)

    def test_validation_can_be_disabled(self, tiny_predictor, requests):
        service = CleoService(tiny_predictor, validate_inputs=False)
        request = requests[0]
        poisoned = replace(request.features, input_card=float("nan"))
        # No raise: the request is priced (garbage in, *bounded* garbage
        # out — output validation still guards the result).
        value = service.predict_inputs(
            FeatureTable.from_inputs([poisoned], [request.signatures])
        )[0]
        assert math.isfinite(value)

    def test_router_propagates_validation_errors(self, tiny_predictor, requests):
        """The ladder must re-raise caller bugs, not degrade them."""
        poisoned = PredictionRequest(
            replace(requests[0].features, input_card=float("nan")),
            requests[0].signatures,
        )
        with ShardedCleoRouter({"cluster1": tiny_predictor}, n_shards=2) as router:
            with pytest.raises(FeatureValidationError):
                router.predict_batch("cluster1", [poisoned])
            with pytest.raises(FeatureValidationError):
                router.predict_inputs(
                    "cluster1",
                    FeatureTable.from_inputs(
                        [r.features for r in requests[:2]],
                        [r.signatures for r in requests[:3]],
                    ),
                )
            stats = router.stats()
        assert stats.degraded_predictions == 0
        assert stats.retries == 0


# ------------------------------------------------------------------ #
# Output validation and quarantine
# ------------------------------------------------------------------ #


class TestOutputValidationAndQuarantine:
    def test_unvalidated_service_leaks_nan(self, corrupt_service, records):
        service, _, _, _ = corrupt_service
        leaky = CleoService(
            service.predictor, validate_inputs=False, validate_outputs=False
        )
        value = leaky.predict_inputs(FeatureTable.from_records(records[:1]))[0]
        assert not math.isfinite(value)

    def test_scoring_never_repairs_or_quarantines(self, corrupt_service, records):
        """An evaluation scores the models as they are: the poisoned row
        comes back as NaN and the offender stays in the store."""
        _, store, kind, signature = corrupt_service
        predictor = CleoPredictor(store=store, combined=None)
        values = score_table(predictor, FeatureTable.from_records(records))
        assert not math.isfinite(values[0])
        assert store.get(kind, signature) is not None

    def test_one_row_repair_quarantines_the_offender(
        self, corrupt_service, records
    ):
        service, store, kind, signature = corrupt_service
        assert store.get(kind, signature) is not None
        value = service.predict_inputs(FeatureTable.from_records(records[:1]))[0]
        assert math.isfinite(value) and value >= 0.0
        assert store.get(kind, signature) is None
        stats = service.stats()
        assert stats.quarantined_models == 1
        assert stats.degraded_predictions >= 1
        assert "quarantined" in stats.describe()

    def test_batch_repair_keeps_every_row_finite(self, corrupt_service, requests):
        service, store, kind, signature = corrupt_service
        values = service.predict_batch(requests)
        assert np.isfinite(values).all() and (values >= 0.0).all()
        assert store.get(kind, signature) is None
        assert service.stats().quarantined_models == 1

    def test_table_repair_keeps_every_row_finite(self, corrupt_service, requests):
        service, _, _, _ = corrupt_service
        table = FeatureTable.from_inputs(
            [r.features for r in requests], [r.signatures for r in requests]
        )
        values = service.predict_table(table)
        assert np.isfinite(values).all() and (values >= 0.0).all()
        assert service.stats().quarantined_models == 1

    def test_second_pass_is_idempotent(self, corrupt_service, requests):
        """After the quarantine the bank recompiles without the offender:
        replaying the batch neither re-quarantines nor re-degrades."""
        service, _, _, _ = corrupt_service
        first = service.predict_batch(requests)
        after_first = service.stats()
        second = service.predict_batch(requests)
        after_second = service.stats()
        assert np.array_equal(first, second)
        assert after_second.quarantined_models == after_first.quarantined_models
        assert (
            after_second.degraded_predictions == after_first.degraded_predictions
        )

    def test_clean_models_are_never_quarantined(self, tiny_predictor, requests):
        service = CleoService(tiny_predictor)
        before = tiny_predictor.store.count()
        service.predict_batch(requests)
        assert service.stats().quarantined_models == 0
        assert service.stats().degraded_predictions == 0
        assert tiny_predictor.store.count() == before

    def test_sharded_router_contains_a_poisoned_model(
        self, tiny_bundle, records, requests
    ):
        """End to end: a NaN model behind one shard of the fleet is
        quarantined by that shard's service and every answer stays
        finite."""
        store = copy.deepcopy(tiny_bundle.predictor().store)
        corrupt_most_specific(store, records[0].signatures)
        predictor = CleoPredictor(store=store, combined=None)
        with ShardedCleoRouter({"cluster1": predictor}, n_shards=3) as router:
            values = router.predict_batch("cluster1", requests)
            stats = router.stats()
        assert np.isfinite(values).all() and (values >= 0.0).all()
        assert stats.quarantined_models >= 1

    def test_negative_predictions_also_trigger_repair(
        self, tiny_bundle, requests
    ):
        """Output validation rejects negative costs, not just non-finite
        ones.  The stock regressors clamp at zero, so a negative value can
        only reach serving through a foreign/corrupted transport — drive
        the repair helper with one directly."""
        store = copy.deepcopy(tiny_bundle.predictor().store)
        service = CleoService(CleoPredictor(store=store, combined=None))
        values = np.array([1.0, -5.0, 2.0])
        table = FeatureTable.from_inputs(
            [r.features for r in requests[:3]],
            [r.signatures for r in requests[:3]],
        )
        repaired = service._repaired_table(table, values)
        assert repaired[0] == 1.0 and repaired[2] == 2.0
        assert math.isfinite(repaired[1]) and repaired[1] >= 0.0
        stats = service.stats()
        assert stats.degraded_predictions == 1
        # No model actually misbehaved, so nothing was quarantined.
        assert stats.quarantined_models == 0


# ------------------------------------------------------------------ #
# Repair parity: the columnar repair against the per-row chain
# ------------------------------------------------------------------ #


def _serveable(value: float) -> bool:
    return math.isfinite(value) and value >= 0.0


class _NanMetaModel:
    """The trained ensemble, except that it answers NaN on rows with a NaN
    meta-feature (as a linear meta model would) and on rows whose input
    cardinality (meta column 8) exceeds ``limit``: NaN is row-local."""

    def __init__(self, regressor, limit: float) -> None:
        self.regressor = regressor
        self.limit = limit

    def predict(self, rows: np.ndarray) -> np.ndarray:
        out = np.array(self.regressor.predict(rows), dtype=float)
        out[np.isnan(rows).any(axis=1) | (rows[:, 8] > self.limit)] = np.nan
        return out


def _repair_scenario(tiny_bundle, records, with_combined: bool, fallback: float):
    """A predictor whose models of two kinds carry non-finite coefficients,
    optionally with a combined model that yields NaN on some rows.

    A less specific kind's model (NaN coefficients) goes bad on an earlier
    row than an op-subgraph model (+inf coefficients), so the ledger's
    row-major order is not its specificity order.
    """
    predictor = copy.deepcopy(tiny_bundle.predictor())
    store = predictor.store
    first_row: dict = {}
    for i, record in enumerate(records):
        for kind in SPECIFICITY_ORDER:
            key = (kind, signature_for(kind, record.signatures))
            if store.get(*key) is not None:
                first_row.setdefault(key, i)
    at, kind = next(
        (i, found[0])
        for i, record in enumerate(records)
        if (found := store.most_specific(record.signatures)) is not None
        and found[0] is not ModelKind.OP_SUBGRAPH
    )
    general = (kind, signature_for(kind, records[at].signatures))
    specific = next(
        key for key, i in first_row.items() if key[0] is ModelKind.OP_SUBGRAPH and i > at
    )
    for key, bad in ((general, np.nan), (specific, np.inf)):
        model = store.get(*key)
        model._net.coef_ = np.full_like(model._net.coef_, bad)
        store.add(*key, model)
    combined = None
    if with_combined:
        combined = predictor.combined
        limit = float(np.quantile([r.features.input_card for r in records], 0.9))
        combined.regressor = _NanMetaModel(combined.regressor, limit)
    return CleoPredictor(store=store, combined=combined, fallback_cost=fallback)


def _per_row_chain(predictor, records):
    """The per-row ``predict_one`` reference: price each row down the
    chain, then, for the unserveable rows, probe every ``(row, kind)``
    pair, quarantine the offenders in row-major, specificity order, and
    re-price those rows down the chain one at a time."""
    store, combined = predictor.store, predictor.combined

    def chain(record):
        value = math.nan
        if combined is not None:
            value = float(combined.predict_one(record.features, record.signatures))
        if not _serveable(value):
            best = store.most_specific(record.signatures)
            value = math.nan if best is None else best[1].predict_one(record.features)
        if not _serveable(value):
            value = float(predictor.fallback_cost)
        return value

    first = []
    for record in records:
        if combined is not None:
            first.append(float(combined.predict_one(record.features, record.signatures)))
        else:
            best = store.most_specific(record.signatures)
            first.append(
                predictor.fallback_cost
                if best is None
                else best[1].predict_one(record.features)
            )
    bad = [i for i, value in enumerate(first) if not _serveable(value)]
    quarantine = ModelQuarantine()
    offenders = {}
    for i in bad:
        for kind in SPECIFICITY_ORDER:
            signature = signature_for(kind, records[i].signatures)
            model = store.get(kind, signature)
            if model is not None and not _serveable(model.predict_one(records[i].features)):
                offenders.setdefault((kind, signature))
    for kind, signature in offenders:
        quarantine.quarantine(store, kind, signature)
    values = list(first)
    for i in bad:
        value = chain(records[i])
        values[i] = min(value if _serveable(value) else 1.0, 1e7)
    return np.array(values), quarantine.ledger(), len(bad)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestRepairParity:
    @pytest.mark.parametrize("with_combined", [False, True])
    @pytest.mark.parametrize("fallback", [2.5, math.nan])
    def test_columnar_repair_matches_the_per_row_chain(
        self, tiny_bundle, records, with_combined, fallback
    ):
        # The last row no model covers: with a NaN fallback it ends on the
        # bounded default.
        rows = [*records, replace(records[0], signatures=SignatureBundle(1, 2, 3, 4))]
        served = _repair_scenario(tiny_bundle, rows, with_combined, fallback)
        oracle = _repair_scenario(tiny_bundle, rows, with_combined, fallback)
        expected, ledger, degraded = _per_row_chain(oracle, rows)
        assert degraded > 0
        order = [SPECIFICITY_ORDER.index(kind) for kind, _ in ledger]
        assert len(set(order)) >= 2 and order != sorted(order)
        assert (expected[-1] == 1.0) == (math.isnan(fallback) and not with_combined)

        service = CleoService(served, prediction_cache_size=0)
        values = service.predict_table(FeatureTable.from_records(rows))
        assert values.tobytes() == expected.tobytes()
        stats = service.stats()
        assert stats.quarantined_models == len(ledger)
        assert stats.degraded_predictions == degraded
        assert service._model_quarantine.ledger() == ledger
        assert {kind: set(m) for kind, m in served.store.models.items()} == {
            kind: set(m) for kind, m in oracle.store.models.items()
        }
