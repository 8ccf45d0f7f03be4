"""Batched Section-5.3 resource profiles vs the per-model scalar path.

``resource_profiles_most_specific`` replays each packed model's raw-space
coefficients into ``(theta_p, theta_c, theta_0)`` with the same reduction
order as ``LearnedCostModel.resource_profile``, so the analytical partition
strategy prices whole stages through the packed bank **bitwise identically**
to the per-operator loop — including the 5-lookups-per-covered-row
accounting the paper's Figure 8c tracks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packed import resource_profiles_most_specific
from repro.core.predictor import CleoPredictor
from repro.features.table import FeatureTable
from repro.reference import resource_profiles_reference
from repro.serving import CleoService, PredictionRequest


@pytest.fixture(scope="module")
def rows(tiny_bundle):
    records = list(tiny_bundle.log.operator_records())[:400]
    requests = [PredictionRequest.for_record(r) for r in records]
    return [r.features for r in requests], [r.signatures for r in requests]


class TestBatchedResourceProfiles:
    def test_bitwise_identical_to_per_model_path(self, tiny_predictor, rows):
        inputs, bundles = rows
        batched, n_covered = resource_profiles_most_specific(
            tiny_predictor.store, FeatureTable.from_inputs(inputs, bundles)
        )
        scalar = resource_profiles_reference(tiny_predictor.store, inputs, bundles)
        assert len(batched) == len(scalar) == len(inputs)
        for ours, theirs in zip(batched, scalar):
            if theirs is None:
                assert ours is None
            else:
                # Exact float equality: same reduction order, bit for bit.
                assert (ours.theta_p, ours.theta_c, ours.theta_0) == (
                    theirs.theta_p,
                    theirs.theta_c,
                    theirs.theta_0,
                )
        assert n_covered == sum(1 for p in scalar if p is not None)
        assert n_covered > 0, "tiny bundle should cover some operators"

    def test_profiles_read_p_one_rows_of_any_table(self, tiny_predictor, rows):
        """The P=1 rows are a copy with its own P column: a table at any P
        prices the oracle's profiles bit for bit and keeps its own P."""
        inputs, bundles = rows
        table = FeatureTable.from_inputs(inputs, bundles)
        at_seven = table.with_partition_count(np.full(len(table), 7.0))
        assert (table.partition_count != 1.0).any()
        logged = table.partition_count.copy()
        for source in (table, at_seven):
            batched, _ = resource_profiles_most_specific(tiny_predictor.store, source)
            assert batched == resource_profiles_reference(tiny_predictor.store, inputs, bundles)
        assert np.array_equal(table.partition_count, logged)
        assert (at_seven.partition_count == 7.0).all()
        assert np.array_equal(at_seven.input_card, table.input_card)

    def test_service_charges_five_lookups_per_covered_row(
        self, tiny_predictor, rows
    ):
        inputs, bundles = rows
        service = CleoService(
            CleoPredictor(
                store=tiny_predictor.store,
                combined=tiny_predictor.combined,
                fallback_cost=tiny_predictor.fallback_cost,
            )
        )
        before = service.predictor.lookup_count
        profiles = service.resource_profiles(FeatureTable.from_inputs(inputs, bundles))
        covered = sum(1 for p in profiles if p is not None)
        assert covered > 0
        assert (
            service.predictor.lookup_count - before
            == covered * CleoPredictor.LOOKUPS_PER_PREDICTION
        )

    def test_cost_model_routes_batched(self, tiny_bundle, tiny_predictor):
        """A stage's profiles in one call == one operator per call."""
        from repro.core.cost_model import CleoCostModel

        estimator = tiny_bundle.fresh_estimator()
        root = next(iter(tiny_bundle.runner.plans.values()))
        ops = list(root.walk())
        batched_model = CleoCostModel(tiny_predictor)
        scalar_model = CleoCostModel(tiny_predictor, batched=False)
        assert batched_model.supports_batched_pricing
        batched = batched_model.resource_profiles(ops, estimator)
        scalar = [scalar_model.resource_profiles([op], estimator)[0] for op in ops]
        assert batched == scalar
