"""Tests for the Section 6.7 regression-avoidance extensions."""

from __future__ import annotations

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.config import ModelKind
from repro.core.cost_model import CleoCostModel
from repro.core.regression_control import DualPlanner, ModelQuarantine
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import plan_cost
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.workload.templates import instantiate


class TestDualPlanner:
    @pytest.fixture()
    def dual(self, tiny_bundle, tiny_predictor):
        estimator = CardinalityEstimator(tiny_bundle.runner.estimator_config)
        judge = CleoCostModel(tiny_predictor)
        cleo_planner = QueryPlanner(judge, estimator, PlannerConfig())
        default_planner = QueryPlanner(DefaultCostModel(), estimator, PlannerConfig())
        return DualPlanner(default_planner, cleo_planner, judge, estimator)

    def test_chooses_judged_cheaper_plan(self, dual, tiny_bundle):
        catalog = tiny_bundle.generator.catalog_for_day(3)
        job = tiny_bundle.generator.jobs_for_day(3)[0]
        outcome = dual.plan(instantiate(job, catalog))
        default_cost = plan_cost(dual.judge, outcome.default_plan.plan, dual.estimator)
        cleo_cost = plan_cost(dual.judge, outcome.cleo_plan.plan, dual.estimator)
        chosen_cost = plan_cost(dual.judge, outcome.chosen.plan, dual.estimator)
        assert chosen_cost == pytest.approx(min(default_cost, cleo_cost), rel=1e-6)

    def test_flag_matches_choice(self, dual, tiny_bundle):
        catalog = tiny_bundle.generator.catalog_for_day(3)
        for job in tiny_bundle.generator.jobs_for_day(3)[:3]:
            outcome = dual.plan(instantiate(job, catalog))
            expected = outcome.cleo_plan if outcome.used_cleo else outcome.default_plan
            assert outcome.chosen is expected


class TestModelQuarantine:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelQuarantine(tolerance_factor=0.5)

    def test_accurate_models_survive(self, tiny_bundle):
        import copy

        # Audits mutate the store; work on a copy of the shared fixture.
        store = copy.deepcopy(tiny_bundle.predictor().store)
        before = store.count()
        report = ModelQuarantine(tolerance_factor=50.0).audit(
            store, tiny_bundle.test_log()
        )
        # Hardly anything should be off by 50x.
        assert report.total_removed <= before * 0.05

    def test_broken_model_is_removed(self, tiny_bundle):
        import copy

        import numpy as np

        from repro.core.learned_model import LearnedCostModel
        from repro.core.model_store import signature_for

        store = copy.deepcopy(tiny_bundle.predictor().store)
        record = next(tiny_bundle.test_log().operator_records())
        signature = signature_for(ModelKind.OP_SUBGRAPH, record.signatures)

        # Plant a model trained to a wildly wrong constant.
        broken = LearnedCostModel(include_context=False)
        broken.fit(
            [record.features] * 6,
            np.full(6, record.actual_latency * 1e4 + 1e3),
        )
        store.add(ModelKind.OP_SUBGRAPH, signature, broken)

        report = ModelQuarantine(tolerance_factor=10.0, min_observations=1).audit(
            store, tiny_bundle.test_log()
        )
        assert report.removed.get(ModelKind.OP_SUBGRAPH, 0) >= 1
        assert store.get(ModelKind.OP_SUBGRAPH, signature) is None

    def test_report_counts(self, tiny_bundle):
        import copy

        # A copy: auditing the session-wide predictor's own store pruned it
        # for every test that ran later.
        predictor = tiny_bundle.predictor()
        models = predictor.store.count()
        store = copy.deepcopy(predictor.store)
        report = ModelQuarantine().audit(store, tiny_bundle.test_log())
        assert report.inspected == tiny_bundle.test_log().operator_count
        assert store.count() == models - report.total_removed
        assert predictor.store.count() == models

    def test_audit_second_pass_is_idempotent(self, tiny_bundle):
        """Once the offenders are gone, a re-audit removes nothing more."""
        import copy

        import numpy as np

        from repro.core.learned_model import LearnedCostModel
        from repro.core.model_store import signature_for

        store = copy.deepcopy(tiny_bundle.predictor().store)
        record = next(tiny_bundle.test_log().operator_records())
        signature = signature_for(ModelKind.OP_SUBGRAPH, record.signatures)
        broken = LearnedCostModel(include_context=False)
        broken.fit(
            [record.features] * 6,
            np.full(6, record.actual_latency * 1e4 + 1e3),
        )
        store.add(ModelKind.OP_SUBGRAPH, signature, broken)

        quarantine = ModelQuarantine(tolerance_factor=10.0, min_observations=1)
        first = quarantine.audit(store, tiny_bundle.test_log())
        assert first.total_removed >= 1
        second = quarantine.audit(store, tiny_bundle.test_log())
        assert second.total_removed == 0
        assert second.inspected == first.inspected

    def test_nan_latency_does_not_shield_a_wrong_model(self):
        """A NaN latency made its models' median NaN, and a NaN median never
        exceeds the threshold: five NaN rows let one wrong op-input model
        escape.  The audit scores only the rows the trainer's data-quality
        gate keeps, so it removes what it removes from the clean log."""
        import copy

        from repro.common.chaos import PoisonPolicy, RunLogPoisoner
        from repro.experiments.shared import get_bundle

        bundle = get_bundle("cluster4", scale="tiny", seed=0)
        store = bundle.predictor().store
        clean = ModelQuarantine(1.5, 5)
        clean.audit(copy.deepcopy(store), bundle.test_log())
        policy = PoisonPolicy(name="nan-only", nan_rate=0.02, seed=3)
        poisoned, counts = RunLogPoisoner(policy).poison(bundle.test_log())
        assert counts["nan"] == counts["total"] > 0
        audit = ModelQuarantine(1.5, 5)
        report = audit.audit(copy.deepcopy(store), poisoned)
        assert len(clean.ledger()) == 12
        assert audit.ledger() == clean.ledger()
        assert report.inspected == poisoned.operator_count

    def test_boundary_quarantine_is_idempotent(self, tiny_bundle):
        """The serving-boundary entry removes once and reports repeats."""
        import copy

        from repro.core.model_store import signature_for

        store = copy.deepcopy(tiny_bundle.predictor().store)
        record = next(tiny_bundle.test_log().operator_records())
        kind, _ = store.most_specific(record.signatures)
        signature = signature_for(kind, record.signatures)
        before = store.count()

        quarantine = ModelQuarantine()
        assert quarantine.quarantine(store, kind, signature) is True
        assert store.get(kind, signature) is None
        assert store.count() == before - 1
        # Second pass: the model is already gone, nothing double-counts.
        assert quarantine.quarantine(store, kind, signature) is False
        assert store.count() == before - 1


class TestQuarantineLedger:
    def test_audit_records_removals_in_ledger(self, tiny_bundle):
        import copy

        import numpy as np

        from repro.core.learned_model import LearnedCostModel
        from repro.core.model_store import signature_for

        store = copy.deepcopy(tiny_bundle.predictor().store)
        record = next(tiny_bundle.test_log().operator_records())
        signature = signature_for(ModelKind.OP_SUBGRAPH, record.signatures)
        broken = LearnedCostModel(include_context=False)
        broken.fit(
            [record.features] * 6,
            np.full(6, record.actual_latency * 1e4 + 1e3),
        )
        store.add(ModelKind.OP_SUBGRAPH, signature, broken)

        quarantine = ModelQuarantine(tolerance_factor=10.0, min_observations=1)
        quarantine.audit(store, tiny_bundle.test_log())
        assert (ModelKind.OP_SUBGRAPH, signature) in quarantine.ledger()

    def test_replay_reapplies_to_reloaded_store(self, tiny_bundle):
        """A retrained model re-adding a ledgered signature is dropped again."""
        import copy

        store = copy.deepcopy(tiny_bundle.predictor().store)
        signature = int(store.columns(ModelKind.OP_SUBGRAPH).signatures[0])
        quarantine = ModelQuarantine()
        quarantine.record(ModelKind.OP_SUBGRAPH, signature)

        assert quarantine.replay(store) == 1
        assert quarantine.replay(store) == 0
        # "Retrain" re-adds the signature: replay drops it again.
        fresh = copy.deepcopy(tiny_bundle.predictor().store)
        assert quarantine.replay(fresh) == 1
        quarantine.clear_ledger()
        assert quarantine.ledger() == ()
        assert quarantine.replay(copy.deepcopy(store)) == 0

    def test_record_is_idempotent_and_ordered(self):
        quarantine = ModelQuarantine()
        quarantine.record(ModelKind.OPERATOR, 7)
        quarantine.record(ModelKind.OP_SUBGRAPH, 3)
        quarantine.record(ModelKind.OPERATOR, 7)
        assert quarantine.ledger() == (
            (ModelKind.OPERATOR, 7),
            (ModelKind.OP_SUBGRAPH, 3),
        )
