"""Chaos matrix: the fleet stays fully available under every fault scenario.

Replays :func:`~repro.serving.shard.loadgen.build_load`'s mixed predict /
plan stream (the tiny ``cluster1`` held-out day, two epochs, one fan-out
worker so breaker transitions replay exactly) through a hardened
:class:`~repro.serving.shard.ShardedCleoRouter` at 2 and 3 shards.  A
request is available when it answers with finite, non-negative values; a
request that raises fails the test with its traceback.

* every :data:`~repro.serving.faults.SCENARIOS` policy keeps availability
  1.0, and every one but ``baseline`` injects at least one fault of its own
  kinds and none of another, so no row passes on a stream too short to
  fire its faults;
* hedged serving under ``latency_spikes`` stays available, hedges, and
  answers bitwise what the unhedged replay answers;
* a run log poisoned on the training days: the training gate excises
  rows, and every later day is scored;
* a replayed quarantine ledger removes models, a second replay removes
  none, and the ladder serves through the gap.

The mid-retrain crash is ``TestCrashRecovery`` in
``tests/core/test_lifecycle_durability.py``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.common.chaos import POISON_SCENARIOS, RunLogPoisoner
from repro.core.config import ModelKind
from repro.core.lifecycle import LifecycleManager, RetrainPolicy
from repro.core.regression_control import ModelQuarantine
from repro.core.serialization import predictor_from_dict, predictor_to_dict
from repro.experiments.shared import get_bundle
from repro.serving.faults import SCENARIOS, FaultInjector, FaultKind
from repro.serving.shard import ShardedCleoRouter, build_load
from repro.serving.shard.health import ResilienceConfig
from repro.serving.shard.loadgen import PlanJob

SHARDS = (2, 3)
EPOCHS = 2


@pytest.fixture(scope="module")
def load(tiny_bundle):
    return build_load({"cluster1": tiny_bundle})


def _fleet(load, shards: int, predictors=None, **kwargs) -> ShardedCleoRouter:
    return ShardedCleoRouter(
        predictors or load.predictors,
        n_shards=shards,
        n_workers=1,
        prediction_cache_size=load.suggested_cache_capacity(),
        **kwargs,
    )


def _replay(router: ShardedCleoRouter, load) -> list[np.ndarray]:
    """Every request's answer, epoch after epoch; a plan cost is one value."""
    answers = []
    for request in load.requests * EPOCHS:
        if isinstance(request, PlanJob):
            estimator = load.fresh_estimator(request.cluster)
            total = router.predict_plan(request.cluster, request.root, estimator)
            answers.append(np.array([total]))
        else:
            answers.append(router.predict_batch(request.cluster, list(request.requests)))
    return answers


def _unavailable(answers: list[np.ndarray]) -> list[int]:
    """Indices of the answers holding a non-finite or negative value."""
    return [
        i for i, a in enumerate(answers) if not (np.isfinite(a).all() and (a >= 0.0).all())
    ]


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_scenario_stays_available(load, name, shards):
    policy = SCENARIOS[name]
    with _fleet(load, shards, fault_injector=FaultInjector(policy)) as router:
        answers = _replay(router, load)
        injected = router.fault_stats()
    assert len(answers) == EPOCHS * len(load.requests)
    assert _unavailable(answers) == []
    own = [kind.value for kind in FaultKind if getattr(policy, f"{kind.value}_rate") > 0]
    assert injected["total"] == sum(injected[kind] for kind in own)
    assert policy.is_noop or injected["total"] > 0, injected


@pytest.mark.parametrize("shards", SHARDS)
def test_hedged_serving_stays_available(load, shards):
    def replay(resilience: ResilienceConfig):
        injector = FaultInjector(SCENARIOS["latency_spikes"])
        with _fleet(load, shards, fault_injector=injector, resilience=resilience) as router:
            return _replay(router, load), router.hedge_stats()["hedges"]

    unhedged, _ = replay(ResilienceConfig())
    hedged, hedges = replay(ResilienceConfig(hedge_threshold_s=0.001))
    assert _unavailable(hedged) == []
    assert hedges > 0
    assert [a.tobytes() for a in hedged] == [a.tobytes() for a in unhedged]


def test_poisoned_runlog_is_excised_and_every_day_scored():
    log = get_bundle("cluster1", scale="tiny", days=(1, 2, 3, 4), seed=0).log
    policy = replace(POISON_SCENARIOS["poisoned_runlog"], days=(1, 2))
    poisoned, injected = RunLogPoisoner(policy).poison(log)
    assert injected["total"] > 0
    manager = LifecycleManager(policy=RetrainPolicy(window_days=2, frequency_days=2))
    excised = 0
    for day in (3, 4):
        outcome = manager.step(poisoned, day)
        assert outcome.day == day
        assert math.isfinite(outcome.median_error_pct)
        if outcome.retrained:
            excised += manager.trainer.last_audit.rows_dropped
    assert excised > 0


@pytest.mark.parametrize("shards", SHARDS)
def test_quarantined_models_are_served_around(load, shards):
    # A copy: the session's tiny predictor must keep its models.
    predictor = predictor_from_dict(predictor_to_dict(load.predictors["cluster1"]))
    signatures = sorted(predictor.store.columns(ModelKind.OP_SUBGRAPH).signatures.tolist())
    quarantine = ModelQuarantine()
    for signature in signatures[: len(signatures) // 10]:
        quarantine.record(ModelKind.OP_SUBGRAPH, signature)
    assert quarantine.replay(predictor.store) == len(signatures) // 10 > 0
    assert quarantine.replay(predictor.store) == 0
    with _fleet(load, shards, predictors={"cluster1": predictor}) as router:
        assert _unavailable(_replay(router, load)) == []
