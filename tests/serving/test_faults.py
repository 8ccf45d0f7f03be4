"""Tests for the serving reliability layer (faults, breakers, the ladder).

Three contracts:

* **Determinism** — fault decisions are pure functions of ``(seed, shard,
  cluster, token, attempt)``; the same chaos run replays bitwise.
* **Zero-fault parity** — with no injector, the router's outputs and
  ``ServiceStats`` are bitwise/counter-identical to the single-process
  service.
* **Availability** — with faults injected, every request is answered with
  finite, non-negative values: learned retries first, then the heuristic
  floor; poisoned models never leak NaN/inf/negative costs.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.common.errors import FeatureValidationError, ShardError, ValidationError
from repro.features.table import FeatureTable
from repro.serving import CleoService, PredictionRequest, ServiceStats
from repro.serving.faults import (
    SCENARIOS,
    FaultInjector,
    FaultKind,
    FaultPolicy,
    InjectedFaultError,
    InjectedTimeoutError,
)
from repro.serving.shard import ShardedCleoRouter
from repro.serving.shard.health import (
    BreakerState,
    ResilienceConfig,
    ShardHealth,
)

from tests.serving.test_sharded_router import per_row_floor

# ------------------------------------------------------------------ #
# Fixtures
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def records(tiny_bundle):
    records = list(tiny_bundle.log.operator_records())[:400]
    assert len(records) == 400
    return records


@pytest.fixture(scope="module")
def requests(records):
    return [PredictionRequest.for_record(r) for r in records]


@pytest.fixture()
def baseline(tiny_predictor):
    return CleoService(tiny_predictor)


def make_router(tiny_predictor, **kwargs) -> ShardedCleoRouter:
    return ShardedCleoRouter({"cluster1": tiny_predictor}, **kwargs)


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


# ------------------------------------------------------------------ #
# FaultPolicy
# ------------------------------------------------------------------ #


class TestFaultPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_rate": -0.1},
            {"timeout_rate": 1.5},
            {"error_rate": 0.6, "corrupt_rate": 0.6},  # sum > 1
            {"latency_spike_s": -1.0},
            {"corrupt_mode": "zero"},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FaultPolicy(**kwargs)

    def test_noop_detection(self):
        assert FaultPolicy().is_noop
        assert not FaultPolicy(error_rate=0.01).is_noop

    def test_policy_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            FaultPolicy().error_rate = 0.5

    def test_scenarios_are_named_consistently(self):
        for name, policy in SCENARIOS.items():
            assert policy.name == name
        assert SCENARIOS["baseline"].is_noop
        assert not SCENARIOS["mixed_chaos"].is_noop

    def test_describe(self):
        text = FaultPolicy(name="x", error_rate=0.1, shards=(0, 2)).describe()
        assert "error=10%" in text and "shards [0, 2]" in text


# ------------------------------------------------------------------ #
# FaultInjector decisions
# ------------------------------------------------------------------ #


class TestInjectorDecisions:
    def test_decide_is_pure(self):
        policy = FaultPolicy(name="t", error_rate=0.2, corrupt_rate=0.2)
        a = FaultInjector(policy)
        b = FaultInjector(policy)
        for token in [(5, 123), (8, 999), (1, 0)]:
            for attempt in range(3):
                assert a.decide(1, "c", token, attempt) == b.decide(
                    1, "c", token, attempt
                )

    def test_seed_rekeys_every_draw(self):
        base = FaultPolicy(name="t", error_rate=0.5)
        a = FaultInjector(base)
        b = FaultInjector(replace(base, seed=99))
        decisions_a = [a.decide(0, "c", (1, t), 0) for t in range(200)]
        decisions_b = [b.decide(0, "c", (1, t), 0) for t in range(200)]
        assert decisions_a != decisions_b

    def test_retry_is_a_fresh_draw(self):
        injector = FaultInjector(FaultPolicy(name="t", error_rate=0.5))
        decisions = {
            injector.decide(0, "c", (4, 77), attempt) for attempt in range(8)
        }
        assert len(decisions) > 1  # not stuck repeating attempt 0's fate

    def test_shard_targeting(self):
        injector = FaultInjector(
            FaultPolicy(name="t", error_rate=1.0, shards=(1,))
        )
        assert injector.decide(0, "c", (1, 1), 0) is None
        assert injector.decide(1, "c", (1, 1), 0) is FaultKind.ERROR

    def test_rates_are_approximately_honored(self):
        injector = FaultInjector(
            FaultPolicy(name="t", error_rate=0.1, latency_rate=0.1)
        )
        kinds = [injector.decide(0, "c", (1, t), 0) for t in range(2000)]
        error_frac = sum(k is FaultKind.ERROR for k in kinds) / len(kinds)
        latency_frac = sum(k is FaultKind.LATENCY for k in kinds) / len(kinds)
        assert 0.05 < error_frac < 0.2
        assert 0.05 < latency_frac < 0.2

    def test_invoke_raises_and_counts(self):
        injector = FaultInjector(FaultPolicy(name="t", error_rate=1.0))
        with pytest.raises(InjectedFaultError) as err:
            injector.invoke(3, "c", (1, 1), 0, lambda: np.ones(1))
        assert err.value.shard == 3
        assert isinstance(err.value, ShardError)
        assert injector.stats()["error"] == 1
        assert injector.stats()["total"] == 1
        injector.reset_stats()
        assert injector.stats()["total"] == 0

    def test_injected_timeout_is_a_timeout(self):
        injector = FaultInjector(FaultPolicy(name="t", timeout_rate=1.0))
        with pytest.raises(InjectedTimeoutError):
            injector.invoke(0, "c", (1, 1), 0, lambda: np.ones(1))

    def test_corrupt_poisons_one_row_of_a_copy(self):
        injector = FaultInjector(
            FaultPolicy(name="t", corrupt_rate=1.0, corrupt_mode="nan")
        )
        values = np.ones(16)
        out = injector.corrupt(values, 0, "c", (16, 5))
        assert np.all(values == 1.0)  # original untouched
        assert np.isnan(out).sum() == 1
        again = injector.corrupt(values, 0, "c", (16, 5))
        assert np.array_equal(
            np.isnan(out), np.isnan(again)
        )  # same deterministic row

    @pytest.mark.parametrize(
        "mode,check",
        [
            ("nan", lambda v: np.isnan(v)),
            ("inf", lambda v: np.isposinf(v)),
            ("negative", lambda v: v < 0),
        ],
    )
    def test_corrupt_modes(self, mode, check):
        injector = FaultInjector(
            FaultPolicy(name="t", corrupt_rate=1.0, corrupt_mode=mode)
        )
        out = injector.corrupt(np.ones(8), 0, "c", (8, 1))
        assert sum(check(v) for v in out) == 1


# ------------------------------------------------------------------ #
# ShardHealth / circuit breaker state machine
# ------------------------------------------------------------------ #


class TestResilienceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"window": 0},
            {"cooldown_calls": 0},
            {"hedge_threshold_s": 0.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ResilienceConfig(**kwargs)


class TestCircuitBreaker:
    def make(self, **kwargs) -> ShardHealth:
        config = ResilienceConfig(
            failure_threshold=2, cooldown_calls=3, window=8, **kwargs
        )
        return ShardHealth(0, config)

    def test_opens_after_consecutive_failures(self):
        health = self.make()
        assert health.allow() and health.state is BreakerState.CLOSED
        health.record_failure()
        assert health.state is BreakerState.CLOSED
        health.record_failure()
        assert health.state is BreakerState.OPEN
        assert health.breaker_opens == 1

    def test_success_resets_the_consecutive_count(self):
        health = self.make()
        health.record_failure()
        health.record_success()
        health.record_failure()
        assert health.state is BreakerState.CLOSED

    def test_cooldown_counts_calls_then_probes(self):
        health = self.make()
        health.record_failure()
        health.record_failure()
        # OPEN: exactly cooldown_calls rejections before the probe.
        assert [health.allow() for _ in range(3)] == [False, False, False]
        assert health.allow()  # the half-open probe
        assert health.state is BreakerState.HALF_OPEN
        assert not health.allow()  # one probe at a time
        health.record_success()
        assert health.state is BreakerState.CLOSED
        assert health.stats().breaker_closes == 1

    def test_failed_probe_reopens(self):
        health = self.make()
        health.record_failure()
        health.record_failure()
        for _ in range(3):
            health.allow()
        assert health.allow()
        health.record_failure()
        assert health.state is BreakerState.OPEN
        assert health.breaker_opens == 2

    def test_stats_snapshot(self):
        health = self.make()
        health.record_success()
        health.record_failure(timeout=True)
        stats = health.stats()
        assert stats.calls == 2
        assert stats.failures == 1
        assert stats.timeouts == 1
        assert stats.window_failure_rate == 0.5
        assert "shard 0" in stats.describe()

    def test_release_frees_the_half_open_probe(self):
        health = self.make()
        health.record_failure()
        health.record_failure()
        for _ in range(3):
            health.allow()
        assert health.allow()  # the half-open probe
        assert not health.allow()
        health.release()
        assert health.state is BreakerState.HALF_OPEN
        assert health.allow()  # the slot is free for the next probe
        health.record_success()
        assert health.state is BreakerState.CLOSED

    def test_release_records_nothing(self):
        health = self.make()
        health.record_failure()
        before = health.stats()
        assert health.allow()
        health.release()
        assert health.stats() == before
        assert health.state is BreakerState.CLOSED

    def test_reset_preserves_breaker_state(self):
        health = self.make()
        health.record_failure()
        health.record_failure()
        health.reset_stats()
        assert health.state is BreakerState.OPEN
        assert health.stats().failures == 0


# ------------------------------------------------------------------ #
# Zero-fault parity: the reliability layer must cost nothing when idle
# ------------------------------------------------------------------ #

CONFIGS = [(1, 1), (2, 1), (3, 2), (4, 4)]


def _fleet_counters(stats: ServiceStats) -> tuple:
    """The counters a fleet shares with one service fed the same traffic
    (batches and cache capacity count per shard)."""
    return (
        stats.predictions,
        stats.cache.hits,
        stats.cache.misses,
        stats.individual_model_calls,
        stats.combined_model_calls,
        stats.fallback_predictions,
        stats.in_batch_reuses,
        stats.retries,
        stats.breaker_opens,
        stats.degraded_predictions,
        stats.quarantined_models,
        stats.hedged_requests,
    )


class TestZeroFaultParity:
    @pytest.mark.parametrize("shards,workers", CONFIGS)
    def test_bitwise_and_counter_identical(
        self, tiny_predictor, requests, baseline, shards, workers
    ):
        expected = baseline.predict_batch(requests)
        with make_router(tiny_predictor, n_shards=shards, n_workers=workers) as router:
            values = router.predict_batch("cluster1", requests)
            stats = router.stats()
            shard_stats = router.shard_stats()
        assert np.array_equal(values, expected)
        assert _fleet_counters(stats) == _fleet_counters(baseline.stats())
        # No router-level counter moved: the aggregate is the shards' own.
        assert stats == ServiceStats.aggregate(shard_stats)
        assert stats.retries == 0
        assert stats.breaker_opens == 0
        assert stats.degraded_predictions == 0

    def test_one_row_parity(self, tiny_predictor, requests, baseline):
        with make_router(tiny_predictor, n_shards=3) as router:
            for request in requests[:40]:
                row = FeatureTable.from_inputs([request.features], [request.signatures])
                ours = router.predict_inputs("cluster1", row)
                assert ours.tobytes() == baseline.predict_inputs(row).tobytes()

    def test_noop_injector_is_still_bitwise(
        self, tiny_predictor, requests, baseline
    ):
        """A wired-up injector whose policy is all-zeros changes nothing."""
        expected = baseline.predict_batch(requests)
        injector = FaultInjector(SCENARIOS["baseline"])
        with make_router(
            tiny_predictor, n_shards=3, fault_injector=injector
        ) as router:
            assert np.array_equal(
                router.predict_batch("cluster1", requests), expected
            )
            assert router.fault_stats()["total"] == 0

    def test_describe_names_the_injected_policy(self, tiny_predictor):
        with make_router(tiny_predictor, n_shards=2) as router:
            assert router.describe().endswith("1 workers)")
        injector = FaultInjector(SCENARIOS["mixed_chaos"])
        with make_router(tiny_predictor, n_shards=2, fault_injector=injector) as router:
            assert router.describe().endswith(", mixed_chaos)")


# ------------------------------------------------------------------ #
# The degradation ladder under injected faults
# ------------------------------------------------------------------ #


def _shard_spread(router, requests):
    owners = [
        router.shard_for("cluster1", r.signatures.approx) for r in requests
    ]
    return set(owners)


class TestDegradationLadder:
    def test_successor_serves_the_failed_shards_rows_bitwise(
        self, tiny_predictor, requests, baseline
    ):
        """Shard 0 always fails -> ring successors answer from the shared
        model bank, so values still match the single-process service."""
        expected = baseline.predict_batch(requests)
        injector = FaultInjector(
            FaultPolicy(name="kill0", error_rate=1.0, shards=(0,))
        )
        with make_router(
            tiny_predictor, n_shards=3, fault_injector=injector
        ) as router:
            assert 0 in _shard_spread(router, requests)
            values = router.predict_batch("cluster1", requests)
            stats = router.stats()
        assert np.array_equal(values, expected)
        assert stats.retries > 0
        assert stats.degraded_predictions == 0

    def test_corrupt_outputs_are_caught_and_retried(
        self, tiny_predictor, requests, baseline
    ):
        """Router-boundary output validation treats a poisoned answer as a
        shard failure; the clean successor's values win."""
        expected = baseline.predict_batch(requests)
        injector = FaultInjector(
            FaultPolicy(name="poison0", corrupt_rate=1.0, shards=(0,))
        )
        with make_router(
            tiny_predictor, n_shards=3, fault_injector=injector
        ) as router:
            values = router.predict_batch("cluster1", requests)
            health = router.resilience_stats()
        assert np.array_equal(values, expected)
        assert health[0].failures > 0

    def test_total_failure_degrades_to_the_heuristic_floor(
        self, tiny_predictor, requests
    ):
        injector = FaultInjector(FaultPolicy(name="killall", error_rate=1.0))
        with make_router(
            tiny_predictor, n_shards=2, fault_injector=injector
        ) as router:
            values = router.predict_batch("cluster1", requests)
            stats = router.stats()
            floor = per_row_floor([r.features for r in requests])
        assert np.isfinite(values).all() and (values >= 0.0).all()
        assert np.array_equal(values, floor)
        assert stats.degraded_predictions == len(requests)

    def test_one_row_price_walks_the_ladder(
        self, tiny_predictor, requests, baseline
    ):
        injector = FaultInjector(
            FaultPolicy(name="kill0", error_rate=1.0, shards=(0,))
        )
        with make_router(
            tiny_predictor, n_shards=3, fault_injector=injector
        ) as router:
            for request in requests[:40]:
                row = FeatureTable.from_inputs([request.features], [request.signatures])
                value = router.predict_inputs("cluster1", row)
                assert value.tobytes() == baseline.predict_inputs(row).tobytes()

    def test_predict_table_survives_chaos(self, tiny_predictor, requests, baseline):
        table = FeatureTable.from_inputs(
            [r.features for r in requests], [r.signatures for r in requests]
        )
        expected = baseline.predict_table(table)
        injector = FaultInjector(
            FaultPolicy(name="kill0", error_rate=1.0, shards=(0,))
        )
        with make_router(
            tiny_predictor, n_shards=3, fault_injector=injector
        ) as router:
            assert np.array_equal(router.predict_table("cluster1", table), expected)

    def test_timeouts_are_classified(self, tiny_predictor, requests):
        injector = FaultInjector(
            FaultPolicy(name="slow0", timeout_rate=1.0, shards=(0,))
        )
        with make_router(
            tiny_predictor, n_shards=2, fault_injector=injector
        ) as router:
            router.predict_batch("cluster1", requests)
            health = router.resilience_stats()
        assert health[0].timeouts > 0
        assert health[0].timeouts == health[0].failures

    def test_chaos_replay_is_deterministic(self, tiny_predictor, requests):
        def run_once():
            injector = FaultInjector(SCENARIOS["mixed_chaos"])
            with make_router(
                tiny_predictor, n_shards=3, fault_injector=injector
            ) as router:
                values = router.predict_batch("cluster1", requests)
                return values, router.fault_stats(), router.stats()

        values_a, faults_a, stats_a = run_once()
        values_b, faults_b, stats_b = run_once()
        assert np.array_equal(values_a, values_b)
        assert faults_a == faults_b
        assert stats_a == stats_b

    def test_persistent_failure_opens_the_breaker(self, tiny_predictor, requests):
        injector = FaultInjector(FaultPolicy(name="killall", error_rate=1.0))
        resilience = ResilienceConfig(failure_threshold=3, cooldown_calls=64)
        with make_router(
            tiny_predictor,
            n_shards=1,
            resilience=resilience,
            fault_injector=injector,
        ) as router:
            for i in range(10):
                router.predict_batch("cluster1", requests[i * 4 : i * 4 + 4])
            stats = router.stats()
            health = router.resilience_stats()
        assert stats.breaker_opens >= 1
        assert health[0].state is BreakerState.OPEN
        assert health[0].rejected > 0
        # Breaker-rejected calls degrade without consulting the injector:
        # far fewer injected faults than calls issued.
        assert router.fault_stats()["error"] < 10

    def test_reset_stats_clears_the_reliability_counters(
        self, tiny_predictor, requests
    ):
        injector = FaultInjector(FaultPolicy(name="killall", error_rate=1.0))
        with make_router(
            tiny_predictor, n_shards=2, fault_injector=injector
        ) as router:
            router.predict_batch("cluster1", requests[:40])
            assert router.stats().degraded_predictions > 0
            router.reset_stats()
            stats = router.stats()
            assert stats.degraded_predictions == 0
            assert stats.retries == 0
            assert router.fault_stats()["total"] == 0

    @pytest.mark.parametrize("entry", ["predict_table", "predict_batch"])
    def test_a_bad_request_does_not_wedge_a_half_open_breaker(
        self, tiny_predictor, requests, baseline, monkeypatch, entry
    ):
        """The caller's bad input, met by the half-open probe, is given back
        to the breaker unrecorded: the next clean call probes and closes it
        instead of being rejected for good."""
        resilience = ResilienceConfig(failure_threshold=1, cooldown_calls=1)
        request = requests[0]
        clean = [r for r in requests if r.signatures.approx == request.signatures.approx]
        bad = PredictionRequest(
            replace(request.features, input_card=float("nan")), request.signatures
        )

        def call(router, batch):
            if entry == "predict_batch":
                return router.predict_batch("cluster1", batch)
            table = FeatureTable.from_inputs(
                [r.features for r in batch], [r.signatures for r in batch]
            )
            return router.predict_table("cluster1", table)

        with make_router(tiny_predictor, n_shards=2, resilience=resilience) as router:
            owner = router.shard_for("cluster1", request.signatures.approx)
            service = router.service_for("cluster1", owner)
            with monkeypatch.context() as patch:
                patch.setattr(service, "_price_table", _boom)
                call(router, clean)  # the owner's rung fails: OPEN
            assert router.resilience_stats()[owner].state is BreakerState.OPEN
            call(router, clean)  # the one cooldown call, answered by the successor
            with pytest.raises(FeatureValidationError):
                call(router, [bad])  # admitted as the half-open probe
            for _ in range(5):
                assert np.array_equal(call(router, clean), baseline.predict_batch(clean))
            health = router.resilience_stats()[owner]
        assert health.state is BreakerState.CLOSED
        assert health.rejected == 1  # the cooldown call only
        assert health.breaker_closes == 1


# ------------------------------------------------------------------ #
# Fan-out failure semantics (the ladder contains, no orphaned stragglers)
# ------------------------------------------------------------------ #


class TestFanOutFailure:
    """Every shard call is a call into the service module's pricing cores,
    whose per-owner steps are the owner's own LRU probe and fill: the fakes
    break the owner's probe.  The ladder tests run on a batch several shards
    own and on one a single shard owns (every request of one template)."""

    @pytest.fixture()
    def boom(self):
        def _raise(*args, **kwargs):
            _raise.calls += 1
            raise RuntimeError("boom")

        _raise.calls = 0
        return _raise

    @pytest.fixture(params=[False, True], ids=["several-owners", "one-owner"])
    def batch(self, request, requests):
        if not request.param:
            return requests
        template = requests[0].signatures.approx
        return [r for r in requests if r.signatures.approx == template]

    def _owner(self, router, batch):
        owner = router.shard_for("cluster1", batch[0].signatures.approx)
        owners = {router.shard_for("cluster1", r.signatures.approx) for r in batch}
        one_template = len({r.signatures.approx for r in batch}) == 1
        assert (len(owners) == 1) == one_template
        return owner

    def test_pool_waits_for_every_owner_before_a_bad_input_raises(
        self, tiny_predictor, requests, baseline, monkeypatch
    ):
        """Each owner walks its own ladder on the pool: a NaN feature that
        several owners' rows carry raises FeatureValidationError only once
        every sibling task has returned, and the next clean call merges
        bit for bit."""
        poisoned = [
            PredictionRequest(
                replace(r.features, input_card=float("nan")), r.signatures
            )
            if i % 50 == 0
            else r
            for i, r in enumerate(requests)
        ]
        expected = baseline.predict_batch(requests)
        with make_router(
            tiny_predictor,
            n_shards=4,
            n_workers=4,
            fault_injector=FaultInjector(SCENARIOS["baseline"]),
        ) as router:
            bad_owners = {
                router.shard_for("cluster1", r.signatures.approx) for r in poisoned[::50]
            }
            assert len(bad_owners) > 1
            owners = {router.shard_for("cluster1", r.signatures.approx) for r in requests}
            guarded, returned = router._guarded, []

            def tracked(cluster, shard, *args):
                try:
                    return guarded(cluster, shard, *args)
                finally:
                    returned.append(shard)

            monkeypatch.setattr(router, "_guarded", tracked)
            with pytest.raises(FeatureValidationError):
                router.predict_batch("cluster1", poisoned)
            assert sorted(returned) == sorted(owners)  # every ladder, then the raise
            monkeypatch.undo()
            assert np.array_equal(router.predict_batch("cluster1", requests), expected)

    def test_profile_failure_names_the_shard(
        self, tiny_predictor, batch, boom, monkeypatch
    ):
        """Profiles have no ladder: a failed read of the shared bank reaches
        the caller as a ShardError naming the first owner it failed."""
        table = FeatureTable.from_inputs(
            [r.features for r in batch], [r.signatures for r in batch]
        )
        with make_router(tiny_predictor, n_shards=4) as router:
            owner = self._owner(router, batch)
            owners = {router.shard_for("cluster1", r.signatures.approx) for r in batch}
            monkeypatch.setattr(
                "repro.serving.service.resource_profiles_most_specific", boom
            )
            with pytest.raises(ShardError) as err:
                router.resource_profiles("cluster1", table)
        assert err.value.shard == min(owners)
        assert len(owners) > 1 or err.value.shard == owner
        assert "fan-out" in str(err.value)
        assert isinstance(err.value.__cause__, RuntimeError)
        assert boom.calls == 1

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("injected", [False, True], ids=["fused", "per-owner"])
    def test_ladder_contains_what_fan_out_would_propagate(
        self, tiny_predictor, batch, baseline, boom, monkeypatch, workers, injected
    ):
        """A dead owner is absorbed by its ladder, whether its first rung is
        the one every owner shares or, under an injector that injects
        nothing, its own (on the pool when ``workers > 1``)."""
        expected = baseline.predict_batch(batch)
        injector = FaultInjector(SCENARIOS["baseline"]) if injected else None
        with make_router(
            tiny_predictor, n_shards=4, n_workers=workers, fault_injector=injector
        ) as router:
            shard = self._owner(router, batch)
            monkeypatch.setattr(router.service_for("cluster1", shard), "_probe", boom)
            values = router.predict_batch("cluster1", batch)
            health = router.resilience_stats()
            stats = router.stats()
        assert boom.calls == 1  # the fake was reached, and only by the owner
        assert np.array_equal(values, expected)
        assert health[shard].failures == 1
        assert stats.retries == 1

    def test_a_failed_shared_pass_walks_every_owner_down_its_ladder(
        self, tiny_predictor, batch, baseline, monkeypatch
    ):
        """The one pass over the shared bank raises once: every owner that
        fed it records one failure and answers from its first retry, bit
        for bit."""
        expected = baseline.predict_batch(batch)
        price_table = CleoService._price_table
        raised = []

        def flaky(service, *args, **kwargs):
            if not raised:
                raised.append(service)
                raise RuntimeError("shared pass down")
            return price_table(service, *args, **kwargs)

        monkeypatch.setattr(CleoService, "_price_table", flaky)
        with make_router(tiny_predictor, n_shards=4) as router:
            self._owner(router, batch)
            owners = sorted(
                {router.shard_for("cluster1", r.signatures.approx) for r in batch}
            )
            values = router.predict_batch("cluster1", batch)
            health = router.resilience_stats()
            stats = router.stats()
        assert len(raised) == 1
        assert np.array_equal(values, expected)
        assert stats.retries == len(owners)
        for h in health:
            assert h.failures == (1 if h.shard in owners else 0)
            assert h.state is BreakerState.CLOSED


# ------------------------------------------------------------------ #
# Hedged requests under a latency SLO
# ------------------------------------------------------------------ #


class TestHedging:
    def hedged_resilience(self, threshold=0.001) -> ResilienceConfig:
        return ResilienceConfig(hedge_threshold_s=threshold)

    def _serve(self, router, requests):
        """Per-request serving: each request is its own fault token, so a
        15% latency rate actually produces spiking owners to hedge past
        (one 400-row batch would only draw three sub-batch tokens)."""
        return [
            float(
                router.predict_inputs(
                    "cluster1", FeatureTable.from_inputs([r.features], [r.signatures])
                )[0]
            )
            for r in requests
        ]

    def test_hedged_answers_are_bitwise_identical(
        self, tiny_predictor, requests, baseline
    ):
        """Hedging changes *when* an answer arrives, never *what* it is:
        the ring successor prices from the same read-only model bank."""
        subset = requests[:200]
        expected = baseline.predict_batch(subset).tolist()
        with make_router(
            tiny_predictor,
            n_shards=3,
            fault_injector=FaultInjector(SCENARIOS["latency_spikes"]),
            resilience=self.hedged_resilience(),
        ) as hedged:
            values = self._serve(hedged, subset)
            hedge_stats = hedged.hedge_stats()
            stats = hedged.stats()
        assert values == expected
        assert hedge_stats["hedges"] > 0
        assert hedge_stats["hedge_wins"] == hedge_stats["hedges"]
        assert stats.hedged_requests == hedge_stats["hedges"]

    def test_hedged_run_matches_unhedged_run_bitwise(
        self, tiny_predictor, requests
    ):
        subset = requests[:200]

        def run(resilience):
            injector = FaultInjector(SCENARIOS["latency_spikes"])
            with make_router(
                tiny_predictor,
                n_shards=3,
                fault_injector=injector,
                resilience=resilience,
            ) as router:
                return self._serve(router, subset), router.hedge_stats()

        unhedged_values, unhedged_stats = run(ResilienceConfig())
        hedged_values, hedged_stats = run(self.hedged_resilience())
        assert hedged_values == unhedged_values
        assert unhedged_stats == {"hedges": 0, "hedge_wins": 0}
        assert hedged_stats["hedges"] > 0

    def test_zero_fault_path_never_hedges(
        self, tiny_predictor, requests, baseline
    ):
        """A latency budget without an injector must cost nothing: outputs
        and counters stay identical to the plain hardened router."""
        expected = baseline.predict_batch(requests)
        with make_router(
            tiny_predictor, n_shards=3, resilience=self.hedged_resilience()
        ) as router:
            values = router.predict_batch("cluster1", requests)
            hedge_stats = router.hedge_stats()
            stats = router.stats()
        with make_router(tiny_predictor, n_shards=3) as plain:
            plain_stats_obj = plain.stats()
            plain.predict_batch("cluster1", requests)
            plain_stats = plain.stats()
        assert np.array_equal(values, expected)
        assert hedge_stats == {"hedges": 0, "hedge_wins": 0}
        assert stats == plain_stats
        assert stats.hedged_requests == 0

    def test_single_shard_has_no_successor_to_hedge_to(
        self, tiny_predictor, requests
    ):
        with make_router(
            tiny_predictor,
            n_shards=1,
            fault_injector=FaultInjector(SCENARIOS["latency_spikes"]),
            resilience=self.hedged_resilience(),
        ) as router:
            self._serve(router, requests[:100])
            assert router.hedge_stats()["hedges"] == 0

    def test_budget_above_the_spike_never_fires(self, tiny_predictor, requests):
        """A spike inside the budget is not an SLO violation: wait it out."""
        spike = SCENARIOS["latency_spikes"].latency_spike_s
        with make_router(
            tiny_predictor,
            n_shards=3,
            fault_injector=FaultInjector(SCENARIOS["latency_spikes"]),
            resilience=self.hedged_resilience(threshold=spike * 10),
        ) as router:
            self._serve(router, requests[:100])
            assert router.hedge_stats()["hedges"] == 0

    def test_reset_stats_clears_hedge_counters(self, tiny_predictor, requests):
        with make_router(
            tiny_predictor,
            n_shards=3,
            fault_injector=FaultInjector(SCENARIOS["latency_spikes"]),
            resilience=self.hedged_resilience(),
        ) as router:
            self._serve(router, requests[:200])
            assert router.hedge_stats()["hedges"] > 0
            router.reset_stats()
            assert router.hedge_stats() == {"hedges": 0, "hedge_wins": 0}
            assert router.stats().hedged_requests == 0


# ------------------------------------------------------------------ #
# Durable breaker state across router restarts
# ------------------------------------------------------------------ #


class TestHealthDurability:
    def _open_breaker(self, router, requests):
        for i in range(10):
            router.predict_batch("cluster1", requests[i * 4 : i * 4 + 4])

    def test_restart_resumes_breaker_state(self, tiny_predictor, requests):
        """A restarted router restored from the dead process's snapshot
        keeps the breaker OPEN instead of re-exposing the fleet."""
        injector = FaultInjector(FaultPolicy(name="killall", error_rate=1.0))
        resilience = ResilienceConfig(failure_threshold=3, cooldown_calls=64)
        with make_router(
            tiny_predictor,
            n_shards=1,
            resilience=resilience,
            fault_injector=injector,
        ) as router:
            self._open_breaker(router, requests)
            assert router.resilience_stats()[0].state is BreakerState.OPEN
            payload = router.export_health()

        with make_router(
            tiny_predictor, n_shards=1, resilience=resilience
        ) as restarted:
            assert restarted.resilience_stats()[0].state is BreakerState.CLOSED
            restarted.restore_health(payload)
            after = restarted.resilience_stats()[0]
            # The full breaker state (incl. mid-cooldown position) survives.
            assert restarted.export_health() == payload
        assert after.state is BreakerState.OPEN
        assert after.failures == router.resilience_stats()[0].failures

    def test_shard_count_mismatch_rejected(self, tiny_predictor):
        with make_router(tiny_predictor, n_shards=3) as router:
            payload = router.export_health()
        with make_router(tiny_predictor, n_shards=2) as smaller:
            with pytest.raises(ValueError):
                smaller.restore_health(payload)

    def test_half_open_probe_readmitted_after_restart(self):
        """A probe that died with the old process must not wedge the
        breaker: the restored HALF_OPEN state re-admits exactly one."""
        config = ResilienceConfig(failure_threshold=2, cooldown_calls=3, window=8)
        health = ShardHealth(0, config)
        health.record_failure()
        health.record_failure()
        for _ in range(3):
            health.allow()
        assert health.allow()  # probe admitted, now in flight
        assert health.state is BreakerState.HALF_OPEN

        restored = ShardHealth(0, config)
        restored.restore(health.snapshot())
        assert restored.state is BreakerState.HALF_OPEN
        assert restored.allow()  # the orphaned probe slot is re-admitted
        assert not restored.allow()  # still one probe at a time
