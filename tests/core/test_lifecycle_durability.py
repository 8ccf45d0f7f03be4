"""Tests for lifecycle durability and mid-retrain crash recovery.

The write-ahead contract: durable state is committed atomically at the
end of each completed step, so a crash at *any* injected point leaves the
previous step's state on disk — never a half-published version — and a
resumed manager retries the day and converges to the crash-free replay
bitwise.
"""

from __future__ import annotations

import json

import pytest

from repro.common.chaos import CRASH_POINTS, CrashPolicy, PipelineChaos
from repro.common.errors import InjectedCrashError
from repro.core.lifecycle import LifecycleManager, RetrainPolicy
from repro.serving import CleoService


POLICY = RetrainPolicy(window_days=2, frequency_days=1)


def _replay_with_crashes(log, days, state_path, chaos):
    """Run days through a durable manager, resuming after each crash."""
    manager = LifecycleManager(policy=POLICY, state_path=state_path, chaos=chaos)
    outcomes = []
    crashes = 0
    pending = list(days)
    while pending:
        day = pending[0]
        try:
            outcomes.append(manager.step(log, day))
        except InjectedCrashError:
            crashes += 1
            manager = LifecycleManager.resume(
                state_path, policy=POLICY, chaos=chaos
            )
            continue
        pending.pop(0)
    return manager, outcomes, crashes


@pytest.fixture(scope="module")
def clean_replay(tiny_bundle):
    manager = LifecycleManager(policy=POLICY)
    days = tiny_bundle.log.days[2:]
    return manager, [manager.step(tiny_bundle.log, d) for d in days]


class TestDurableState:
    def test_state_persists_after_each_step(self, tiny_bundle, tmp_path):
        state_path = tmp_path / "state.json"
        manager = LifecycleManager(policy=POLICY, state_path=state_path)
        day = tiny_bundle.log.days[2]
        manager.step(tiny_bundle.log, day)
        payload = json.loads(state_path.read_text())
        assert payload["last_train_day"] == day
        assert len(payload["registry"]["versions"]) == 1

    def test_resume_from_missing_file_is_fresh(self, tmp_path):
        manager = LifecycleManager.resume(tmp_path / "absent.json", policy=POLICY)
        assert manager.registry.version_count == 0
        assert not manager.registry.has_active

    def test_resume_restores_registry_and_control_state(
        self, tiny_bundle, tmp_path
    ):
        state_path = tmp_path / "state.json"
        manager = LifecycleManager(policy=POLICY, state_path=state_path)
        days = tiny_bundle.log.days[2:]
        outcomes = [manager.step(tiny_bundle.log, d) for d in days]

        resumed = LifecycleManager.resume(state_path, policy=POLICY)
        assert resumed.registry.version_count == manager.registry.version_count
        assert resumed.registry.active().version == manager.registry.active().version
        assert resumed.drift_pending == manager.drift_pending
        assert resumed.rolling_median_error == manager.rolling_median_error
        # The resumed registry serves bitwise-identically.
        records = list(tiny_bundle.test_log().operator_records())[:1]
        served = CleoService(resumed.registry.active().predictor).predict_records(records)
        expected = CleoService(manager.registry.active().predictor).predict_records(records)
        assert served.tobytes() == expected.tobytes()

    def test_resumed_manager_continues_identically(self, tmp_path):
        from repro.experiments.shared import get_bundle

        log = get_bundle("cluster1", scale="tiny", days=(1, 2, 3, 4), seed=0).log
        days = log.days[2:]
        state_path = tmp_path / "state.json"
        durable = LifecycleManager(policy=POLICY, state_path=state_path)
        durable.step(log, days[0])
        resumed = LifecycleManager.resume(state_path, policy=POLICY)

        clean = LifecycleManager(policy=POLICY)
        clean.step(log, days[0])
        for day in days[1:]:
            a = resumed.step(log, day)
            b = clean.step(log, day)
            assert a.active_version == b.active_version
            assert a.median_error_pct == b.median_error_pct


class TestCrashRecovery:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_at_each_point_recovers_bitwise(
        self, tiny_bundle, tmp_path, clean_replay, point
    ):
        log = tiny_bundle.log
        days = log.days[2:]
        chaos = PipelineChaos(
            CrashPolicy(name="t", points=(point,), days=(days[0],))
        )
        manager, outcomes, crashes = _replay_with_crashes(
            log, days, tmp_path / "state.json", chaos
        )
        assert crashes == 1
        _, clean_outcomes = clean_replay
        assert len(outcomes) == len(clean_outcomes)
        for a, b in zip(clean_outcomes, outcomes):
            assert a.day == b.day
            assert a.active_version == b.active_version
            assert a.median_error_pct == b.median_error_pct

    def test_no_half_published_version_on_disk(self, tiny_bundle, tmp_path):
        log = tiny_bundle.log
        days = log.days[2:]
        state_path = tmp_path / "state.json"
        chaos = PipelineChaos(
            CrashPolicy(name="t", points=("post_publish",), days=(days[0],))
        )
        manager = LifecycleManager(
            policy=POLICY, state_path=state_path, chaos=chaos
        )
        with pytest.raises(InjectedCrashError):
            manager.step(log, days[0])
        # The in-memory registry published before the crash point, but the
        # durable state must not have: nothing was committed this step.
        assert manager.registry.version_count == 1
        assert not state_path.exists()

    def test_crash_day_publishes_exactly_once_durably(
        self, tiny_bundle, tmp_path
    ):
        log = tiny_bundle.log
        days = log.days[2:]
        state_path = tmp_path / "state.json"
        chaos = PipelineChaos(
            CrashPolicy(name="t", points=("pre_publish",), days=(days[0],))
        )
        manager, outcomes, crashes = _replay_with_crashes(
            log, days, state_path, chaos
        )
        assert crashes == 1
        payload = json.loads(state_path.read_text())
        clean = LifecycleManager(policy=POLICY)
        for day in days:
            clean.step(log, day)
        assert len(payload["registry"]["versions"]) == clean.registry.version_count

    def test_chaos_scoped_elsewhere_never_fires(self, tiny_bundle, tmp_path):
        log = tiny_bundle.log
        days = log.days[2:]
        chaos = PipelineChaos(
            CrashPolicy(name="t", points=("pre_publish",), days=(999,))
        )
        manager, outcomes, crashes = _replay_with_crashes(
            log, days, tmp_path / "state.json", chaos
        )
        assert crashes == 0
        assert chaos.stats()["total"] == 0
