"""Cross-process determinism of the sharded serving tier.

Shard routing must not depend on ``PYTHONHASHSEED``: the same ``(cluster,
template)`` pair has to land on the same shard in every serving process, or
replicas of one router would answer from different caches and the fleet's
template affinity (and with it the bitwise-parity guarantee) would silently
break between deploys.  Routing therefore goes through
``repro.common.hashing.stable_hash`` end to end — the builtin ``hash`` is
salted per process and is banned from the path (the PR-2 workload-planner
incident: a ``set``'s salted iteration order flipping plan ties across
processes).

In-process tests cannot catch a salted-hash leak, so these spawn real
subprocesses with different hash seeds and compare fingerprints.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Pure routing: fingerprint the owning shard of many (cluster, template)
#: pairs across several ring sizes.  No models, so it is cheap enough to
#: run at three hash seeds.
_ROUTING_SCRIPT = """
import hashlib
from repro.serving.shard import HashRing, route_key

payload = []
for n_shards in (1, 2, 4, 7):
    ring = HashRing(n_shards)
    payload.append(
        [
            ring.shard_for_key(route_key(f"cluster{t % 3}", t))
            for t in range(5000)
        ]
    )
print(hashlib.sha256(repr(payload).encode()).hexdigest())
"""

#: End to end: train the tiny bundle, serve one batch through the router at
#: 1/2/4 shards, and fingerprint shard assignments plus the merged
#: prediction bytes.  Asserts in-process that every configuration is
#: bitwise identical to a single-process ``CleoService`` — so equal
#: digests across seeds pin both the routing *and* the merged values.
_SERVING_SCRIPT = """
import hashlib
import numpy as np
from repro.experiments.shared import get_bundle
from repro.serving import CleoService, PredictionRequest
from repro.serving.shard import ShardedCleoRouter

bundle = get_bundle("cluster1", scale="tiny", seed=0)
predictor = bundle.predictor()
records = list(bundle.log.operator_records())[:400]
requests = [PredictionRequest.for_record(r) for r in records]
baseline = CleoService(predictor).predict_batch(requests)
lines = [baseline.tobytes().hex()]
for n_shards in (1, 2, 4):
    with ShardedCleoRouter(
        {"cluster1": predictor}, n_shards=n_shards, n_workers=2
    ) as router:
        owners = [
            router.shard_for("cluster1", r.signatures.approx) for r in requests
        ]
        values = router.predict_batch("cluster1", requests)
    assert np.array_equal(values, baseline), f"{n_shards} shards diverged"
    lines.append(repr(owners) + values.tobytes().hex())
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


def _run_with_hash_seed(script: str, hash_seed: str, timeout: int = 600) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return result.stdout.strip()


def test_shard_routing_identical_across_hash_seeds():
    digests = {
        _run_with_hash_seed(_ROUTING_SCRIPT, seed, timeout=120)
        for seed in ("0", "42", "1234")
    }
    assert len(digests) == 1, (
        "HashRing/route_key produced different shard assignments under "
        "different PYTHONHASHSEED values - a builtin hash() leaked into "
        "the routing path"
    )


def test_sharded_serving_identical_across_hash_seeds():
    """1/2/4-shard configs: same shard owners, same merged predictions,
    bitwise identical to single-process serving, in every process."""
    digest_a = _run_with_hash_seed(_SERVING_SCRIPT, "0")
    digest_b = _run_with_hash_seed(_SERVING_SCRIPT, "42")
    assert digest_a == digest_b, (
        "sharded serving produced different shard assignments or merged "
        "predictions under different PYTHONHASHSEED values"
    )


#: Chaos replay: the hardened router under the mixed_chaos fault scenario.
#: Fault decisions are content-keyed through stable hashing, so the
#: injected faults, the ladder's answers, and the reliability counters
#: must be identical in every process regardless of the hash seed.
_CHAOS_SCRIPT = """
import hashlib
import numpy as np
from repro.experiments.shared import get_bundle
from repro.serving import PredictionRequest
from repro.serving.faults import SCENARIOS, FaultInjector
from repro.serving.shard import ShardedCleoRouter

bundle = get_bundle("cluster1", scale="tiny", seed=0)
predictor = bundle.predictor()
records = list(bundle.log.operator_records())[:300]
requests = [PredictionRequest.for_record(r) for r in records]
lines = []
for n_shards in (2, 3):
    injector = FaultInjector(SCENARIOS["mixed_chaos"])
    with ShardedCleoRouter(
        {"cluster1": predictor}, n_shards=n_shards, fault_injector=injector
    ) as router:
        values = router.predict_batch("cluster1", requests)
        stats = router.stats()
        faults = router.fault_stats()
    assert np.isfinite(values).all() and (values >= 0.0).all()
    lines.append(
        values.tobytes().hex()
        + repr(sorted(faults.items()))
        + repr((stats.retries, stats.degraded_predictions))
    )
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


def test_chaos_replay_identical_across_hash_seeds():
    """Injected faults and ladder outcomes replay bitwise across
    processes: no builtin hash(), RNG state, or wall clock in the fault
    path."""
    digest_a = _run_with_hash_seed(_CHAOS_SCRIPT, "0")
    digest_b = _run_with_hash_seed(_CHAOS_SCRIPT, "42")
    assert digest_a == digest_b, (
        "chaos injection produced different faults or degraded answers "
        "under different PYTHONHASHSEED values - a salted hash or RNG "
        "leaked into the fault-decision path"
    )

#: Restart round-trip: one process builds durable state — a stepped
#: lifecycle manager, an OPEN breaker fleet, a quarantine ledger — and
#: dies; a second process (different hash seed) resumes from disk alone
#: and fingerprints what it serves.  Equal digests across seed orderings
#: pin the save -> kill -> load -> serve path end to end.
_RESTART_SAVE_SCRIPT = """
import json
from pathlib import Path
from repro.core.config import ModelKind
from repro.core.lifecycle import LifecycleManager, RetrainPolicy
from repro.core.regression_control import ModelQuarantine
from repro.core.serialization import quarantine_to_dict, save_json_atomic
from repro.experiments.shared import get_bundle
from repro.serving import PredictionRequest
from repro.serving.faults import FaultInjector, FaultPolicy
from repro.serving.shard import ShardedCleoRouter
from repro.serving.shard.health import ResilienceConfig

state = Path(__STATE_DIR__)
bundle = get_bundle("cluster1", scale="tiny", seed=0)

manager = LifecycleManager(
    policy=RetrainPolicy(window_days=2, frequency_days=1),
    state_path=state / "lifecycle.json",
)
for day in bundle.log.days[2:]:
    manager.step(bundle.log, day)

predictor = bundle.predictor()
records = list(bundle.log.operator_records())[:100]
requests = [PredictionRequest.for_record(r) for r in records]
injector = FaultInjector(FaultPolicy(name="killall", error_rate=1.0))
with ShardedCleoRouter(
    {"cluster1": predictor},
    n_shards=2,
    resilience=ResilienceConfig(failure_threshold=3, cooldown_calls=64),
    fault_injector=injector,
) as router:
    for i in range(10):
        router.predict_batch("cluster1", requests[i * 4 : i * 4 + 4])
    save_json_atomic(router.export_health(), state / "health.json")

quarantine = ModelQuarantine(tolerance_factor=4.0, min_observations=1)
store = predictor.store
for signature in sorted(store.columns(ModelKind.OP_SUBGRAPH).signatures.tolist())[:3]:
    quarantine.record(ModelKind.OP_SUBGRAPH, signature)
save_json_atomic(quarantine_to_dict(quarantine), state / "quarantine.json")
print("saved")
"""

_RESTART_RESUME_SCRIPT = """
import hashlib
import json
from pathlib import Path
from repro.core.lifecycle import LifecycleManager, RetrainPolicy
from repro.core.serialization import (
    predictor_from_dict,
    predictor_to_dict,
    quarantine_from_dict,
)
from repro.experiments.shared import get_bundle
from repro.serving import CleoService, PredictionRequest
from repro.serving.shard import ShardedCleoRouter
from repro.serving.shard.health import ResilienceConfig

state = Path(__STATE_DIR__)
bundle = get_bundle("cluster1", scale="tiny", seed=0)
records = list(bundle.log.operator_records())[:100]
lines = []

manager = LifecycleManager.resume(
    state / "lifecycle.json",
    policy=RetrainPolicy(window_days=2, frequency_days=1),
)
served = CleoService(manager.registry.active().predictor).predict_records(records).tolist()
lines.append(repr((manager.registry.version_count, served)))

predictor = bundle.predictor()
requests = [PredictionRequest.for_record(r) for r in records]
with ShardedCleoRouter(
    {"cluster1": predictor},
    n_shards=2,
    resilience=ResilienceConfig(failure_threshold=3, cooldown_calls=64),
) as router:
    router.restore_health(json.loads((state / "health.json").read_text()))
    health = router.resilience_stats()
    values = router.predict_batch("cluster1", requests)
lines.append(
    repr([(h.state.value, h.failures, h.breaker_opens) for h in health])
)
lines.append(values.tobytes().hex())

quarantine = quarantine_from_dict(
    json.loads((state / "quarantine.json").read_text())
)
fresh = predictor_from_dict(predictor_to_dict(predictor))
removed = quarantine.replay(fresh.store)
lines.append(repr((removed, sorted(quarantine.ledger()))))
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


def _restart_round_trip(tmp_path, save_seed: str, resume_seed: str) -> str:
    state_dir = tmp_path / f"state-{save_seed}-{resume_seed}"
    state_dir.mkdir()
    assert (
        _run_with_hash_seed(
            _RESTART_SAVE_SCRIPT.replace("__STATE_DIR__", repr(str(state_dir))),
            save_seed,
        )
        == "saved"
    )
    return _run_with_hash_seed(
        _RESTART_RESUME_SCRIPT.replace("__STATE_DIR__", repr(str(state_dir))),
        resume_seed,
    )


def test_restart_round_trip_identical_across_hash_seeds(tmp_path):
    """Kill -> restart determinism: the process that resumes from durable
    state serves the same versions, breaker states, quarantine ledger, and
    prediction bytes no matter which hash seed either process ran under."""
    digest_a = _restart_round_trip(tmp_path, "0", "42")
    digest_b = _restart_round_trip(tmp_path, "42", "0")
    assert digest_a == digest_b, (
        "resuming from durable state produced different registry versions, "
        "breaker states, or prediction bytes under different PYTHONHASHSEED "
        "values - the save/load path is not deterministic"
    )
