"""Chaos benchmark: serving availability under deterministic fault injection.

The paper's Section 6.7 regression-control story assumes the serving tier
*contains* failures instead of propagating them.  This benchmark replays
the PR 6 serving load (per-job batched predictions plus whole-plan
costings, round-robin across clusters) through a hardened
:class:`~repro.serving.shard.router.ShardedCleoRouter` under each named
:data:`~repro.serving.faults.SCENARIOS` fault policy, and measures what
the degradation ladder delivers:

* **availability** — the fraction of requests answered with finite,
  non-negative predictions (the ladder's contract is 1.0: a request may be
  degraded, never dropped or poisoned);
* **tail latency under faults** — p50/p99 across the replay;
* **degraded fraction** — how many predictions fell below the learned
  tier (heuristic floor / bounded default);
* **breaker and retry activity** — ladder retries, circuit-breaker opens,
  per-kind injected-fault counts.

The **zero-fault section** pins the reliability layer's no-op cost: with
no injector, the hardened router's outputs are bitwise identical and its
``ServiceStats`` counter-identical to the pre-ladder fail-fast router
(``resilience=None``) and the single-process baseline.

Fault decisions are pure functions of ``(seed, shard, cluster, sub-batch,
attempt)``, so every scenario run is exactly reproducible; the chaos
replay defaults to one fan-out worker so breaker state transitions are
replayable too (with threads, failure *interleaving* — and thus breaker
trip points — depends on scheduling).

Run it with ``repro bench faults`` (:mod:`repro.experiments.throughput`;
``--list-scenarios`` shows what can be injected) to emit
``BENCH_faults.json``.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.experiments.serving_throughput import replay_parity
from repro.experiments.shared import get_bundle
from repro.serving.faults import SCENARIOS, FaultInjector
from repro.serving.service import CleoService, ServiceStats
from repro.serving.shard.health import ResilienceConfig
from repro.serving.shard.loadgen import (
    PlanJob,
    ServiceBackend,
    ServingLoad,
    build_load,
    run_load,
)
from repro.serving.shard.router import ShardedCleoRouter

#: Scenario replay order: the no-fault control first, then each single
#: fault class in isolation, then the combined storm.
DEFAULT_SCENARIOS: tuple[str, ...] = tuple(SCENARIOS)

#: Pipeline-chaos scenario order: poisoned telemetry first, then the
#: mid-retrain crash, then serving with quarantined models.
PIPELINE_SCENARIOS: tuple[str, ...] = (
    "poisoned_runlog",
    "retrain_crash",
    "quarantined_planner",
)

#: The lifecycle rows replay a longer single-cluster log so a crash can
#: land on a mid-sequence retrain with history on both sides of it.
_LIFECYCLE_DAYS: tuple[int, ...] = (1, 2, 3, 4, 5)


def _chaos_replay(
    backend, load: ServingLoad, epochs: int, collect: bool = False
) -> dict:
    """Replay the load, tolerating and counting per-request failures.

    Unlike :func:`~repro.serving.shard.loadgen.run_load` (which lets any
    exception abort the replay — correct for parity benchmarks), a chaos
    replay must survive whatever the backend throws and score it: a
    request counts as *available* only if it returned finite, non-negative
    predictions.  With ``collect`` the per-request answers come back too,
    so two replays can be compared bitwise (the hedging parity check).
    """
    latencies: list[float] = []
    values_out: list = []
    available = 0
    total = 0
    for _ in range(epochs):
        for request in load.requests:
            answer = None
            start = time.perf_counter()
            try:
                if isinstance(request, PlanJob):
                    value = backend.predict_plan(
                        request.cluster,
                        request.root,
                        load.fresh_estimator(request.cluster),
                    )
                    ok = math.isfinite(value) and value >= 0.0
                    answer = value
                else:
                    values = backend.predict_batch(
                        request.cluster, list(request.requests)
                    )
                    ok = bool(
                        np.isfinite(values).all() and (values >= 0.0).all()
                    )
                    answer = values
            except Exception:
                ok = False
            latencies.append(time.perf_counter() - start)
            total += 1
            if collect:
                values_out.append(answer)
            if ok:
                available += 1
    result = {
        "availability": round(available / total, 6) if total else 1.0,
        **_latency_columns(latencies),
    }
    if collect:
        result["values"] = values_out
    return result


def _latency_columns(durations: list[float]) -> dict:
    lat = np.asarray(durations, dtype=float)
    return {
        "latency_p50_ms": round(float(1e3 * np.quantile(lat, 0.50)), 4),
        "latency_p99_ms": round(float(1e3 * np.quantile(lat, 0.99)), 4),
    }


def _zero_fault_section(
    fleet,
    predictors: dict,
    capacity: int,
    load: ServingLoad,
    epochs: int,
    resilience: ResilienceConfig,
) -> dict:
    """Pin the reliability layer's zero-fault parity contract.

    ``fleet(resilience=..., fault_injector=...)`` builds the benchmark's
    router: predictors, shard and worker counts and cache capacity fixed.
    """
    baseline_services = {
        cluster: CleoService(predictor, prediction_cache_size=capacity)
        for cluster, predictor in predictors.items()
    }
    baseline = run_load(ServiceBackend(baseline_services), load, epochs=epochs)

    with fleet(resilience=resilience) as hardened_router:
        hardened = run_load(hardened_router, load, epochs=epochs)
        hardened_stats = hardened_router.stats()

    with fleet(resilience=None) as legacy_router:
        legacy = run_load(legacy_router, load, epochs=epochs)
        legacy_stats = legacy_router.stats()

    return {
        "predictions_bitwise_identical": replay_parity(hardened, baseline)
        and replay_parity(hardened, legacy),
        "stats_counter_identical": hardened_stats == legacy_stats,
        "retries": hardened_stats.retries,
        "breaker_opens": hardened_stats.breaker_opens,
        "degraded_predictions": hardened_stats.degraded_predictions,
    }


def _hedging_section(
    fleet,
    load: ServingLoad,
    epochs: int,
    seed: int,
    resilience: ResilienceConfig,
    hedge_threshold_s: float,
) -> dict:
    """Latency-spike replay with and without hedged requests.

    The hedged pass must answer every request bitwise-identically to the
    unhedged pass (the ring successor reads the same shared bank) — the
    only thing hedging is allowed to change is who pays the spike.
    """
    policy = replace(SCENARIOS["latency_spikes"], seed=seed)
    rows: dict[str, dict] = {}
    answers: dict[str, list] = {}
    configs = {
        "unhedged": resilience,
        "hedged": replace(resilience, hedge_threshold_s=hedge_threshold_s),
    }
    for mode, config in configs.items():
        with fleet(resilience=config, fault_injector=FaultInjector(policy)) as router:
            measures = _chaos_replay(router, load, epochs, collect=True)
            hedge = router.hedge_stats()
        answers[mode] = measures.pop("values")
        rows[mode] = {**measures, **hedge}
    bitwise = len(answers["unhedged"]) == len(answers["hedged"]) and all(
        (a is None and b is None)
        or (a is not None and b is not None and np.array_equal(a, b))
        for a, b in zip(answers["unhedged"], answers["hedged"])
    )
    unhedged_p99 = rows["unhedged"]["latency_p99_ms"]
    hedged_p99 = rows["hedged"]["latency_p99_ms"]
    return {
        "scenario": "latency_spikes",
        "hedge_threshold_s": hedge_threshold_s,
        "spike_s": policy.latency_spike_s,
        "unhedged_p99_ms": unhedged_p99,
        "hedged_p99_ms": hedged_p99,
        "unhedged_p50_ms": rows["unhedged"]["latency_p50_ms"],
        "hedged_p50_ms": rows["hedged"]["latency_p50_ms"],
        "p99_speedup": round(unhedged_p99 / hedged_p99, 3) if hedged_p99 else None,
        "hedges": rows["hedged"]["hedges"],
        "hedge_wins": rows["hedged"]["hedge_wins"],
        "unhedged_hedges": rows["unhedged"]["hedges"],
        "availability": rows["hedged"]["availability"],
        "predictions_bitwise_identical": bitwise,
    }


def _poisoned_runlog_row(scale: str, seed: int) -> dict:
    """Train-through-poison recovery: NaNs, outliers, duplicated and
    dropped telemetry rows injected into the run log; the training gate
    must excise them and every day must still be scored."""
    from repro.common.chaos import POISON_SCENARIOS, RunLogPoisoner
    from repro.core.lifecycle import LifecycleManager, RetrainPolicy

    bundle = get_bundle("cluster1", scale=scale, days=_LIFECYCLE_DAYS, seed=seed)
    policy = replace(
        POISON_SCENARIOS["poisoned_runlog"], days=_LIFECYCLE_DAYS[:-1], seed=seed
    )
    poisoned, injected = RunLogPoisoner(policy).poison(bundle.log)
    manager = LifecycleManager(policy=RetrainPolicy(window_days=2, frequency_days=2))
    days = list(_LIFECYCLE_DAYS[2:])
    durations: list[float] = []
    excised = {"rows_dropped": 0, "invalid_latency": 0, "duplicate_rows": 0}
    scored = 0
    for day in days:
        start = time.perf_counter()
        outcome = manager.step(poisoned, day)
        durations.append(time.perf_counter() - start)
        scored += 1
        audit = manager.trainer.last_audit
        if outcome.retrained and audit is not None:
            excised["rows_dropped"] += audit.rows_dropped
            excised["invalid_latency"] += audit.invalid_latency
            excised["duplicate_rows"] += audit.duplicate_rows
    return {
        "scenario": "poisoned_runlog",
        "policy": policy.describe(),
        "injected": injected,
        "excised": excised,
        "days_scored": scored,
        "days_total": len(days),
        "availability": scored / len(days) if days else 1.0,
        "recovery": scored == len(days) and excised["rows_dropped"] > 0,
        **_latency_columns(durations),
    }


def _retrain_crash_row(scale: str, seed: int, tmpdir: str) -> dict:
    """Mid-retrain crash recovery: a deterministic crash lands between
    training and publish; the durable manager resumes, retries the day,
    and the whole replay must end bitwise-identical to a crash-free run
    with no half-published version ever visible."""
    from repro.common.chaos import CrashPolicy, PipelineChaos
    from repro.common.errors import InjectedCrashError
    from repro.core.lifecycle import LifecycleManager, RetrainPolicy

    bundle = get_bundle("cluster1", scale=scale, days=_LIFECYCLE_DAYS, seed=seed)
    log = bundle.log
    days = list(_LIFECYCLE_DAYS[2:])
    crash_day = days[1]
    retrain = RetrainPolicy(window_days=2, frequency_days=1)
    state_path = Path(tmpdir) / "lifecycle_state.json"
    chaos = PipelineChaos(
        CrashPolicy(
            name="retrain_crash",
            points=("pre_publish",),
            days=(crash_day,),
            seed=seed,
        )
    )
    manager = LifecycleManager(policy=retrain, state_path=state_path, chaos=chaos)
    outcomes = []
    durations: list[float] = []
    crashes = 0
    pending = list(days)
    while pending:
        day = pending[0]
        start = time.perf_counter()
        try:
            outcomes.append(manager.step(log, day))
        except InjectedCrashError:
            crashes += 1
            durations.append(time.perf_counter() - start)
            # The old process is dead; a new one resumes from disk and
            # retries the same day (the chaos injector models a transient
            # condition: the retry is allowed through).
            manager = LifecycleManager.resume(
                state_path, policy=retrain, chaos=chaos
            )
            continue
        durations.append(time.perf_counter() - start)
        pending.pop(0)

    clean = LifecycleManager(policy=retrain)
    clean_outcomes = [clean.step(log, day) for day in days]
    identical = len(outcomes) == len(clean_outcomes) and all(
        a.day == b.day
        and a.active_version == b.active_version
        and a.median_error_pct == b.median_error_pct
        for a, b in zip(clean_outcomes, outcomes)
    )
    return {
        "scenario": "retrain_crash",
        "crash_point": "pre_publish",
        "crash_day": crash_day,
        "crashes_injected": crashes,
        "days_scored": len(outcomes),
        "days_total": len(days),
        "availability": len(outcomes) / len(days) if days else 1.0,
        "versions_published": manager.registry.version_count,
        "versions_clean_run": clean.registry.version_count,
        "replay_bitwise_identical": identical,
        "recovery": identical
        and crashes == 1
        and manager.registry.version_count == clean.registry.version_count,
        **_latency_columns(durations),
    }


def _quarantined_planner_row(
    bundles: dict, load: ServingLoad, capacity: int
) -> dict:
    """Serving with quarantined models: a replayed quarantine ledger
    removes a slice of each cluster's specialized models; the predictor
    ladder must absorb the gap with availability 1.0."""
    from repro.core.config import ModelKind
    from repro.core.regression_control import ModelQuarantine
    from repro.core.serialization import predictor_from_dict, predictor_to_dict

    quarantine = ModelQuarantine()
    services = {}
    removed = 0
    replay_idempotent = True
    for cluster, bundle in bundles.items():
        # Deep-copy via the serialization round-trip: the bundle's cached
        # predictor also backs the serving sections and must stay intact.
        predictor = predictor_from_dict(predictor_to_dict(bundle.predictor()))
        signatures = sorted(predictor.store.columns(ModelKind.OP_SUBGRAPH).signatures.tolist())
        for signature in signatures[: max(1, len(signatures) // 10)]:
            quarantine.record(ModelKind.OP_SUBGRAPH, signature)
        removed += quarantine.replay(predictor.store)
        # Replaying an already-applied ledger must be a typed no-op.
        replay_idempotent = replay_idempotent and (
            quarantine.replay(predictor.store) == 0
        )
        services[cluster] = CleoService(predictor, prediction_cache_size=capacity)

    measures = _chaos_replay(ServiceBackend(services), load, epochs=1)
    return {
        "scenario": "quarantined_planner",
        "ledger_entries": len(quarantine.ledger()),
        "models_removed": removed,
        "replay_idempotent": replay_idempotent,
        **measures,
        "recovery": measures["availability"] == 1.0
        and removed > 0
        and replay_idempotent,
    }


def run_benchmark(
    scale: str = "small",
    clusters: tuple[str, ...] = ("cluster1", "cluster2"),
    seed: int = 0,
    epochs: int = 2,
    shards: int = 3,
    workers: int = 1,
    scenarios: tuple[str, ...] = DEFAULT_SCENARIOS,
    cache_fraction: float = 0.5,
    max_jobs_per_cluster: int | None = None,
    pipeline_scenarios: tuple[str, ...] = PIPELINE_SCENARIOS,
    hedge_threshold_s: float | None = 0.001,
) -> dict:
    """Replay the serving load under every fault scenario; JSON-ready dict.

    A ``hedge_threshold_s`` of 0 or ``None`` skips the hedging section.
    """
    unknown = [name for name in scenarios if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown fault scenarios {unknown}; have {sorted(SCENARIOS)}")
    unknown = [n for n in pipeline_scenarios if n not in PIPELINE_SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown pipeline scenarios {unknown}; have {list(PIPELINE_SCENARIOS)}"
        )
    bundles = {
        cluster: get_bundle(cluster, scale=scale, seed=seed) for cluster in clusters
    }
    load: ServingLoad = build_load(bundles, max_jobs_per_cluster=max_jobs_per_cluster)
    capacity = load.suggested_cache_capacity(cache_fraction)
    predictors = {cluster: bundle.predictor() for cluster, bundle in bundles.items()}
    resilience = ResilienceConfig()
    fleet = partial(
        ShardedCleoRouter,
        predictors,
        n_shards=shards,
        n_workers=workers,
        prediction_cache_size=capacity,
    )

    zero_fault = _zero_fault_section(
        fleet, predictors, capacity, load, epochs, resilience
    )

    scenario_rows: list[dict] = []
    for name in scenarios:
        policy = replace(SCENARIOS[name], seed=seed)
        with fleet(
            resilience=resilience, fault_injector=FaultInjector(policy)
        ) as router:
            measures = _chaos_replay(router, load, epochs)
            stats = router.stats()
            health = router.resilience_stats()
            injected = router.fault_stats()
        predictions_issued = stats.predictions or 1
        scenario_rows.append(
            {
                "scenario": name,
                "policy": {
                    "error_rate": policy.error_rate,
                    "timeout_rate": policy.timeout_rate,
                    "corrupt_rate": policy.corrupt_rate,
                    "latency_rate": policy.latency_rate,
                    "seed": policy.seed,
                },
                **measures,
                "injected_faults": injected,
                "retries": stats.retries,
                "breaker_opens": stats.breaker_opens,
                "degraded_predictions": stats.degraded_predictions,
                "degraded_fraction": round(
                    stats.degraded_predictions / predictions_issued, 6
                ),
                "breaker_states": [h.state.value for h in health],
                "shard_failure_rates": [
                    round(h.window_failure_rate, 4) for h in health
                ],
            }
        )

    hedging = None
    if hedge_threshold_s and "latency_spikes" in scenarios:
        hedging = _hedging_section(
            fleet, load, epochs, seed, resilience, hedge_threshold_s
        )

    with tempfile.TemporaryDirectory() as tmpdir:
        rows = {
            "poisoned_runlog": lambda: _poisoned_runlog_row(scale, seed),
            "retrain_crash": lambda: _retrain_crash_row(scale, seed, tmpdir),
            "quarantined_planner": lambda: _quarantined_planner_row(
                bundles, load, capacity
            ),
        }
        pipeline_rows = [rows[name]() for name in pipeline_scenarios]

    baseline_rows = [r for r in scenario_rows if r["scenario"] == "baseline"]
    return {
        "benchmark": "fault_tolerance",
        "workload": {
            "clusters": list(load.clusters),
            "scale": scale,
            "seed": seed,
            "epochs": epochs,
            "shards": shards,
            "workers": workers,
            "requests_per_epoch": len(load.requests),
            "predictions_per_epoch": load.n_predictions,
            "per_shard_cache_capacity": capacity,
        },
        "resilience": {
            "max_retries": resilience.max_retries,
            "failure_threshold": resilience.failure_threshold,
            "window": resilience.window,
            "cooldown_calls": resilience.cooldown_calls,
            "deadline_s": resilience.deadline_s,
        },
        "zero_fault": zero_fault,
        "scenarios": scenario_rows,
        "hedging": hedging,
        "pipeline": pipeline_rows,
        "pipeline_all_recovered": (
            all(r["availability"] == 1.0 and r["recovery"] for r in pipeline_rows)
            if pipeline_rows
            else None
        ),
        "baseline_availability": (
            baseline_rows[0]["availability"] if baseline_rows else None
        ),
        "all_available": all(r["availability"] == 1.0 for r in scenario_rows),
    }


#: One-line docs for the pipeline-chaos rows (shown by ``--list-scenarios``).
_PIPELINE_DOCS: dict[str, str] = {
    "poisoned_runlog": (
        "NaN/outlier latencies, duplicated and dropped telemetry rows "
        "injected into the run log; the training gate excises them"
    ),
    "retrain_crash": (
        "deterministic crash between training and publish; the durable "
        "lifecycle manager resumes with no half-published version"
    ),
    "quarantined_planner": (
        "a replayed quarantine ledger removes specialized models; the "
        "predictor ladder serves through the gap"
    ),
}


def list_scenarios() -> str:
    """Human-readable catalogue of every chaos scenario (CLI helper)."""
    from repro.common.chaos import POISON_SCENARIOS

    lines = ["serving scenarios (deterministic fault injection):"]
    for name in DEFAULT_SCENARIOS:
        lines.append(f"  {name}: {SCENARIOS[name].describe()}")
    lines.append("pipeline scenarios (training/lifecycle chaos):")
    for name in PIPELINE_SCENARIOS:
        lines.append(f"  {name}: {_PIPELINE_DOCS[name]}")
    lines.append("run-log poison policies (repro.common.chaos):")
    for name, policy in POISON_SCENARIOS.items():
        lines.append(f"  {name}: {policy.describe()}")
    return "\n".join(lines)


def select_scenarios(names: list[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a ``--scenario`` filter into (serving, pipeline) selections.

    Order follows the canonical replay order, not the order given; unknown
    names raise ``ValueError`` listing what exists.
    """
    unknown = [
        n for n in names if n not in SCENARIOS and n not in PIPELINE_SCENARIOS
    ]
    if unknown:
        raise ValueError(
            f"unknown scenarios {unknown}; serving: {sorted(SCENARIOS)}, "
            f"pipeline: {list(PIPELINE_SCENARIOS)}"
        )
    serving = tuple(n for n in DEFAULT_SCENARIOS if n in names)
    pipeline = tuple(n for n in PIPELINE_SCENARIOS if n in names)
    return serving, pipeline


def format_result(result: dict) -> str:
    """Human summary: one line per scenario plus the parity headline."""
    workload = result["workload"]
    lines = [
        f"fault_tolerance [{'+'.join(workload['clusters'])} "
        f"scale={workload['scale']} seed={workload['seed']} "
        f"epochs={workload['epochs']}, {workload['shards']} shard(s) x "
        f"{workload['workers']} worker(s)]: "
        f"{workload['predictions_per_epoch']} predictions per epoch"
    ]
    zero = result["zero_fault"]
    lines.append(
        f"  zero-fault: bitwise={zero['predictions_bitwise_identical']}, "
        f"stats identical to fail-fast router="
        f"{zero['stats_counter_identical']}"
    )
    for row in result["scenarios"]:
        injected = row["injected_faults"].get("total", 0)
        lines.append(
            f"  {row['scenario']}: availability {row['availability']:.4f}, "
            f"{injected} faults injected, {row['retries']} retries, "
            f"{row['breaker_opens']} breaker opens, "
            f"degraded {row['degraded_fraction']:.4f}, "
            f"p99 {row['latency_p99_ms']:.2f} ms"
        )
    hedging = result.get("hedging")
    if hedging is not None:
        lines.append(
            f"  hedging (latency_spikes, SLO {1e3 * hedging['hedge_threshold_s']:.1f} ms): "
            f"p99 {hedging['unhedged_p99_ms']:.2f} -> {hedging['hedged_p99_ms']:.2f} ms, "
            f"{hedging['hedges']} hedges ({hedging['hedge_wins']} wins), "
            f"bitwise={hedging['predictions_bitwise_identical']}"
        )
    for row in result.get("pipeline", []):
        lines.append(
            f"  pipeline/{row['scenario']}: availability {row['availability']:.4f}, "
            f"recovery={row['recovery']}, "
            f"p50 {row['latency_p50_ms']:.2f} ms, p99 {row['latency_p99_ms']:.2f} ms"
        )
    if result.get("pipeline_all_recovered") is not None:
        lines.append(
            f"  pipeline chaos fully recovered: {result['pipeline_all_recovered']}"
        )
    lines.append(f"  all scenarios fully available: {result['all_available']}")
    return "\n".join(lines)
