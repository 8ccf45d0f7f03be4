"""Serving load test: the sharded tier vs one single-process service.

The paper's deployment serves every cluster's models to "millions of users"
of the optimizer (Section 5.1); what decides whether that works is serving
throughput and tail latency, not just accuracy.  This benchmark drives a
deterministic mixed request stream — per-job batched predictions plus
whole-plan costings, interleaved round-robin across clusters — through

* one single-process :class:`~repro.serving.service.CleoService` per
  cluster (the parity baseline), and
* a :class:`~repro.serving.shard.router.ShardedCleoRouter` at several
  (shards, workers) configurations,

replayed for several epochs the way recurring workloads re-price the same
operators day after day.

**What scales and why.**  Every shard brings its own prediction LRU, so the
fleet's aggregate cache capacity grows with the shard count — the memory
dimension of scale-out.  Per-shard capacity is sized *below* one cluster's
per-epoch working set (``cache.sizing`` in the result): a single shard
thrashes on the cyclic replay while four shards hold the whole set, which
is what moves steady-state throughput.  Thread fan-out (``workers``) adds
compute parallelism on multi-core hosts; on the single-core CI runner it
contributes overhead, not speedup, and the recorded per-config hit rates
and ``environment.cpu_count`` make that attribution explicit.

Predictions are **bitwise identical** across every configuration and the
single-process baseline (batch-size-invariant kernels + template-affine
routing); the ``predictions_bitwise_identical`` flag asserts it on both
the per-job batches and the plan totals.

Run it with ``repro bench serving`` (:mod:`repro.experiments.throughput`)
to emit ``BENCH_serving.json``.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.shared import get_bundle
from repro.serving.service import CleoService, ServiceStats
from repro.serving.shard.loadgen import (
    LoadResult,
    ServiceBackend,
    ServingLoad,
    build_load,
    run_load,
)
from repro.serving.shard.router import ShardedCleoRouter

#: Default (shards, workers) sweep: the single-shard references and the
#: scale-out points the acceptance bar compares (>= 2x at >= 4 workers).
DEFAULT_CONFIGS: tuple[tuple[int, int], ...] = ((1, 1), (1, 4), (2, 4), (4, 4))


def replay_parity(result: LoadResult, baseline: LoadResult) -> bool:
    """Two replays answered every batch and every plan total bit for bit."""
    return bool(
        len(result.predictions) == len(baseline.predictions)
        and all(
            np.array_equal(a, b)
            for a, b in zip(baseline.predictions, result.predictions)
        )
        and result.plan_totals == baseline.plan_totals
    )


def _measure(result: LoadResult, hit_rate: float) -> dict:
    return {
        "seconds_total": round(result.total_seconds, 4),
        "seconds_per_epoch": [round(s, 4) for s in result.epoch_seconds],
        "throughput_predictions_per_second": round(result.throughput, 1),
        "steady_state_predictions_per_second": round(
            result.steady_state_throughput, 1
        ),
        "latency_p50_ms": round(result.p50_ms, 4),
        "latency_p99_ms": round(result.p99_ms, 4),
        "cache_hit_rate": round(hit_rate, 4),
    }


def run_benchmark(
    scale: str = "small",
    clusters: tuple[str, ...] = ("cluster1", "cluster2"),
    seed: int = 0,
    epochs: int = 4,
    configs: tuple[tuple[int, int], ...] = DEFAULT_CONFIGS,
    cache_fraction: float = 0.5,
    max_jobs_per_cluster: int | None = None,
) -> dict:
    """Replay the load against every serving configuration; JSON-ready dict.

    ``multi_shard_speedup`` compares steady-state throughput of the widest
    multi-shard config against the single-shard config at the same worker
    count (both sides pay the same fan-out machinery; only the shard count
    differs).
    """
    bundles = {
        cluster: get_bundle(cluster, scale=scale, seed=seed) for cluster in clusters
    }
    load: ServingLoad = build_load(
        bundles, max_jobs_per_cluster=max_jobs_per_cluster
    )
    capacity = load.suggested_cache_capacity(cache_fraction)
    predictors = {cluster: bundle.predictor() for cluster, bundle in bundles.items()}

    baseline_services = {
        cluster: CleoService(predictor, prediction_cache_size=capacity)
        for cluster, predictor in predictors.items()
    }
    baseline = run_load(ServiceBackend(baseline_services), load, epochs=epochs)
    baseline_stats = ServiceStats.aggregate(
        service.stats() for service in baseline_services.values()
    )

    config_rows: list[dict] = []
    by_key: dict[tuple[int, int], LoadResult] = {}
    for shards, workers in configs:
        with ShardedCleoRouter(
            predictors,
            n_shards=shards,
            n_workers=workers,
            prediction_cache_size=capacity,
        ) as router:
            result = run_load(router, load, epochs=epochs)
            stats = router.stats()
        by_key[(shards, workers)] = result
        config_rows.append(
            {
                "shards": shards,
                "workers": workers,
                **_measure(result, stats.cache.hit_rate),
                "aggregate_cache_capacity": stats.cache.capacity,
                "predictions_bitwise_identical": replay_parity(result, baseline),
            }
        )

    multi = [(s, w) for s, w in configs if s > 1 and w >= 4]
    speedup = None
    speedup_basis = None
    if multi:
        best_key = max(multi, key=lambda k: by_key[k].steady_state_throughput)
        single_key = (1, best_key[1]) if (1, best_key[1]) in by_key else None
        if single_key is None:
            singles = [(s, w) for s, w in configs if s == 1]
            single_key = singles[0] if singles else None
        if single_key is not None:
            speedup = (
                by_key[best_key].steady_state_throughput
                / by_key[single_key].steady_state_throughput
            )
            speedup_basis = (
                f"steady-state predictions/s, {best_key[0]} shards x "
                f"{best_key[1]} workers vs 1 shard x {single_key[1]} workers"
            )

    return {
        "benchmark": "serving_throughput",
        "workload": {
            "clusters": list(load.clusters),
            "scale": scale,
            "seed": seed,
            "epochs": epochs,
            "requests_per_epoch": len(load.requests),
            "predictions_per_epoch": load.n_predictions,
            "plan_requests_per_epoch": sum(
                1 for r in load.requests if not hasattr(r, "requests")
            ),
            "unique_requests_per_cluster": dict(load.unique_keys),
        },
        "cache": {
            "per_shard_capacity": capacity,
            "sizing": (
                f"{cache_fraction:.0%} of the smallest cluster's per-epoch "
                "working set: one shard thrashes on the cyclic replay, the "
                "widest fleet's aggregate capacity holds the whole set"
            ),
        },
        "single_process": _measure(baseline, baseline_stats.cache.hit_rate),
        "configs": config_rows,
        "multi_shard_speedup": None if speedup is None else round(speedup, 2),
        "speedup_basis": speedup_basis,
        "predictions_bitwise_identical": all(
            row["predictions_bitwise_identical"] for row in config_rows
        ),
    }


def format_result(result: dict) -> str:
    """Human summary: one line per configuration plus the headline."""
    workload = result["workload"]
    lines = [
        f"serving_throughput [{'+'.join(workload['clusters'])} "
        f"scale={workload['scale']} seed={workload['seed']} "
        f"epochs={workload['epochs']}]: "
        f"{workload['predictions_per_epoch']} predictions + "
        f"{workload['plan_requests_per_epoch']} plan costs per epoch, "
        f"per-shard cache {result['cache']['per_shard_capacity']}"
    ]
    single = result["single_process"]
    lines.append(
        f"  single-process: "
        f"{single['steady_state_predictions_per_second']:.0f} predictions/s "
        f"steady-state, p50 {single['latency_p50_ms']:.2f} ms, "
        f"p99 {single['latency_p99_ms']:.2f} ms"
    )
    for row in result["configs"]:
        lines.append(
            f"  {row['shards']} shard(s) x {row['workers']} worker(s): "
            f"{row['steady_state_predictions_per_second']:.0f} predictions/s "
            f"steady-state, hit rate {row['cache_hit_rate']:.2f}, "
            f"p50 {row['latency_p50_ms']:.2f} ms, "
            f"p99 {row['latency_p99_ms']:.2f} ms, "
            f"parity={row['predictions_bitwise_identical']}"
        )
    if result["multi_shard_speedup"] is not None:
        lines.append(
            f"  multi-shard speedup: {result['multi_shard_speedup']}x "
            f"({result['speedup_basis']})"
        )
    return "\n".join(lines)
