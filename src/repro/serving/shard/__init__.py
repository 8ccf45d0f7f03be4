"""Sharded multi-cluster serving tier.

Scales the single-process :class:`~repro.serving.service.CleoService` out
into a fleet of shards behind one façade (the paper's production setting:
models for *all* clusters served to "millions of users" of the optimizer,
Section 5.1):

* :class:`~repro.serving.shard.routing.HashRing` — consistent-hash routing
  of ``(cluster, template)`` keys onto shards, built on
  :func:`repro.common.hashing.stable_hash` so placement never depends on
  ``PYTHONHASHSEED``;
* :class:`~repro.serving.shard.router.ShardedCleoRouter` — the façade that
  owns one :class:`~repro.serving.service.CleoService` per (shard, cluster),
  fans batches out across shards, and merges results in input order with
  aggregated stats;
* :mod:`~repro.serving.shard.loadgen` — the deterministic mixed
  predict/plan request stream the chaos matrix replays.
"""

from repro.serving.shard.health import (
    DEFAULT_RESILIENCE,
    BreakerState,
    ResilienceConfig,
    ShardHealth,
    ShardHealthStats,
)
from repro.serving.shard.loadgen import ServingLoad, build_load
from repro.serving.shard.router import ClusterClient, ShardedCleoRouter
from repro.serving.shard.routing import HashRing, route_key

__all__ = [
    "BreakerState",
    "ClusterClient",
    "DEFAULT_RESILIENCE",
    "HashRing",
    "ResilienceConfig",
    "ServingLoad",
    "ShardHealth",
    "ShardHealthStats",
    "ShardedCleoRouter",
    "build_load",
    "route_key",
]
