"""The execution engine's memo caches stay bounded and change no log.

``BatchedExecutionEngine``'s shape statics, ``GroundTruthModel``'s
per-template multipliers and per-factor draws, and the signature module's
per-structure tier memo clear when they reach their limit, like the
skeleton planner's cache and the signature-hash caches.  Their values are
pure recomputations, so a run that clears them many times writes the same
bytes as a run that never does.
"""

from __future__ import annotations

from repro.execution.batch import BatchedExecutionEngine
from repro.execution.ground_truth import GroundTruthModel
from repro.execution.hardware import DEFAULT_CLUSTERS
from repro.plan import signatures
from repro.workload.generator import ClusterWorkloadConfig, WorkloadGenerator
from repro.workload.runner import WorkloadRunner

#: Ad-hoc heavy, so new templates (and new cache keys) arrive every day.
_CONFIG = dict(n_tables=5, n_fragments=9, n_templates=14, adhoc_fraction=0.4, seed=13)


def _log_bytes() -> tuple[bytes, ...]:
    cluster = DEFAULT_CLUSTERS[0]
    generator = WorkloadGenerator(ClusterWorkloadConfig(cluster_name=cluster.name, **_CONFIG))
    log = WorkloadRunner(cluster=cluster, seed=13).run_days(generator, range(1, 4))
    table = log.to_table()
    # A float's repr round-trips its bits, sign of zero included.
    return (
        repr(log.jobs).encode(),
        table.features.tobytes(),
        table.signatures.tobytes(),
        table.latency.tobytes(),
    )


def _watch(monkeypatch, owner: type, method: str, caches: dict, peaks: dict) -> None:
    """Record each cache's largest size after every call of ``method``;
    ``caches`` maps a cache's name to how to read it off the instance."""
    original = getattr(owner, method)

    def watched(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        for name, read in caches.items():
            peaks[name] = max(peaks.get(name, 0), len(read(self)))
        return result

    monkeypatch.setattr(owner, method, watched)


def _watch_all(monkeypatch, peaks: dict) -> None:
    # Signing happens inside _statics, so its exit sees the tier memo too.
    _watch(
        monkeypatch,
        BatchedExecutionEngine,
        "_statics",
        {
            "_shape_cache": lambda engine: engine._shape_cache,
            "_TIER_CACHE": lambda engine: signatures._TIER_CACHE,
        },
        peaks,
    )
    _watch(
        monkeypatch,
        GroundTruthModel,
        "hidden_multiplier",
        {
            "_multiplier_cache": lambda model: model._multiplier_cache,
            "_factor_cache": lambda model: model._factor_cache,
        },
        peaks,
    )


def test_small_limits_bound_the_caches_and_keep_logs_byte_identical(monkeypatch):
    # A memo of its own, so the default-limit run starts empty.
    monkeypatch.setattr(signatures, "_TIER_CACHE", {})
    unbounded_peaks: dict[str, int] = {}
    with monkeypatch.context() as patch:
        _watch_all(patch, unbounded_peaks)
        unbounded = _log_bytes()

    limits = {"_shape_cache": 3, "_multiplier_cache": 7, "_factor_cache": 5, "_TIER_CACHE": 11}
    assert all(unbounded_peaks[cache] > limit for cache, limit in limits.items()), (
        "the run must outgrow the patched limits, or nothing is cleared"
    )
    bounded_peaks: dict[str, int] = {}
    monkeypatch.setattr(signatures, "_TIER_CACHE", {})
    monkeypatch.setattr(BatchedExecutionEngine, "_SHAPE_CACHE_LIMIT", limits["_shape_cache"])
    monkeypatch.setattr(GroundTruthModel, "_MULTIPLIER_CACHE_LIMIT", limits["_multiplier_cache"])
    monkeypatch.setattr(GroundTruthModel, "_FACTOR_CACHE_LIMIT", limits["_factor_cache"])
    monkeypatch.setattr(signatures, "_TIER_CACHE_LIMIT", limits["_TIER_CACHE"])
    _watch_all(monkeypatch, bounded_peaks)
    assert _log_bytes() == unbounded
    for cache, limit in limits.items():
        assert 0 < bounded_peaks[cache] <= limit
