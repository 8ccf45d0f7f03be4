"""Serving layer: the public façade for trained Cleo cost models.

:class:`~repro.serving.service.CleoService` is *the* entry point for
training, loading, saving, and querying cost models — batched and cached,
the way the paper's production deployment consults them (Section 5.1).
Versioned deployment belongs to
:class:`~repro.core.lifecycle.LifecycleManager` and its
:class:`~repro.core.lifecycle.ModelRegistry`.  Everything else in the
package is supporting machinery.
"""

from repro.serving.cache import CacheStats, LRUCache
from repro.serving.faults import (
    SCENARIOS,
    FaultInjector,
    FaultKind,
    FaultPolicy,
    InjectedFaultError,
    InjectedTimeoutError,
)
from repro.serving.service import (
    CleoService,
    PredictionRequest,
    ServiceStats,
    as_cost_model,
)

__all__ = [
    "CacheStats",
    "CleoService",
    "FaultInjector",
    "FaultKind",
    "FaultPolicy",
    "InjectedFaultError",
    "InjectedTimeoutError",
    "LRUCache",
    "PredictionRequest",
    "SCENARIOS",
    "ServiceStats",
    "as_cost_model",
]
