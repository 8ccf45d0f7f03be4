"""Deterministic fault injection for the serving fleet.

The paper's production story (Section 6.7) is a cost model that keeps
serving through churn, regressions, and bad retrains.  Exercising that
requires *injecting* the failures a real fleet sees — slow shards, raised
exceptions, timeouts, and models that emit garbage — in a way that is
exactly reproducible, so a chaos run is a regression test rather than a
dice roll.

:class:`FaultPolicy` describes a failure mix (per-call rates for each
fault kind, which shards are affected, how outputs are corrupted) and
:class:`FaultInjector` applies it around per-shard ``CleoService`` calls.
Every decision is a **pure function** of ``(policy seed, shard, cluster,
sub-batch token, attempt)`` through :func:`repro.common.hashing.
stable_unit_float` — no RNG state, no wall clock, no per-process ``hash``
salt — so the same request stream sees the same faults in every process
and on every replay, including the ring-successor retries the router
issues after a primary failure (a retry is a fresh draw at ``attempt+1``).

Named scenarios live in :data:`SCENARIOS`; the chaos matrix
(``tests/serving/test_chaos_matrix.py``) replays the serving load under
each of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from threading import Lock
from typing import Callable, Sequence

import numpy as np

from repro.common.errors import ShardError, ShardTimeoutError, ValidationError
from repro.common.hashing import stable_hash, stable_unit_float

#: Salt prefixes so fault draws can never collide with other stable hashes.
_DECIDE_SALT = "cleo-fault"
_CORRUPT_SALT = "cleo-fault-corrupt"

#: How a corrupted prediction is poisoned.  ``mixed`` cycles through all
#: three deterministically per faulted call.
CORRUPT_MODES: tuple[str, ...] = ("nan", "inf", "negative", "mixed")


class FaultKind(str, Enum):
    """The injectable failure classes."""

    ERROR = "error"  # the shard call raises
    TIMEOUT = "timeout"  # the shard call exceeds its deadline
    CORRUPT = "corrupt"  # the shard answers with NaN/inf/negative values
    LATENCY = "latency"  # the shard answers correctly, but late


class InjectedFaultError(ShardError):
    """A raised-exception fault produced by the injector."""


class InjectedTimeoutError(ShardTimeoutError):
    """A timeout fault produced by the injector."""


@dataclass(frozen=True)
class FaultPolicy:
    """One reproducible chaos scenario.

    Rates are per shard call (one sub-batch, one-row request, or retry) and
    mutually exclusive: a single unit draw is carved into ``error`` /
    ``timeout`` / ``corrupt`` / ``latency`` bands, so the rates must sum to
    at most 1.  ``shards`` limits the blast radius to the listed shard
    indices (``None`` hits the whole fleet); ``seed`` re-keys every draw.
    """

    name: str = "baseline"
    error_rate: float = 0.0
    timeout_rate: float = 0.0
    corrupt_rate: float = 0.0
    latency_rate: float = 0.0
    latency_spike_s: float = 0.002
    corrupt_mode: str = "mixed"
    shards: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for field_name in ("error_rate", "timeout_rate", "corrupt_rate", "latency_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{field_name} must be in [0, 1], got {rate}")
        if self.total_rate > 1.0 + 1e-12:
            raise ValidationError("fault rates must sum to at most 1")
        if self.latency_spike_s < 0.0:
            raise ValidationError("latency_spike_s must be non-negative")
        if self.corrupt_mode not in CORRUPT_MODES:
            raise ValidationError(
                f"corrupt_mode must be one of {CORRUPT_MODES}, got {self.corrupt_mode!r}"
            )

    @property
    def total_rate(self) -> float:
        return self.error_rate + self.timeout_rate + self.corrupt_rate + self.latency_rate

    @property
    def is_noop(self) -> bool:
        """True when this policy can never inject anything."""
        return self.total_rate == 0.0

    def describe(self) -> str:
        parts = [
            f"{name}={rate:.0%}"
            for name, rate in (
                ("error", self.error_rate),
                ("timeout", self.timeout_rate),
                ("corrupt", self.corrupt_rate),
                ("latency", self.latency_rate),
            )
            if rate > 0.0
        ]
        where = "all shards" if self.shards is None else f"shards {list(self.shards)}"
        return f"FaultPolicy({self.name}: {', '.join(parts) or 'none'} on {where})"


#: The scenarios the chaos matrix replays.  Rates are deliberately
#: aggressive — the point is proving availability stays 1.0 through the
#: degradation ladder, not realism of the mix.
SCENARIOS: dict[str, FaultPolicy] = {
    policy.name: policy
    for policy in (
        FaultPolicy(name="baseline"),
        FaultPolicy(name="latency_spikes", latency_rate=0.15, latency_spike_s=0.002),
        FaultPolicy(name="shard_errors", error_rate=0.10),
        FaultPolicy(name="timeouts", timeout_rate=0.08),
        FaultPolicy(name="corrupt_outputs", corrupt_rate=0.10, corrupt_mode="mixed"),
        FaultPolicy(
            name="mixed_chaos",
            error_rate=0.05,
            timeout_rate=0.04,
            corrupt_rate=0.05,
            latency_rate=0.08,
        ),
    )
}


class FaultInjector:
    """Applies a :class:`FaultPolicy` around per-shard service calls.

    ``token`` identifies the sub-batch (the router passes its size and
    leading template signature) and ``attempt`` the ladder rung, so the
    decision for any call is reproducible regardless of thread
    interleaving — the property that keeps chaos runs bitwise replayable
    under concurrent fan-out.  Injection counts per kind are tracked for
    the chaos matrix.
    """

    def __init__(self, policy: FaultPolicy) -> None:
        self.policy = policy
        self._lock = Lock()
        self._injected: dict[FaultKind, int] = {kind: 0 for kind in FaultKind}

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #

    def decide(
        self, shard: int, cluster: str, token: Sequence[int], attempt: int
    ) -> FaultKind | None:
        """The fault (if any) for one shard call — a pure function."""
        policy = self.policy
        if policy.is_noop:
            return None
        if policy.shards is not None and shard not in policy.shards:
            return None
        draw = stable_unit_float(
            _DECIDE_SALT, policy.seed, shard, cluster, attempt, *token
        )
        edge = policy.error_rate
        if draw < edge:
            return FaultKind.ERROR
        edge += policy.timeout_rate
        if draw < edge:
            return FaultKind.TIMEOUT
        edge += policy.corrupt_rate
        if draw < edge:
            return FaultKind.CORRUPT
        edge += policy.latency_rate
        if draw < edge:
            return FaultKind.LATENCY
        return None

    def invoke(
        self,
        shard: int,
        cluster: str,
        token: Sequence[int],
        attempt: int,
        call: Callable[[], np.ndarray],
    ) -> np.ndarray:
        """Run one shard call under the policy.

        ``call`` must return the sub-batch's prediction array; corrupt
        faults poison a deterministic row of a *copy* (the underlying
        service caches stay clean — corruption models the transport, not
        the model bank).
        """
        kind = self.decide(shard, cluster, token, attempt)
        if kind is None:
            return call()
        with self._lock:
            self._injected[kind] += 1
        if kind is FaultKind.ERROR:
            raise InjectedFaultError(
                f"injected failure on shard {shard} ({cluster})", shard=shard
            )
        if kind is FaultKind.TIMEOUT:
            raise InjectedTimeoutError(
                f"injected timeout on shard {shard} ({cluster})", shard=shard
            )
        if kind is FaultKind.LATENCY:
            if self.policy.latency_spike_s > 0.0:
                time.sleep(self.policy.latency_spike_s)
            return call()
        return self.corrupt(call(), shard, cluster, token)

    def corrupt(
        self, values: np.ndarray, shard: int, cluster: str, token: Sequence[int]
    ) -> np.ndarray:
        """Poison one deterministic row of the sub-batch's predictions."""
        out = np.array(values, dtype=float, copy=True)
        if out.size == 0:
            return out
        digest = stable_hash(_CORRUPT_SALT, self.policy.seed, shard, cluster, *token)
        row = digest % out.size
        mode = self.policy.corrupt_mode
        if mode == "mixed":
            mode = ("nan", "inf", "negative")[(digest >> 32) % 3]
        out[row] = {"nan": float("nan"), "inf": float("inf"), "negative": -1.0}[mode]
        return out

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, int]:
        """Injected-fault counts by kind (plus a total), for reporting."""
        with self._lock:
            counts = {kind.value: count for kind, count in self._injected.items()}
        counts["total"] = sum(counts.values())
        return counts

    def reset_stats(self) -> None:
        with self._lock:
            self._injected = {kind: 0 for kind in FaultKind}

    def describe(self) -> str:
        return f"FaultInjector({self.policy.describe()})"
