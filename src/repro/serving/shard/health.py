"""Per-shard health tracking and circuit breaking for the serving fleet.

Each shard of a :class:`~repro.serving.shard.router.ShardedCleoRouter`
gets a :class:`ShardHealth` tracker: a rolling window of recent call
outcomes plus a three-state circuit breaker.

* **CLOSED** — the shard serves traffic.  ``allow()`` is a pure read in
  this state (no mutation), so the zero-fault serving path stays free of
  shared-state writes and remains bitwise deterministic under fan-out.
* **OPEN** — after ``failure_threshold`` consecutive failures the breaker
  trips: calls are rejected (the router walks the degradation ladder
  instead) for ``cooldown_calls`` logical calls.  Cooldowns are counted in
  calls, not seconds, so chaos runs replay identically at any speed.
* **HALF_OPEN** — after the cooldown, exactly one probe call is admitted;
  success closes the breaker, failure re-opens it for another cooldown.
  A probe that ends in the caller's own input error proves nothing about
  the shard: it is given back (``release()``) with no record, and the next
  call probes instead.

The router records every rung's outcome in one place
(:meth:`~repro.serving.shard.router.ShardedCleoRouter._settle`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from threading import Lock

from repro.common.errors import ModelFileError, ValidationError


class BreakerState(str, Enum):
    """Circuit-breaker states for one shard."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the router's circuit breakers and hedging.

    A breaker opens after ``failure_threshold`` consecutive failures,
    keeps the last ``window`` outcomes for its failure rate, and rejects
    ``cooldown_calls`` calls before it admits a probe.

    ``hedge_threshold_s`` is the latency SLO for hedged requests: when the
    owning shard's injected latency spike would exceed it, the router
    fires the sub-batch at the ring successor *first* (the shared
    read-only bank makes the successor's answer bitwise what the owner's
    would be) instead of waiting out the spike.  ``None`` (the default)
    disables hedging.
    """

    failure_threshold: int = 3
    window: int = 64
    cooldown_calls: int = 16
    hedge_threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValidationError("failure_threshold must be at least 1")
        if self.window < 1:
            raise ValidationError("window must be at least 1")
        if self.cooldown_calls < 1:
            raise ValidationError("cooldown_calls must be at least 1")
        if self.hedge_threshold_s is not None and self.hedge_threshold_s <= 0.0:
            raise ValidationError("hedge_threshold_s must be positive")


#: The router's default breakers, with hedging off.
DEFAULT_RESILIENCE = ResilienceConfig()

#: A breaker snapshot's counters (:meth:`ShardHealth.snapshot`): all
#: non-negative ints.
_SNAPSHOT_COUNTS = (
    "calls",
    "failures",
    "timeouts",
    "consecutive_failures",
    "breaker_opens",
    "breaker_closes",
    "rejected",
    "cooldown_remaining",
)
_STATES = {state.value for state in BreakerState}


@dataclass(frozen=True)
class ShardHealthStats:
    """Point-in-time health snapshot for one shard."""

    shard: int
    state: BreakerState
    calls: int
    failures: int
    timeouts: int
    consecutive_failures: int
    window_failure_rate: float
    breaker_opens: int
    breaker_closes: int
    rejected: int

    def describe(self) -> str:
        return (
            f"shard {self.shard}: {self.state.value}, {self.calls} calls, "
            f"{self.failures} failures ({self.timeouts} timeouts), "
            f"window failure rate {self.window_failure_rate:.1%}, "
            f"{self.breaker_opens} opens / {self.breaker_closes} closes, "
            f"{self.rejected} rejected"
        )


class ShardHealth:
    """Thread-safe health tracker + circuit breaker for one shard."""

    def __init__(self, shard: int, config: ResilienceConfig) -> None:
        self.shard = shard
        self.config = config
        self._lock = Lock()
        self._state = BreakerState.CLOSED
        self._window: deque[bool] = deque(maxlen=config.window)
        self._calls = 0
        self._failures = 0
        self._timeouts = 0
        self._consecutive = 0
        self._opens = 0
        self._closes = 0
        self._rejected = 0
        self._cooldown_remaining = 0
        self._probe_in_flight = False

    # ------------------------------------------------------------------ #
    # Breaker protocol
    # ------------------------------------------------------------------ #

    def allow(self) -> bool:
        """Whether the shard may be called right now.

        CLOSED answers without taking the lock or mutating anything —
        the hot path must not serialize concurrent fan-out workers.
        """
        if self._state is BreakerState.CLOSED:
            return True
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if self._cooldown_remaining > 0:
                    self._cooldown_remaining -= 1
                    self._rejected += 1
                    return False
                self._state = BreakerState.HALF_OPEN
                self._probe_in_flight = True
                return True
            # HALF_OPEN: one probe at a time.
            if self._probe_in_flight:
                self._rejected += 1
                return False
            self._probe_in_flight = True
            return True

    def release(self) -> None:
        """Give back an admitted call that makes no record: a HALF_OPEN
        probe frees its slot for the next call."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False

    def record_success(self) -> None:
        with self._lock:
            self._calls += 1
            self._window.append(True)
            self._consecutive = 0
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._probe_in_flight = False
                self._closes += 1

    def record_failure(self, timeout: bool = False) -> None:
        with self._lock:
            self._calls += 1
            self._failures += 1
            if timeout:
                self._timeouts += 1
            self._window.append(False)
            self._consecutive += 1
            if self._state is BreakerState.HALF_OPEN:
                # The probe failed: re-open for another cooldown.
                self._state = BreakerState.OPEN
                self._probe_in_flight = False
                self._opens += 1
                self._cooldown_remaining = self.config.cooldown_calls
            elif (
                self._state is BreakerState.CLOSED
                and self._consecutive >= self.config.failure_threshold
            ):
                self._state = BreakerState.OPEN
                self._opens += 1
                self._cooldown_remaining = self.config.cooldown_calls

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> BreakerState:
        return self._state

    @property
    def breaker_opens(self) -> int:
        return self._opens

    def stats(self) -> ShardHealthStats:
        with self._lock:
            window = list(self._window)
            rate = (
                (len(window) - sum(window)) / len(window) if window else 0.0
            )
            return ShardHealthStats(
                shard=self.shard,
                state=self._state,
                calls=self._calls,
                failures=self._failures,
                timeouts=self._timeouts,
                consecutive_failures=self._consecutive,
                window_failure_rate=rate,
                breaker_opens=self._opens,
                breaker_closes=self._closes,
                rejected=self._rejected,
            )

    def reset_stats(self) -> None:
        """Zero the counters; breaker state and window are preserved."""
        with self._lock:
            self._calls = 0
            self._failures = 0
            self._timeouts = 0
            self._opens = 0
            self._closes = 0
            self._rejected = 0

    # ------------------------------------------------------------------ #
    # Durable state
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-ready state for persistence across process restarts."""
        with self._lock:
            return {
                "shard": self.shard,
                "state": self._state.value,
                "window": [bool(ok) for ok in self._window],
                "calls": self._calls,
                "failures": self._failures,
                "timeouts": self._timeouts,
                "consecutive_failures": self._consecutive,
                "breaker_opens": self._opens,
                "breaker_closes": self._closes,
                "rejected": self._rejected,
                "cooldown_remaining": self._cooldown_remaining,
            }

    def check_snapshot(self, payload: object) -> None:
        """Raise :class:`~repro.common.errors.ModelFileError` unless
        ``payload`` is a whole, well-typed :meth:`snapshot` of this shard.

        Restoring reads nothing it has not checked here, so a malformed
        snapshot is refused before any field is assigned.
        """

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise ModelFileError(f"breaker snapshot for shard {self.shard}: {what}")

        require(isinstance(payload, dict), "not a JSON object")
        for name in ("shard", *_SNAPSHOT_COUNTS):
            value = payload.get(name)
            require(type(value) is int and value >= 0, f"{name!r} is not a count")
        require(payload["shard"] == self.shard, f"it is shard {payload['shard']}'s")
        state = payload.get("state")
        require(type(state) is str and state in _STATES, f"unknown state {state!r}")
        window = payload.get("window")
        require(
            type(window) is list and all(type(ok) is bool for ok in window),
            "the outcome window is not a list of booleans",
        )

    def restore(self, payload: dict) -> None:
        """Resume from a :meth:`snapshot` taken before a restart.

        Breaker state, cooldown countdown, outcome window, and counters
        all come back; a HALF_OPEN probe that died with the old process is
        *not* restored as in-flight, so the restarted shard re-admits
        exactly one fresh probe instead of deadlocking half-open.  The
        snapshot is checked whole first (:meth:`check_snapshot`): a
        malformed one leaves the breaker as it was.
        """
        self.check_snapshot(payload)
        with self._lock:
            self._state = BreakerState(payload["state"])
            self._window = deque(payload["window"], maxlen=self.config.window)
            self._calls = payload["calls"]
            self._failures = payload["failures"]
            self._timeouts = payload["timeouts"]
            self._consecutive = payload["consecutive_failures"]
            self._opens = payload["breaker_opens"]
            self._closes = payload["breaker_closes"]
            self._rejected = payload["rejected"]
            self._cooldown_remaining = payload["cooldown_remaining"]
            self._probe_in_flight = False
