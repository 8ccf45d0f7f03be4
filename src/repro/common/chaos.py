"""Deterministic chaos for the training and lifecycle pipeline.

PR 8's :mod:`repro.serving.faults` made *serving* failures injectable and
bitwise-replayable; this module extends the same substrate to the other
half of the paper's production loop (Section 6): the ingestion and
retraining path.  Two fault families:

* **Poisoned run logs** — :class:`RunLogPoisoner` rewrites a
  :class:`~repro.execution.runtime_log.RunLog` with the corruptions a real
  telemetry pipeline produces: NaN latencies (a lost counter), absurd
  outlier latencies (a unit bug or stuck clock), double-appended rows (an
  at-least-once writer retrying), and dropped rows.  The trainer's
  sanitization gate must detect and excise these (see
  :meth:`repro.features.table.FeatureTable.sanitize_mask`).
* **Mid-pipeline crashes** — :class:`PipelineChaos` raises
  :class:`~repro.common.errors.InjectedCrashError` at named lifecycle
  points ("retrain_start", "pre_publish", "post_publish"), modeling a
  process death mid-retrain; :class:`~repro.core.lifecycle.
  LifecycleManager` must recover from durable state without ever exposing
  a half-published version.

Every decision is a pure function of ``(policy seed, day, job id, row
index)`` or ``(policy seed, point, day)`` through
:func:`repro.common.hashing.stable_unit_float` — no RNG, no wall clock, no
per-process hash salt — so a chaos run is a regression test, not a dice
roll, and replays bitwise across processes and ``PYTHONHASHSEED``s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from threading import Lock

import numpy as np

from repro.common.errors import InjectedCrashError, ValidationError
from repro.common.hashing import stable_unit_float
from repro.execution.runtime_log import JobRecord, OperatorRows, RunLog, block_runs

#: Salt prefixes so pipeline-chaos draws never collide with serving faults.
_POISON_SALT = "cleo-chaos-poison"
_CRASH_SALT = "cleo-chaos-crash"

#: The poison kinds, in band-carving order (see PoisonPolicy).
POISON_KINDS: tuple[str, ...] = ("nan", "outlier", "duplicate", "drop")

#: Lifecycle points where a crash can be injected, in step order.
CRASH_POINTS: tuple[str, ...] = ("retrain_start", "pre_publish", "post_publish")


@dataclass(frozen=True)
class PoisonPolicy:
    """One reproducible run-log corruption mix.

    Rates are per operator row and mutually exclusive: a single unit draw
    is carved into ``nan`` / ``outlier`` / ``duplicate`` / ``drop`` bands,
    so they must sum to at most 1.  ``days`` limits the blast radius to the
    listed days (``None`` poisons every day); ``seed`` re-keys every draw.
    ``outlier_factor`` must push latencies beyond the serving layer's
    physical clamp (1e7 s) for typical workloads, or the outlier is
    indistinguishable from a legitimately slow operator.
    """

    name: str = "clean"
    nan_rate: float = 0.0
    outlier_rate: float = 0.0
    duplicate_rate: float = 0.0
    drop_rate: float = 0.0
    outlier_factor: float = 1e9
    days: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for field_name in ("nan_rate", "outlier_rate", "duplicate_rate", "drop_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{field_name} must be in [0, 1], got {rate}")
        if self.total_rate > 1.0 + 1e-12:
            raise ValidationError("poison rates must sum to at most 1")
        if self.outlier_factor <= 1.0:
            raise ValidationError("outlier_factor must exceed 1.0")

    @property
    def total_rate(self) -> float:
        return self.nan_rate + self.outlier_rate + self.duplicate_rate + self.drop_rate

    @property
    def is_noop(self) -> bool:
        return self.total_rate == 0.0

    def describe(self) -> str:
        parts = [
            f"{kind}={rate:.0%}"
            for kind, rate in (
                ("nan", self.nan_rate),
                ("outlier", self.outlier_rate),
                ("duplicate", self.duplicate_rate),
                ("drop", self.drop_rate),
            )
            if rate > 0.0
        ]
        where = "all days" if self.days is None else f"days {list(self.days)}"
        return f"PoisonPolicy({self.name}: {', '.join(parts) or 'none'} on {where})"


#: Named poison scenarios (the chaos matrix trains through ``poisoned_runlog``).
POISON_SCENARIOS: dict[str, PoisonPolicy] = {
    policy.name: policy
    for policy in (
        PoisonPolicy(name="clean"),
        PoisonPolicy(
            name="poisoned_runlog",
            nan_rate=0.08,
            outlier_rate=0.05,
            duplicate_rate=0.05,
            drop_rate=0.03,
        ),
        PoisonPolicy(name="nan_storm", nan_rate=0.25),
        PoisonPolicy(name="duplicate_writer", duplicate_rate=0.20),
    )
}


class RunLogPoisoner:
    """Applies a :class:`PoisonPolicy` to a run log, row by row.

    The poisoned log is a *new* :class:`RunLog` over new row blocks (the
    input log is never mutated): NaN and outlier rows replace the row's
    ``actual_latency``, duplicate rows append an exact copy immediately
    after the original (the at-least-once double-write shape — adjacency
    is what the trainer's excision rule keys on), and dropped rows are
    omitted.  Job-level records keep their original summary fields; the
    corruption models the operator-row telemetry channel.
    """

    def __init__(self, policy: PoisonPolicy) -> None:
        self.policy = policy

    def decide(self, day: int, job_id: str, op_index: int) -> str | None:
        """The poison kind (if any) for one operator row — a pure function."""
        policy = self.policy
        if policy.is_noop:
            return None
        if policy.days is not None and day not in policy.days:
            return None
        draw = stable_unit_float(_POISON_SALT, policy.seed, day, job_id, op_index)
        edge = 0.0
        for kind, rate in zip(
            POISON_KINDS,
            (
                policy.nan_rate,
                policy.outlier_rate,
                policy.duplicate_rate,
                policy.drop_rate,
            ),
        ):
            edge += rate
            if draw < edge:
                return kind
        return None

    def poison(self, log: RunLog) -> tuple[RunLog, dict[str, int]]:
        """A poisoned copy of ``log`` plus per-kind injection counts.

        Each run of consecutive jobs that share a row block becomes one new
        block: a single ``take`` of the surviving rows (duplicates taken
        twice), then the NaN and outlier latencies written into its copy.
        """
        counts = {kind: 0 for kind in POISON_KINDS}
        jobs: list[JobRecord] = []
        for block, run in block_runs(log.jobs):
            rows: list[int] = []
            nan_at: list[int] = []
            outlier_at: list[int] = []
            spans: list[tuple[int, int]] = []
            for job in run:
                first = len(rows)
                operators = job.operators
                for op_index, row in enumerate(range(operators.start, operators.stop)):
                    kind = self.decide(job.day, job.job_id, op_index)
                    if kind is None:
                        rows.append(row)
                        continue
                    counts[kind] += 1
                    if kind == "nan":
                        nan_at.append(len(rows))
                    elif kind == "outlier":
                        outlier_at.append(len(rows))
                    elif kind == "duplicate":
                        rows.append(row)
                    else:  # drop
                        continue
                    rows.append(row)
                spans.append((first, len(rows)))
            poisoned = block.take(np.array(rows, dtype=np.int64))
            latency = poisoned.table.latency
            latency[outlier_at] = latency[outlier_at] * self.policy.outlier_factor
            latency[nan_at] = float("nan")
            jobs.extend(
                dataclass_replace(job, operators=OperatorRows(poisoned, start, stop))
                for job, (start, stop) in zip(run, spans)
            )
        counts["total"] = sum(counts.values())
        return RunLog(jobs=jobs), counts

    def describe(self) -> str:
        return f"RunLogPoisoner({self.policy.describe()})"


@dataclass(frozen=True)
class CrashPolicy:
    """Where and when the lifecycle pipeline crashes.

    ``points`` names the :data:`CRASH_POINTS` that may fire; ``days``
    limits to the listed days (``None`` means any day); ``rate`` is the
    per-``(point, day)`` crash probability (1.0 crashes deterministically
    on the first visit).
    """

    name: str = "none"
    points: tuple[str, ...] = ()
    days: tuple[int, ...] | None = None
    rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        unknown = [p for p in self.points if p not in CRASH_POINTS]
        if unknown:
            raise ValidationError(
                f"unknown crash points {unknown}; have {list(CRASH_POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValidationError(f"rate must be in [0, 1], got {self.rate}")

    def describe(self) -> str:
        where = "any day" if self.days is None else f"days {list(self.days)}"
        return (
            f"CrashPolicy({self.name}: {list(self.points) or 'nowhere'} "
            f"at {self.rate:.0%} on {where})"
        )


class PipelineChaos:
    """Deterministic crash injection for lifecycle steps.

    ``check(point, day)`` raises :class:`InjectedCrashError` exactly once
    per ``(point, day)`` the policy selects: the first visit crashes (the
    process dies mid-step), and a later visit — the restarted process
    retrying the same day from durable state — succeeds, the way a
    transient OOM or node loss behaves.  ``decide`` stays pure so replays
    are content-keyed; only the crash-once memory is stateful.
    """

    def __init__(self, policy: CrashPolicy) -> None:
        self.policy = policy
        self._lock = Lock()
        self._fired: set[tuple[str, int]] = set()

    def decide(self, point: str, day: int) -> bool:
        """Whether this (point, day) is crash-selected — a pure function."""
        policy = self.policy
        if point not in policy.points:
            return False
        if policy.days is not None and day not in policy.days:
            return False
        if policy.rate >= 1.0:
            return True
        return (
            stable_unit_float(_CRASH_SALT, policy.seed, point, day) < policy.rate
        )

    def check(self, point: str, day: int) -> None:
        """Crash here once, if the policy selects this (point, day)."""
        if not self.decide(point, day):
            return
        with self._lock:
            if (point, day) in self._fired:
                return
            self._fired.add((point, day))
        raise InjectedCrashError(
            f"injected crash at {point!r} on day {day}"
        )

    def stats(self) -> dict[str, int]:
        """Crashes fired so far, keyed ``point@day``, plus a total."""
        with self._lock:
            fired = sorted(self._fired)
        counts: dict[str, int] = {f"{point}@{day}": 1 for point, day in fired}
        counts["total"] = len(fired)
        return counts

    def describe(self) -> str:
        return f"PipelineChaos({self.policy.describe()})"
