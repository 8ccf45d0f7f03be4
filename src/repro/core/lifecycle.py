"""Model lifecycle: versioned registry, retraining cadence, drift control.

Section 5.1 of the paper fixes the feedback loop's cadence empirically:
"a training window of two days and a training frequency of every ten days
results in acceptable accuracy and coverage".  Section 6.7 adds the
operational safeguards used in production: monitor models in
pre-production, discard the ones that regress, and rely on the continuous
feedback loop to self-correct.

This module packages those mechanics:

* :class:`RetrainPolicy` — the knobs (window, frequency, drift trigger);
* :class:`ModelRegistry` — versioned predictor snapshots with rollback,
  the stand-in for the paper's model store "backed by a SQL database";
* :class:`LifecycleManager` — replays a multi-day run log through the
  policy: trains on schedule, publishes versions, scores each day with the
  active version, triggers early retrains on drift, and rolls back
  versions that regress against their predecessor (the Section 6.7
  pre-production check).

The per-day quality series it produces is what the training-window
ablation benchmark sweeps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import TYPE_CHECKING

from repro.common.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.chaos import PipelineChaos
from repro.core.config import CleoConfig
from repro.core.predictor import CleoPredictor
from repro.core.robustness import ModelQuality, evaluate_predictor_on_log
from repro.core.trainer import CleoTrainer
from repro.execution.runtime_log import RunLog


def _scored_rows(day_log: RunLog) -> RunLog | None:
    """The rows of a day the training gate keeps, which the gate and the
    drift detector score (a NaN latency would make every comparison with
    the day's error false); ``None`` when it keeps none."""
    keep, _ = day_log.to_table().sanitize_mask()
    return day_log.keep_rows(keep) if keep.any() else None


@dataclass(frozen=True)
class RetrainPolicy:
    """When and on how much data to retrain.

    Attributes:
        window_days: how many trailing days feed the individual models
            (the paper's choice: 2).
        frequency_days: scheduled days between retrains (the paper: 10).
        drift_threshold_pct: optional early-retrain trigger — retrain the
            next morning whenever a day's median error exceeds this.
        drift_window_days: how many trailing scored days feed the rolling
            drift detector.
        drift_degradation_factor: optional *relative* early-retrain
            trigger — retrain when the rolling median of the last
            ``drift_window_days`` daily median errors exceeds the active
            version's baseline (its first scored day) by this factor.
            Unlike ``drift_threshold_pct`` it needs no absolute error
            budget, so it fires on degradation even for workloads whose
            healthy error level is unknown up front.
        regression_factor: a freshly published version whose first-day
            median error exceeds the previous version's by more than this
            factor is rolled back (Section 6.7's pre-production gate).
    """

    window_days: int = 2
    frequency_days: int = 10
    drift_threshold_pct: float | None = None
    drift_window_days: int = 3
    drift_degradation_factor: float | None = None
    regression_factor: float | None = 2.0

    def __post_init__(self) -> None:
        if self.window_days < 1:
            raise ValidationError("window_days must be >= 1")
        if self.frequency_days < 1:
            raise ValidationError("frequency_days must be >= 1")
        if self.drift_threshold_pct is not None and self.drift_threshold_pct <= 0:
            raise ValidationError("drift_threshold_pct must be positive")
        if self.drift_window_days < 1:
            raise ValidationError("drift_window_days must be >= 1")
        if (
            self.drift_degradation_factor is not None
            and self.drift_degradation_factor <= 1.0
        ):
            raise ValidationError("drift_degradation_factor must exceed 1.0")
        if self.regression_factor is not None and self.regression_factor <= 1.0:
            raise ValidationError("regression_factor must exceed 1.0")


@dataclass(frozen=True)
class ModelVersion:
    """One published predictor snapshot."""

    version: int
    trained_on_day: int
    window: tuple[int, ...]
    predictor: CleoPredictor

    def describe(self) -> str:
        days = ", ".join(str(d) for d in self.window)
        return (
            f"v{self.version} (published day {self.trained_on_day}, "
            f"window [{days}], {self.predictor.model_count} models)"
        )


class ModelRegistry:
    """Versioned predictor snapshots with activation and rollback.

    The paper serves models "either from a text file ... or using a web
    service that is backed by a SQL database"; operationally the registry
    is that store's control plane — every published version is retained so
    a regressing one can be discarded without retraining.
    """

    def __init__(self) -> None:
        self._versions: list[ModelVersion] = []
        self._active: int | None = None

    # ------------------------------------------------------------------ #
    # Publishing and activation
    # ------------------------------------------------------------------ #

    def publish(
        self, predictor: CleoPredictor, day: int, window: tuple[int, ...]
    ) -> ModelVersion:
        """Store a new version and make it active."""
        version = ModelVersion(
            version=len(self._versions) + 1,
            trained_on_day=day,
            window=window,
            predictor=predictor,
        )
        self._versions.append(version)
        self._active = len(self._versions) - 1
        return version

    def active(self) -> ModelVersion:
        if self._active is None:
            raise ValidationError("registry has no published version")
        return self._versions[self._active]

    def rollback(self) -> ModelVersion:
        """Reactivate the version preceding the active one."""
        if self._active is None or self._active == 0:
            raise ValidationError("no earlier version to roll back to")
        self._active -= 1
        return self._versions[self._active]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def version_count(self) -> int:
        return len(self._versions)

    @property
    def has_active(self) -> bool:
        return self._active is not None

    def get(self, version: int) -> ModelVersion:
        for candidate in self._versions:
            if candidate.version == version:
                return candidate
        raise ValidationError(f"unknown version {version}")

    def history(self) -> tuple[ModelVersion, ...]:
        return tuple(self._versions)


@dataclass(frozen=True)
class DayOutcome:
    """One day of the lifecycle replay."""

    day: int
    active_version: int
    quality: ModelQuality
    retrained: bool
    rolled_back: bool

    @property
    def median_error_pct(self) -> float:
        return self.quality.median_error_pct

    @property
    def pearson(self) -> float:
        return self.quality.pearson


@dataclass
class LifecycleManager:
    """Replays a run log through a retraining policy, day by day.

    Each simulated morning the manager decides whether to retrain (by
    schedule or by yesterday's drift), publishes and gates the resulting
    version, and then scores the active version on the day's fresh jobs
    (the rows of them the training gate keeps).  Day scoring is strictly
    out-of-sample: the active version never saw the day it is scored on.

    With ``state_path`` set, the manager is **durable**: after every
    completed step the full lifecycle state (registry versions + active
    pointer, last train day, armed drift trigger, rolling error window,
    baseline) is committed with an atomic temp-file-then-rename write.
    A crash at *any* point mid-step — including between the in-memory
    publish and the gate — leaves the previous step's state on disk, so a
    restarted manager (:meth:`resume`) never observes a half-published
    version: it simply retries the whole day, and the retry's retrain is
    the only one the durable registry ever records.  ``chaos`` injects
    deterministic crashes at named step points to prove exactly that.
    """

    policy: RetrainPolicy = field(default_factory=RetrainPolicy)
    config: CleoConfig | None = None
    registry: ModelRegistry = field(default_factory=ModelRegistry)
    state_path: str | Path | None = None
    chaos: "PipelineChaos | None" = None

    def __post_init__(self) -> None:
        self._trainer = CleoTrainer(self.config)
        self._last_train_day: int | None = None
        self._drift_pending = False
        self._error_window: deque[float] = deque(maxlen=self.policy.drift_window_days)
        self._baseline_error: float | None = None
        if self.state_path is not None:
            self.state_path = Path(self.state_path)

    @classmethod
    def resume(
        cls,
        state_path: str | Path,
        policy: RetrainPolicy | None = None,
        config: CleoConfig | None = None,
        chaos: "PipelineChaos | None" = None,
    ) -> "LifecycleManager":
        """A manager resumed from durable state (fresh when none exists).

        The restart half of the crash-recovery contract: whatever the dead
        process had durably committed — published versions, the active
        pointer (including a gate rollback), an armed drift trigger, the
        rolling error window — is exactly what the resumed manager serves
        and decides from.
        """
        manager = cls(
            policy=policy or RetrainPolicy(),
            config=config,
            state_path=state_path,
            chaos=chaos,
        )
        path = Path(state_path)
        if path.exists():
            from repro.core.serialization import lifecycle_state_apply, read_json

            lifecycle_state_apply(manager, read_json(path), config)
        return manager

    @property
    def trainer(self) -> CleoTrainer:
        """The manager's trainer (exposes the data-quality audit trail)."""
        return self._trainer

    @property
    def drift_pending(self) -> bool:
        """Whether a drift trigger has armed an early retrain."""
        return self._drift_pending

    @property
    def rolling_median_error(self) -> float | None:
        """Median of the last ``drift_window_days`` daily median errors."""
        if not self._error_window:
            return None
        return float(median(self._error_window))

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def run(self, log: RunLog, days: list[int] | None = None) -> list[DayOutcome]:
        """Replay ``days`` (default: all days after the first window).

        The first ``window_days`` days are history used for the initial
        training; outcomes start on the following day.
        """
        all_days = log.days
        if len(all_days) <= self.policy.window_days:
            raise ValidationError(
                f"log must span more than window_days={self.policy.window_days} days"
            )
        score_days = days if days is not None else all_days[self.policy.window_days:]
        outcomes: list[DayOutcome] = []
        for day in score_days:
            outcomes.append(self.step(log, day))
        return outcomes

    def step(self, log: RunLog, day: int) -> DayOutcome:
        """One simulated day: maybe retrain, then score the active version."""
        day_log = log.filter(days=[day])
        if not len(day_log):
            raise ValidationError(f"log has no jobs on day {day}")
        scored = _scored_rows(day_log)

        retrained = False
        rolled_back = False
        if self._should_retrain(day):
            self._crash_check("retrain_start", day)
            window = self._window_for(log, day)
            predictor = self._trainer.train(
                log.filter(days=list(window)),
                individual_days=list(window),
                combined_days=[window[-1]],
            )
            self._crash_check("pre_publish", day)
            previous = self.registry.active() if self.registry.has_active else None
            self.registry.publish(predictor, day, window)
            self._last_train_day = day
            self._drift_pending = False
            retrained = True
            rolled_back = self._gate_new_version(previous, scored)
            if not rolled_back:
                # A fresh version serves: its error level defines a new
                # drift baseline, so yesterday's degraded days must not
                # keep re-triggering retrains.
                self._error_window.clear()
                self._baseline_error = None
            if rolled_back:
                # The fresh version was discarded, so the stale predecessor
                # keeps serving.  Leave the early-retrain trigger armed:
                # without this the rollback also cleared the drift flag and
                # stamped today as the last training day, silencing the
                # trigger that caused the retrain and letting the stale
                # model serve for up to frequency_days — the opposite of
                # the "self-correct on the next cycle" contract.
                self._drift_pending = True
            self._crash_check("post_publish", day)

        if scored is None:
            # Nothing to score: the drift window and baseline skip the day.
            nan = float("nan")
            quality = ModelQuality(f"day{day}", day_log.operator_count, 0, nan, nan, nan)
        else:
            quality = evaluate_predictor_on_log(
                self.registry.active().predictor, scored, name=f"day{day}"
            )
            if (
                self.policy.drift_threshold_pct is not None
                and quality.median_error_pct > self.policy.drift_threshold_pct
            ):
                self._drift_pending = True
            self._track_drift(quality.median_error_pct)
        self._persist()
        return DayOutcome(
            day=day,
            active_version=self.registry.active().version,
            quality=quality,
            retrained=retrained,
            rolled_back=rolled_back,
        )

    # ------------------------------------------------------------------ #
    # Durability and chaos hooks
    # ------------------------------------------------------------------ #

    def _crash_check(self, point: str, day: int) -> None:
        """Raise an injected crash at a named step point, if armed.

        The hooks deliberately run *before* any durable write for their
        point, so a crash can never leave a torn commit — the worst case is
        redoing a day's work, never observing half of it.
        """
        if self.chaos is not None:
            self.chaos.check(point, day)

    def _persist(self) -> None:
        """Commit the full lifecycle state atomically (end of step only)."""
        if self.state_path is None:
            return
        from repro.core.serialization import (
            lifecycle_state_to_dict,
            save_json_atomic,
        )

        save_json_atomic(lifecycle_state_to_dict(self), Path(self.state_path))

    # ------------------------------------------------------------------ #
    # Policy internals
    # ------------------------------------------------------------------ #

    def _track_drift(self, median_error_pct: float) -> None:
        """Feed the rolling drift detector with one scored day.

        The first scored day of an active version sets the baseline (floored
        away from zero so a perfect first day cannot make every later error
        look like drift); once the window is full, a rolling median beyond
        ``baseline * drift_degradation_factor`` arms an early retrain.
        """
        if self._baseline_error is None:
            self._baseline_error = max(float(median_error_pct), 1e-6)
        self._error_window.append(float(median_error_pct))
        factor = self.policy.drift_degradation_factor
        if factor is None:
            return
        if len(self._error_window) < self.policy.drift_window_days:
            return
        if float(median(self._error_window)) > self._baseline_error * factor:
            self._drift_pending = True

    def _should_retrain(self, day: int) -> bool:
        if not self.registry.has_active or self._last_train_day is None:
            return True
        if self._drift_pending:
            return True
        return day - self._last_train_day >= self.policy.frequency_days

    def _window_for(self, log: RunLog, day: int) -> tuple[int, ...]:
        """The trailing ``window_days`` days of data strictly before ``day``."""
        history = [d for d in log.days if d < day]
        if not history:
            raise ValidationError(f"no history before day {day} to train on")
        return tuple(history[-self.policy.window_days:])

    def _gate_new_version(
        self, previous: ModelVersion | None, day_log: RunLog | None
    ) -> bool:
        """Section 6.7 pre-production gate over the day's scored rows;
        returns True when rolled back.  An unscored day cannot regress."""
        if previous is None or self.policy.regression_factor is None or day_log is None:
            return False
        fresh = evaluate_predictor_on_log(
            self.registry.active().predictor, day_log, name="fresh"
        )
        old = evaluate_predictor_on_log(previous.predictor, day_log, name="previous")
        if fresh.median_error_pct > old.median_error_pct * self.policy.regression_factor:
            self.registry.rollback()
            # The rolled-back version stays published (hence inspectable)
            # but inactive; the next scheduled retrain tries again.
            return True
        return False
