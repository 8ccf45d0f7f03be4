"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`CleoError`, so callers
can catch one type at an API boundary without masking unrelated bugs.
"""


class CleoError(Exception):
    """Base class for all errors raised by this library."""


class InvalidPlanError(CleoError):
    """A query plan is structurally invalid (bad arity, missing child, ...)."""


class ModelNotTrainedError(CleoError):
    """A prediction was requested from a model that has not been fitted."""


class OptimizationError(CleoError):
    """The optimizer could not produce a physical plan for a logical plan."""


class ValidationError(CleoError):
    """An application-level API was called with inconsistent arguments."""


class FeatureValidationError(ValidationError, ValueError):
    """A serving request carried unusable inputs (NaN/inf features,
    misaligned sequences, missing signature columns).

    Also a ``ValueError`` so pre-existing callers that guarded the serving
    entry points with ``except ValueError`` keep working.
    """


class DataQualityError(ValidationError):
    """A training input was rejected by the data-quality gate.

    Raised when sanitization of a run-log table (NaN/absurd latencies,
    non-finite features, double-appended rows) leaves nothing to train on —
    the typed signal that a poisoned ingestion day needs operator
    attention, as opposed to silently fitting models to garbage.
    """


class ModelFileError(CleoError, ValueError):
    """A model file (or a payload embedding one: registry, lifecycle state)
    cannot be written or restored: wrong format version, malformed JSON,
    a column of the wrong size, duplicate signatures, non-finite
    parameters, a broken tree, or an unfitted model on save.

    Raised before any model is built, so a failed load never leaves a
    half-restored store or registry behind.  Also a ``ValueError`` so
    callers that guarded loads with ``except ValueError`` keep working.
    """


class InjectedCrashError(CleoError):
    """A deterministic mid-pipeline crash produced by chaos injection.

    Models a process death (OOM kill, node loss) at a chosen pipeline
    point; recovery code must treat it as fatal to the in-memory state and
    resume from durable state only.
    """


class ShardError(CleoError):
    """A serving shard failed to answer (raised, timed out, or returned
    corrupt predictions).  ``shard`` names the failing shard when known."""

    def __init__(self, message: str, shard: "int | None" = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardTimeoutError(ShardError):
    """A serving shard exceeded its deadline."""
