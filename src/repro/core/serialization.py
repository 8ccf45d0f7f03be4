"""Model serialization: the feedback-loop transport format.

"Once trained, we serialize the models and feed them back to the optimizer.
The models can be served either from a text file, using an additional
compiler flag, or using a web service" (Section 5.1).  This module is that
text-file path: a JSON format that round-trips a full
:class:`~repro.core.model_store.ModelStore` and the combined model, so a
trained Cleo can be persisted by the trainer and loaded by an optimizer
process — bit for bit.

Format version 2
----------------
A model file holds each model kind's run of the store's parameter block
(:class:`~repro.core.model_store.ParameterBlock`), at the kind's own width
and in the store's model order, and the combined FastTree model's node
arrays, each as a column of raw bytes::

    {"format_version": 2,
     "models": {"<kind>": {"count": n, "width": 29 | 31,
                           "nonneg_indices": [...],
                           "signatures": <u8 (n,),
                           "mean": <f8 (n, width), "scale": ..., "coef": ...,
                           "intercept": <f8 (n,), "y_scale": <f8 (n,),
                           "n_samples": <i8 (n,)}, ...},
     "combined": {"base_prediction": x, "learning_rate": x,
                  "log_target": bool, "trees": t,
                  "max_depth": <i8 (t,), "node_count": <i8 (t,),
                  "feature": <i8, "threshold": <f8, "left": <i8,
                  "right": <i8, "value": <f8}}

where ``<f8 (n, width)`` is the base64 text of a little-endian float64
array's bytes in C order (``<u8``/``<i8``: little-endian uint64/int64).
The tree columns concatenate every tree's nodes, ``node_count[i]`` of them
for tree ``i``.  The registry and lifecycle state embed this payload once
per version.

Why raw columns inside JSON: the file stays the paper's text file, readable
by any JSON parser and embeddable as a sub-object, while every parameter
keeps its exact IEEE-754 bits (-0.0, subnormals, 1e300) and neither side
formats or parses a float per parameter — a load decodes each column once
and widens it into the new store's block; no model object is built.  The
explicit little-endian dtypes make the bytes the same on every host.

A load validates the whole payload before it builds any store, and fails
with :class:`~repro.common.errors.ModelFileError` on any defect, so a
corrupt file never leaves a half-restored store or registry behind.  The
one check a build makes is that the raw-space parameters it derives are
finite; a registry or lifecycle state is assigned only once every version
has built.
"""

from __future__ import annotations

import base64
import binascii
import bisect
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.errors import ModelFileError
from repro.core.combined import META_FEATURE_NAMES, CombinedModel
from repro.core.config import SPECIFICITY_ORDER, CleoConfig, ModelKind
from repro.core.learned_model import ParameterColumns
from repro.core.model_store import KIND_WIDTH, RAW, RAW_INTERCEPT, ModelStore, ParameterBlock
from repro.core.predictor import CleoPredictor
from repro.ml.gbm import FastTreeRegressor
from repro.ml.tree import _NO_FEATURE, DecisionTreeRegressor

#: Model files, and the registry and lifecycle state that embed them.
FORMAT_VERSION = 2
#: The quarantine ledger and breaker snapshots (no models inside).
STATE_FORMAT_VERSION = 1

_F8, _I8, _U8 = np.dtype("<f8"), np.dtype("<i8"), np.dtype("<u8")
#: A kind block's per-feature planes and per-model scalars.
_PLANES = ("mean", "scale", "coef")
_SCALARS = ("intercept", "y_scale")


def save_json_atomic(payload: dict[str, Any], path: str | Path) -> Path:
    """Write JSON durably: a temp file in the target directory, fsynced,
    then ``os.replace``d over the destination.

    The write-ahead primitive behind every model file and every piece of
    durable reliability state: a crash at any instant leaves either the old
    file or the new one on disk, never a torn half-write — the invariant
    the lifecycle manager's "no half-published version" recovery contract
    rests on.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def read_json(path: str | Path) -> Any:
    """Parse a model or state file; a file that is not JSON (truncated,
    binary, empty) is a :class:`~repro.common.errors.ModelFileError`."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"{path} is not JSON: {exc}") from None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ModelFileError(message)


def _envelope(
    payload: Any, expected: int = FORMAT_VERSION, what: str = "model"
) -> dict[str, Any]:
    """A model (or reliability-state) payload's top level, version-checked."""
    _require(isinstance(payload, dict), f"a {what} payload must be a JSON object")
    version = payload.get("format_version")
    _require(
        version == expected,
        f"unsupported {what} format version {version!r} (expected {expected})",
    )
    return payload


def _field(block: dict[str, Any], name: str, kind: type) -> Any:
    """``block[name]``, which must be a ``kind`` (a bool is not an int)."""
    value = block.get(name)
    _require(
        isinstance(value, kind) and not (isinstance(value, bool) and kind is int),
        f"field {name!r} is missing or not of type {kind.__name__}",
    )
    return value


def _count(block: dict[str, Any], name: str) -> int:
    value = _field(block, name, int)
    _require(value >= 0, f"field {name!r} is negative")
    return value


def _encode(values: Any, dtype: np.dtype) -> str:
    """A column's base64 text: the bytes of ``values`` as ``dtype``."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _decode(
    block: dict[str, Any], name: str, dtype: np.dtype, shape: tuple[int, ...]
) -> np.ndarray:
    """Column ``name`` as a writable native-order array of ``shape``."""
    try:
        raw = base64.b64decode(_field(block, name, str), validate=True)
    except binascii.Error as exc:
        raise ModelFileError(f"column {name!r} is not base64: {exc}") from None
    expected = dtype.itemsize * math.prod(shape)
    _require(
        len(raw) == expected,
        f"column {name!r} holds {len(raw)} bytes, expected {expected} for shape {shape}",
    )
    column = np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)
    return column.astype(dtype.newbyteorder("="), copy=False)


def _require_finite(name: str, column: np.ndarray) -> None:
    _require(bool(np.isfinite(column).all()), f"column {name!r} holds a non-finite value")


# --------------------------------------------------------------------- #
# Individual models: each kind's run of the parameter block
# --------------------------------------------------------------------- #


def _kind_to_dict(columns: ParameterColumns) -> dict[str, Any]:
    return {
        "count": len(columns.signatures),
        "width": columns.mean.shape[1],
        "nonneg_indices": list(columns.nonneg_indices),
        "signatures": _encode(columns.signatures, _U8),
        **{name: _encode(getattr(columns, name), _F8) for name in _PLANES + _SCALARS},
        "n_samples": _encode(columns.n_samples, _I8),
    }


def _decode_kind(kind_name: str, block: Any) -> tuple[ModelKind, ParameterColumns]:
    try:
        kind = ModelKind(kind_name)
    except ValueError:
        raise ModelFileError(f"unknown model kind {kind_name!r}") from None
    _require(isinstance(block, dict), f"the {kind.value} block is not an object")
    count = _count(block, "count")
    width = KIND_WIDTH[kind]
    _require(
        type(block.get("width")) is int and block["width"] == width,
        f"the {kind.value} block is {block.get('width')!r} wide, expected {width}",
    )
    nonneg = _field(block, "nonneg_indices", list)
    _require(
        all(type(j) is int and 0 <= j < width for j in nonneg),
        f"the {kind.value} block names a feature outside its {width} columns",
    )
    signatures = _decode(block, "signatures", _U8, (count,))
    _require(len(np.unique(signatures)) == count, f"duplicate {kind.value} signatures")
    planes = {name: _decode(block, name, _F8, (count, width)) for name in _PLANES}
    scalars = {name: _decode(block, name, _F8, (count,)) for name in _SCALARS}
    for name, column in {**planes, **scalars}.items():
        _require_finite(name, column)
    _require(
        bool((planes["scale"] > 0).all() and (scalars["y_scale"] > 0).all()),
        f"a {kind.value} model has a scale <= 0",
    )
    n_samples = _decode(block, "n_samples", _I8, (count,))
    _require(bool((n_samples >= 0).all()), f"a {kind.value} model has n_samples < 0")
    columns = ParameterColumns(signatures, tuple(nonneg), **planes, **scalars, n_samples=n_samples)
    return kind, columns


# --------------------------------------------------------------------- #
# FastTree (combined model): every tree's node arrays as columns
# --------------------------------------------------------------------- #


#: A tree's node arrays, in ``DecisionTreeRegressor.node_arrays`` order.
_TREE_COLUMNS = (
    ("feature", _I8),
    ("threshold", _F8),
    ("left", _I8),
    ("right", _I8),
    ("value", _F8),
)


def _forest_to_dict(model: FastTreeRegressor) -> dict[str, Any]:
    arrays = [tree.node_arrays() for tree in model.trees_]
    return {
        "base_prediction": model.base_prediction_,
        "learning_rate": model.learning_rate,
        "log_target": model.log_target,
        "trees": len(arrays),
        "max_depth": _encode([tree.max_depth for tree in model.trees_], _I8),
        "node_count": _encode([len(nodes[0]) for nodes in arrays], _I8),
        **{
            name: _encode(np.concatenate([nodes[i] for nodes in arrays]), dtype)
            for i, (name, dtype) in enumerate(_TREE_COLUMNS)
        },
    }


@dataclass(frozen=True)
class _Forest:
    """The combined model's decoded, validated node columns."""

    base_prediction: float
    learning_rate: float
    log_target: bool
    max_depth: list[int]
    bounds: list[int]  # tree i owns nodes bounds[i] : bounds[i + 1]
    columns: tuple[np.ndarray, ...]  # _TREE_COLUMNS order


def _decode_forest(block: Any) -> _Forest:
    _require(isinstance(block, dict), "the combined block is not an object")
    n_trees = _count(block, "trees")
    _require(n_trees >= 1, "the combined model has no trees")
    base = _field(block, "base_prediction", float)
    rate = _field(block, "learning_rate", float)
    _require(math.isfinite(base), "the combined base prediction is not finite")
    _require(math.isfinite(rate) and rate > 0, "the combined learning rate is not positive")
    log_target = _field(block, "log_target", bool)
    max_depth = _decode(block, "max_depth", _I8, (n_trees,))
    _require(bool((max_depth >= 1).all()), "a combined tree has max_depth < 1")
    node_count = _decode(block, "node_count", _I8, (n_trees,))
    _require(bool((node_count >= 1).all()), "a combined tree has no nodes")
    total = int(node_count.sum())
    columns = tuple(_decode(block, name, dtype, (total,)) for name, dtype in _TREE_COLUMNS)
    feature, threshold, left, right, value = columns
    _require_finite("threshold", threshold)
    _require_finite("value", value)
    # Node i of its tree is a leaf (feature -1, children -1) or splits on a
    # meta feature into two later nodes of the same tree: every walk ends.
    size = np.repeat(node_count, node_count)
    local = np.arange(total) - np.repeat(np.cumsum(node_count) - node_count, node_count)
    leaf = feature == _NO_FEATURE
    _require(
        bool(((feature >= 0) & (feature < len(META_FEATURE_NAMES)) | leaf).all()),
        "a combined tree splits on a feature out of range",
    )
    for child in (left, right):
        _require(
            bool(np.where(leaf, child == -1, (child > local) & (child < size)).all()),
            "a combined tree's child index is out of range",
        )
    return _Forest(
        base_prediction=base,
        learning_rate=rate,
        log_target=log_target,
        max_depth=max_depth.tolist(),
        bounds=[0, *np.cumsum(node_count).tolist()],
        columns=columns,
    )


def _build_forest(forest: _Forest) -> FastTreeRegressor:
    model = FastTreeRegressor(
        n_estimators=len(forest.max_depth),
        learning_rate=forest.learning_rate,
        log_target=forest.log_target,
    )
    model.base_prediction_ = forest.base_prediction
    model.trees_ = []
    for i, max_depth in enumerate(forest.max_depth):
        tree = DecisionTreeRegressor(max_depth=max_depth)
        lo, hi = forest.bounds[i], forest.bounds[i + 1]
        tree._arrays = tuple(column[lo:hi] for column in forest.columns)
        model.trees_.append(tree)
    return model


# --------------------------------------------------------------------- #
# Store / predictor
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Decoded:
    """A predictor payload, validated end to end, before any model exists."""

    kinds: dict[ModelKind, ParameterColumns]
    forest: _Forest | None


def _decode_predictor(payload: Any) -> _Decoded:
    payload = _envelope(payload)
    models = _field(payload, "models", dict)
    combined = payload.get("combined")
    return _Decoded(
        kinds=dict(_decode_kind(name, block) for name, block in models.items()),
        forest=None if combined is None else _decode_forest(combined),
    )


def _build_store(decoded: _Decoded) -> ModelStore:
    """The decoded columns, widened into one block: no model is built.

    Finite stored parameters can still derive non-finite raw-space ones (a
    1e300 mean over a subnormal scale overflows), and those are the
    resource profiles partition exploration reads, so such a file is
    refused, naming the first model that overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        block = ParameterBlock.build(decoded.kinds)
    finite = np.isfinite(block.planes[RAW]).all(axis=1) & np.isfinite(block.scalars[RAW_INTERCEPT])
    if not finite.all():
        row = int(np.argmin(finite))
        k = bisect.bisect_right(block.bounds, row) - 1
        signature = block.signatures[k][row - block.bounds[k]]
        raise ModelFileError(
            f"the {SPECIFICITY_ORDER[k].value} model {signature} derives non-finite "
            "raw-space parameters"
        )
    return ModelStore(block)


def _build_predictor(decoded: _Decoded, config: CleoConfig | None) -> CleoPredictor:
    config = config or CleoConfig()
    store = _build_store(decoded)
    combined = None
    if decoded.forest is not None:
        combined = CombinedModel(store, config=config, regressor=_build_forest(decoded.forest))
        combined._fitted = True
    return CleoPredictor(store=store, combined=combined)


def store_to_dict(store: ModelStore) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "models": {kind.value: _kind_to_dict(store.columns(kind)) for kind in ModelKind},
    }


def store_from_dict(payload: dict[str, Any]) -> ModelStore:
    return _build_store(_decode_predictor(payload))


def predictor_to_dict(predictor: CleoPredictor) -> dict[str, Any]:
    """Serializable form of a trained predictor (store + combined model)."""
    payload: dict[str, Any] = store_to_dict(predictor.store)
    if predictor.combined is not None and predictor.combined.is_fitted:
        regressor = predictor.combined.regressor
        if not isinstance(regressor, FastTreeRegressor):
            raise ModelFileError("only FastTree combined models are serializable")
        payload["combined"] = _forest_to_dict(regressor)
    return payload


def predictor_from_dict(
    payload: dict[str, Any], config: CleoConfig | None = None
) -> CleoPredictor:
    """Inverse of :func:`predictor_to_dict`."""
    return _build_predictor(_decode_predictor(payload), config)


def save_predictor(predictor: CleoPredictor, path: str | Path) -> None:
    """Serialize a trained predictor (store + combined model) to a model
    file, atomically: a crash mid-write leaves the previous file."""
    save_json_atomic(predictor_to_dict(predictor), path)


def load_predictor(path: str | Path, config: CleoConfig | None = None) -> CleoPredictor:
    """Load a predictor previously written by :func:`save_predictor`."""
    return predictor_from_dict(read_json(path), config)


# --------------------------------------------------------------------- #
# Model registry (lifecycle)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _DecodedRegistry:
    versions: list[tuple[_Decoded, int, tuple[int, ...]]]  # (predictor, day, window)
    active: int | None


def registry_to_dict(registry: "ModelRegistry") -> dict[str, Any]:
    """Serializable form of a versioned model registry."""
    from repro.core.lifecycle import ModelRegistry  # local: avoid cycle

    assert isinstance(registry, ModelRegistry)
    return {
        "format_version": FORMAT_VERSION,
        "active_version": registry.active().version if registry.has_active else None,
        "versions": [
            {
                "version": version.version,
                "trained_on_day": version.trained_on_day,
                "window": list(version.window),
                "predictor": predictor_to_dict(version.predictor),
            }
            for version in registry.history()
        ],
    }


def _decode_registry(payload: Any) -> _DecodedRegistry:
    payload = _envelope(payload)
    versions = []
    for entry in _field(payload, "versions", list):
        _require(isinstance(entry, dict), "a registry version is not an object")
        window = _field(entry, "window", list)
        _require(all(type(day) is int for day in window), "a registry window is not days")
        versions.append(
            (
                _decode_predictor(entry.get("predictor")),
                _field(entry, "trained_on_day", int),
                tuple(window),
            )
        )
    active = payload.get("active_version")
    _require(
        active is None or (type(active) is int and 1 <= active <= len(versions)),
        f"active version {active!r} is not a published version",
    )
    return _DecodedRegistry(versions=versions, active=active)


def _build_registry(decoded: _DecodedRegistry, config: CleoConfig | None) -> "ModelRegistry":
    from repro.core.lifecycle import ModelRegistry

    registry = ModelRegistry()
    for predictor, day, window in decoded.versions:
        registry.publish(_build_predictor(predictor, config), day=day, window=window)
    if decoded.active is not None:
        while registry.active().version != decoded.active:
            registry.rollback()
    return registry


def registry_from_dict(
    payload: dict[str, Any], config: CleoConfig | None = None
) -> "ModelRegistry":
    """Inverse of :func:`registry_to_dict` (active version restored); every
    version is validated before the first one is built."""
    return _build_registry(_decode_registry(payload), config)


def save_registry(registry: "ModelRegistry", path: str | Path) -> None:
    """Persist a model registry (all versions + the active pointer),
    atomically."""
    save_json_atomic(registry_to_dict(registry), path)


def load_registry(path: str | Path, config: CleoConfig | None = None) -> "ModelRegistry":
    """Load a registry previously written by :func:`save_registry`."""
    return registry_from_dict(read_json(path), config)


# --------------------------------------------------------------------- #
# Reliability state: quarantine ledger, breaker snapshots, lifecycle
# --------------------------------------------------------------------- #


def quarantine_to_dict(quarantine: "ModelQuarantine") -> dict[str, Any]:
    """Serializable form of a quarantine policy plus its removal ledger."""
    return {
        "format_version": STATE_FORMAT_VERSION,
        "tolerance_factor": quarantine.tolerance_factor,
        "min_observations": quarantine.min_observations,
        "ledger": [
            [kind.value, str(signature)] for kind, signature in quarantine.ledger()
        ],
    }


def quarantine_from_dict(payload: dict[str, Any]) -> "ModelQuarantine":
    """Inverse of :func:`quarantine_to_dict`; replay the ledger with
    :meth:`~repro.core.regression_control.ModelQuarantine.replay`.

    The whole payload is checked first — the version, both policy knobs,
    and every ledger entry's :class:`ModelKind` and 64-bit signature — and
    any defect raises :class:`~repro.common.errors.ModelFileError`."""
    from repro.core.regression_control import ModelQuarantine  # local: cycle

    payload = _envelope(payload, STATE_FORMAT_VERSION, "state")
    tolerance = payload.get("tolerance_factor")
    _require(
        type(tolerance) in (int, float) and math.isfinite(tolerance),
        "the quarantine's tolerance factor is not a finite number",
    )
    min_observations = _count(payload, "min_observations")
    kinds = {kind.value: kind for kind in ModelKind}
    ledger = []
    for entry in _field(payload, "ledger", list):
        _require(
            type(entry) is list and len(entry) == 2 and entry[0] in kinds,
            f"quarantine ledger entry {entry!r} does not name a model kind",
        )
        signature = entry[1]
        _require(
            type(signature) is str
            and signature.isascii()
            and signature.isdigit()
            and int(signature) < 1 << 64,
            f"quarantine ledger entry {entry!r} does not hold a 64-bit signature",
        )
        ledger.append((kinds[entry[0]], int(signature)))
    quarantine = ModelQuarantine(
        tolerance_factor=float(tolerance), min_observations=min_observations
    )
    quarantine.restore_ledger(ledger)
    return quarantine


def health_state_to_dict(snapshots: "list[dict[str, Any]]") -> dict[str, Any]:
    """Versioned envelope over per-shard breaker snapshots
    (:meth:`~repro.serving.shard.health.ShardHealth.snapshot`)."""
    return {
        "format_version": STATE_FORMAT_VERSION,
        "n_shards": len(snapshots),
        "shards": list(snapshots),
    }


def health_state_from_dict(payload: dict[str, Any]) -> "list[dict[str, Any]]":
    """The per-shard snapshots a router restores breakers from.

    Checks the envelope — version, shard count, one snapshot object per
    shard — and raises :class:`~repro.common.errors.ModelFileError` on any
    defect; each snapshot's own fields are
    :meth:`~repro.serving.shard.health.ShardHealth.check_snapshot`'s."""
    payload = _envelope(payload, STATE_FORMAT_VERSION, "state")
    n_shards = _count(payload, "n_shards")
    shards = _field(payload, "shards", list)
    _require(len(shards) == n_shards, "health state is torn: shard count mismatch")
    _require(
        all(isinstance(snapshot, dict) for snapshot in shards),
        "a breaker snapshot must be a JSON object",
    )
    return shards


def lifecycle_state_to_dict(manager: "LifecycleManager") -> dict[str, Any]:
    """Full durable state of a lifecycle manager: the versioned registry
    plus the retrain/drift control state (last train day, armed drift
    trigger, rolling error window, baseline)."""
    return {
        "format_version": FORMAT_VERSION,
        "registry": registry_to_dict(manager.registry),
        "last_train_day": manager._last_train_day,
        "drift_pending": manager._drift_pending,
        "error_window": [float(e) for e in manager._error_window],
        "baseline_error": manager._baseline_error,
    }


def lifecycle_state_apply(
    manager: "LifecycleManager",
    payload: dict[str, Any],
    config: CleoConfig | None = None,
) -> "LifecycleManager":
    """Restore persisted lifecycle state into a fresh manager.

    The registry is rebuilt version by version (active pointer included),
    and the drift machinery resumes exactly where the dead process left
    it: an armed early-retrain trigger or a gate rollback survives the
    restart instead of silently disarming.  The whole payload is validated
    first: a corrupt state file raises
    :class:`~repro.common.errors.ModelFileError` and leaves the manager
    untouched.
    """
    payload = _envelope(payload)
    registry = _decode_registry(payload.get("registry"))
    last_train_day = payload.get("last_train_day")
    _require(
        last_train_day is None or type(last_train_day) is int,
        "the lifecycle state's last train day is not a day",
    )
    drift_pending = _field(payload, "drift_pending", bool)
    error_window = _field(payload, "error_window", list)
    baseline = payload.get("baseline_error")
    numbers = error_window if baseline is None else [*error_window, baseline]
    _require(
        all(type(x) in (int, float) for x in numbers),
        "the lifecycle state's error window or baseline is not numbers",
    )
    manager.registry = _build_registry(registry, config)
    manager._last_train_day = last_train_day
    manager._drift_pending = drift_pending
    manager._error_window.clear()
    manager._error_window.extend(float(e) for e in error_window)
    manager._baseline_error = None if baseline is None else float(baseline)
    return manager
