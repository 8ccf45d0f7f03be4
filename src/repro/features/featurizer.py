"""Feature extraction for learned cost models.

Implements the paper's feature set:

* **Basic features** (Table 2): input cardinality ``I`` (from children),
  base cardinality ``B`` (leaf inputs), output cardinality ``C``, average
  row length ``L``, partition count ``P``, normalized inputs ``IN``, and
  job parameters ``PM``.
* **Derived features** (Table 3): square roots, logarithms, pairwise
  products, and per-partition variants, grouped as "input/output data",
  "input × output", and "per-partition".
* **Context features**: the number of logical operators ``CL`` and operator
  depth ``D``, added by the operator-input and coarser models (Section 4.2).

Cardinalities fed here are the *estimated* ones (the paper feeds learned
models the same statistics the default cost model sees), so per-template
estimation biases become learnable adjustments.

The registry is **columnar**: every named feature is an expression over
whole columns (`Callable[[columns], np.ndarray]`), evaluated once per
workload on a :class:`~repro.features.table.FeatureTable` instead of once
per operator.  Because an expression only uses elementwise numpy ufuncs, it
computes bit-for-bit the same values whether it is handed a million-row
column or the scalar attributes of a single :class:`FeatureInput` — the
scalar `feature_vector` / `feature_matrix` wrappers below are pinned
bitwise-identical to the columnar path by construction (regression net:
``tests/features/test_feature_table.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.common.hashing import HashCached, stable_unit_float


@dataclass(frozen=True, slots=True)
class FeatureInput(HashCached):
    """Raw statistics of one operator instance.

    Attributes mirror Table 2; ``input_enc`` and ``params_enc`` are numeric
    encodings of the normalized-input template and parameter values.

    Instances are prediction-cache keys, probed several times per request
    and again on every replay of a recurring job, so the field-wise hash is
    computed once per object (:class:`~repro.common.hashing.HashCached`).
    """

    input_card: float  # I
    base_card: float  # B
    output_card: float  # C
    avg_row_bytes: float  # L
    partition_count: float  # P
    input_enc: float = 0.0  # IN
    params_enc: float = 0.0  # PM
    logical_count: float = 1.0  # CL
    depth: float = 1.0  # D

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            # repro: allow(hashseed-hazard) -- nine floats: their hashes are not salted, and the cached value is never persisted, ordered on or compared across processes
            value = hash(
                (
                    self.input_card,
                    self.base_card,
                    self.output_card,
                    self.avg_row_bytes,
                    self.partition_count,
                    self.input_enc,
                    self.params_enc,
                    self.logical_count,
                    self.depth,
                )
            )
            object.__setattr__(self, "_hash", value)
        return value

    def with_partition_count(self, partition_count: float) -> "FeatureInput":
        """Copy with a different ``P`` — used during partition exploration."""
        return replace(self, partition_count=float(partition_count))

    @staticmethod
    def encode_inputs(normalized_inputs: frozenset[str]) -> float:
        """Stable numeric encoding of a normalized input set, in [0, 1)."""
        key = frozenset(normalized_inputs)
        cached = _INPUT_ENC_CACHE.get(key)
        if cached is None:
            if len(_INPUT_ENC_CACHE) >= _INPUT_ENC_CACHE_LIMIT:
                _INPUT_ENC_CACHE.clear()
            cached = stable_unit_float("in-enc", key)
            _INPUT_ENC_CACHE[key] = cached
        return cached

    @staticmethod
    def encode_params(params: tuple[float, ...]) -> float:
        """Numeric encoding of job parameters (mean value; 0 when absent)."""
        if not params:
            return 0.0
        cached = _PARAMS_ENC_CACHE.get(params)
        if cached is None:
            if len(_PARAMS_ENC_CACHE) >= _INPUT_ENC_CACHE_LIMIT:
                _PARAMS_ENC_CACHE.clear()
            # repro: allow(float-reduction) -- reduces one operator's fixed parameter tuple, computed once at featurization time by BOTH the scalar and columnar paths; batch size can never change its grouping
            cached = float(np.mean(params))
            _PARAMS_ENC_CACHE[params] = cached
        return cached


#: Input-set encodings recur across every operator instance of a template,
#: and parameter tuples across every featurization of an operator; the caches
#: skip re-hashing / re-reducing identical keys (values unchanged).  Each
#: clears at the limit so long-running processes stay bounded (entries are
#: pure recomputations).
_INPUT_ENC_CACHE: dict[frozenset[str], float] = {}
_PARAMS_ENC_CACHE: dict[tuple[float, ...], float] = {}
_INPUT_ENC_CACHE_LIMIT = 1 << 18


#: Attribute names consumed by feature expressions, in FeatureInput order.
COLUMN_NAMES: tuple[str, ...] = (
    "input_card",
    "base_card",
    "output_card",
    "avg_row_bytes",
    "partition_count",
    "input_enc",
    "params_enc",
    "logical_count",
    "depth",
)


def _log(x):
    """Elementwise ``log1p(max(x, 0))`` — works on columns and scalars."""
    return np.log1p(np.maximum(x, 0.0))


def _sqrt(x):
    """Elementwise ``sqrt(max(x, 0))`` — works on columns and scalars."""
    return np.sqrt(np.maximum(x, 0.0))


#: A feature expression: any object exposing the COLUMN_NAMES attributes
#: (FeatureTable columns or a single FeatureInput's scalars) -> values.
#: Expressions must use only elementwise operations so that columnar and
#: scalar evaluation are bitwise identical.
FeatureExpr = Callable[[Any], Any]

_ExprSpec = list[tuple[str, FeatureExpr]]

_BASIC: _ExprSpec = [
    ("I", lambda t: t.input_card),
    ("B", lambda t: t.base_card),
    ("C", lambda t: t.output_card),
    ("L", lambda t: t.avg_row_bytes),
    ("P", lambda t: t.partition_count),
    ("IN", lambda t: t.input_enc),
    ("PM", lambda t: t.params_enc),
]

_DERIVED: _ExprSpec = [
    # Input or output data volume.
    ("sqrt(I)", lambda t: _sqrt(t.input_card)),
    ("sqrt(B)", lambda t: _sqrt(t.base_card)),
    ("sqrt(C)", lambda t: _sqrt(t.output_card)),
    ("L*I", lambda t: t.avg_row_bytes * t.input_card),
    ("L*B", lambda t: t.avg_row_bytes * t.base_card),
    ("L*log(B)", lambda t: t.avg_row_bytes * _log(t.base_card)),
    ("L*log(I)", lambda t: t.avg_row_bytes * _log(t.input_card)),
    ("L*log(C)", lambda t: t.avg_row_bytes * _log(t.output_card)),
    # Input x output (processing and network communication).
    ("B*C", lambda t: t.base_card * t.output_card),
    ("I*C", lambda t: t.input_card * t.output_card),
    ("log(B)*C", lambda t: _log(t.base_card) * t.output_card),
    ("B*log(C)", lambda t: t.base_card * _log(t.output_card)),
    ("I*log(C)", lambda t: t.input_card * _log(t.output_card)),
    ("log(I)*log(C)", lambda t: _log(t.input_card) * _log(t.output_card)),
    ("log(B)*log(C)", lambda t: _log(t.base_card) * _log(t.output_card)),
    # Per-partition (partition size seen by one machine).
    ("I/P", lambda t: t.input_card / t.partition_count),
    ("C/P", lambda t: t.output_card / t.partition_count),
    ("I*L/P", lambda t: t.input_card * t.avg_row_bytes / t.partition_count),
    ("C*L/P", lambda t: t.output_card * t.avg_row_bytes / t.partition_count),
    ("sqrt(I)/P", lambda t: _sqrt(t.input_card) / t.partition_count),
    ("sqrt(C)/P", lambda t: _sqrt(t.output_card) / t.partition_count),
    ("log(I)/P", lambda t: _log(t.input_card) / t.partition_count),
]

_CONTEXT: _ExprSpec = [
    ("CL", lambda t: t.logical_count),
    ("D", lambda t: t.depth),
]

#: Public columnar registry: feature name -> vectorized expression, for
#: experiments that build custom feature subsets (e.g. the Figure 18
#: cumulative-feature ablation) on whole tables at once.
FEATURE_EXPRESSIONS: dict[str, FeatureExpr] = {
    name: fn for name, fn in (_BASIC + _DERIVED + _CONTEXT)
}


def _scalarized(expr: FeatureExpr) -> Callable[[FeatureInput], float]:
    return lambda f: float(expr(f))


#: Scalar compatibility registry: feature name -> per-instance extractor.
#: Each entry evaluates the *same* columnar expression on one instance's
#: scalar attributes, so scalar and columnar values agree bitwise.
FEATURE_FUNCTIONS: dict[str, Callable[[FeatureInput], float]] = {
    name: _scalarized(fn) for name, fn in (_BASIC + _DERIVED + _CONTEXT)
}

BASIC_FEATURE_NAMES: tuple[str, ...] = tuple(name for name, _ in _BASIC)
DERIVED_FEATURE_NAMES: tuple[str, ...] = tuple(name for name, _ in _DERIVED)
CONTEXT_FEATURE_NAMES: tuple[str, ...] = tuple(name for name, _ in _CONTEXT)
ALL_FEATURE_NAMES: tuple[str, ...] = (
    BASIC_FEATURE_NAMES + DERIVED_FEATURE_NAMES + CONTEXT_FEATURE_NAMES
)

#: Features that involve the partition count: the only ones that vary during
#: partition exploration (Section 5.3's key insight).
PARTITION_DEPENDENT = frozenset(
    {"P", "I/P", "C/P", "I*L/P", "C*L/P", "sqrt(I)/P", "sqrt(C)/P", "log(I)/P"}
)

#: Features proportional to 1/P (the theta_P family) and to P (theta_C).
INVERSE_P_FEATURES = frozenset(
    {"I/P", "C/P", "I*L/P", "C*L/P", "sqrt(I)/P", "sqrt(C)/P", "log(I)/P"}
)
LINEAR_P_FEATURES = frozenset({"P"})


def feature_names(include_context: bool = False) -> tuple[str, ...]:
    """Feature-vector layout for the given model family."""
    if include_context:
        return ALL_FEATURE_NAMES
    return BASIC_FEATURE_NAMES + DERIVED_FEATURE_NAMES


def expand_columns(columns: Any, include_context: bool = False) -> np.ndarray:
    """Evaluate the feature registry over a column provider.

    ``columns`` is anything exposing the :data:`COLUMN_NAMES` attributes as
    equal-length float64 arrays (a :class:`~repro.features.table.FeatureTable`).
    Returns the ``(n, d)`` derived feature matrix.  The context features are
    a suffix of the full layout, so ``expand_columns(t, True)[:, :29]``
    equals ``expand_columns(t, False)``.
    """
    spec = _BASIC + _DERIVED + (_CONTEXT if include_context else [])
    n = len(columns.input_card)
    if n == 0:
        return np.empty((0, len(spec)))
    out = np.empty((n, len(spec)), dtype=float)
    for j, (_, expr) in enumerate(spec):
        out[:, j] = expr(columns)
    return out


class _InputColumns:
    """Column view over a list of FeatureInput (the scalar-API bridge)."""

    __slots__ = COLUMN_NAMES

    def __init__(self, inputs: list[FeatureInput]) -> None:
        for name in COLUMN_NAMES:
            setattr(
                self, name, np.array([getattr(f, name) for f in inputs], dtype=float)
            )


def feature_vector(f: FeatureInput, include_context: bool = False) -> np.ndarray:
    """Expand one :class:`FeatureInput` into the derived feature vector.

    Thin compatibility wrapper over the columnar registry (one-row table);
    bitwise identical to the corresponding :func:`expand_columns` row.
    """
    return expand_columns(_InputColumns([f]), include_context)[0]


def feature_matrix(inputs: list[FeatureInput], include_context: bool = False) -> np.ndarray:
    """Stack feature vectors for many instances into an (n, d) matrix.

    Thin compatibility wrapper over the columnar registry: inputs are packed
    into columns once and expanded with one vectorized pass per feature.
    """
    if not inputs:
        width = len(feature_names(include_context))
        return np.empty((0, width))
    return expand_columns(_InputColumns(list(inputs)), include_context)


def partition_feature_names(include_context: bool = False) -> tuple[tuple[int, str], ...]:
    """(index, name) of partition-dependent features, for resource profiles."""
    names = feature_names(include_context)
    return tuple((i, n) for i, n in enumerate(names) if n in PARTITION_DEPENDENT)
