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

The registry is **columnar**: every feature is declared once, by its name,
and that declaration yields both a per-feature expression over whole
columns (:data:`FEATURE_EXPRESSIONS`, also evaluable on the scalar
attributes of one :class:`FeatureInput`) and the fused pass
:func:`expand_columns` that computes the whole matrix of a
:class:`~repro.features.table.FeatureTable` in a handful of 2-D numpy
calls.  Both use only elementwise ufuncs in the same order, so they agree
bit for bit whether handed a million rows or one (regression nets:
``tests/features/test_feature_table.py`` and
``tests/features/test_fused_expansion.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable

import numpy as np

from repro.common.hashing import stable_unit_float


@dataclass(frozen=True, slots=True)
class FeatureInput:
    """Raw statistics of one operator instance.

    Attributes mirror Table 2; ``input_enc`` and ``params_enc`` are numeric
    encodings of the normalized-input template and parameter values.
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


#: Each column's Table 2 symbol, in COLUMN_NAMES order.
_SYMBOLS: tuple[str, ...] = ("I", "B", "C", "L", "P", "IN", "PM", "CL", "D")
_P = _SYMBOLS.index("P")

_ROW = attrgetter(*COLUMN_NAMES)


def feature_rows(inputs: Iterable[FeatureInput]) -> np.ndarray:
    """The ``(n, 9)`` float64 array of some inputs: one row per input,
    columns in :data:`COLUMN_NAMES` order (a feature table's storage).
    Streamed, so a run log's worth of rows builds no list of tuples."""
    values = np.fromiter(chain.from_iterable(map(_ROW, inputs)), dtype=float)
    return values.reshape(-1, len(COLUMN_NAMES))


def _log(x):
    """Elementwise ``log1p(max(x, 0))`` — works on columns and scalars."""
    return np.log1p(np.maximum(x, 0.0))


def _sqrt(x):
    """Elementwise ``sqrt(max(x, 0))`` — works on columns and scalars."""
    return np.sqrt(np.maximum(x, 0.0))


_TRANSFORMS = {"sqrt": _sqrt, "log": _log}

# Every feature is declared once, by its Table 2/3 name, and the name is the
# formula: one or two ``*``-separated factors — a column symbol, or
# ``sqrt(X)`` / ``log(X)`` of one — optionally followed by ``/P``.  It
# evaluates left to right (``I*L/P`` is ``(I * L) / P``), both in the
# per-feature expressions and in the fused expansion, so the two agree bit
# for bit.
BASIC_FEATURE_NAMES: tuple[str, ...] = ("I", "B", "C", "L", "P", "IN", "PM")
DERIVED_FEATURE_NAMES: tuple[str, ...] = (
    # Input or output data volume.
    "sqrt(I)", "sqrt(B)", "sqrt(C)", "L*I", "L*B", "L*log(B)", "L*log(I)", "L*log(C)",
    # Input x output (processing and network communication).
    "B*C", "I*C", "log(B)*C", "B*log(C)", "I*log(C)", "log(I)*log(C)", "log(B)*log(C)",
    # Per-partition (partition size seen by one machine).
    "I/P", "C/P", "I*L/P", "C*L/P", "sqrt(I)/P", "sqrt(C)/P", "log(I)/P",
)
CONTEXT_FEATURE_NAMES: tuple[str, ...] = ("CL", "D")
ALL_FEATURE_NAMES: tuple[str, ...] = (
    BASIC_FEATURE_NAMES + DERIVED_FEATURE_NAMES + CONTEXT_FEATURE_NAMES
)

#: A factor: ``(transform name or None, column index)``.
_Factor = tuple["str | None", int]


def _parse(name: str) -> tuple[tuple[_Factor, ...], bool]:
    """``(factors, divided by P)`` of one feature name."""
    per_partition = name.endswith("/P")
    factors: list[_Factor] = []
    for token in (name[:-2] if per_partition else name).split("*"):
        transform, _, symbol = token.rstrip(")").rpartition("(")
        if transform and transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform in feature {name!r}")
        factors.append((transform or None, _SYMBOLS.index(symbol)))
    if len(factors) > 2:
        raise ValueError(f"feature {name!r} has more than two factors")
    return tuple(factors), per_partition


_PARSED = {name: _parse(name) for name in ALL_FEATURE_NAMES}

#: Features proportional to 1/P (the theta_P family) and to P (theta_C).
INVERSE_P_FEATURES = frozenset(name for name, (_, per_p) in _PARSED.items() if per_p)
LINEAR_P_FEATURES = frozenset({"P"})

#: Features that involve the partition count: the only ones that vary during
#: partition exploration (Section 5.3's key insight).
PARTITION_DEPENDENT = INVERSE_P_FEATURES | LINEAR_P_FEATURES

#: A feature expression: any object exposing the COLUMN_NAMES attributes
#: (FeatureTable columns or a single FeatureInput's scalars) -> values.
#: Expressions use only elementwise operations so that columnar and scalar
#: evaluation are bitwise identical.
FeatureExpr = Callable[[Any], Any]


def _expression(name: str) -> FeatureExpr:
    factors, per_partition = _PARSED[name]

    def factor(t, transform: str | None, column: int):
        value = getattr(t, COLUMN_NAMES[column])
        return value if transform is None else _TRANSFORMS[transform](value)

    def expr(t):
        value = factor(t, *factors[0])
        if len(factors) == 2:
            value = value * factor(t, *factors[1])
        if per_partition:
            value = value / t.partition_count
        return value

    return expr


#: Public columnar registry: feature name -> vectorized expression, for
#: experiments that build custom feature subsets (e.g. the Figure 18
#: cumulative-feature ablation) on whole tables at once.
FEATURE_EXPRESSIONS: dict[str, FeatureExpr] = {
    name: _expression(name) for name in ALL_FEATURE_NAMES
}


def _scalarized(expr: FeatureExpr) -> Callable[[FeatureInput], float]:
    return lambda f: float(expr(f))


#: Scalar compatibility registry: feature name -> per-instance extractor.
#: Each entry evaluates the *same* columnar expression on one instance's
#: scalar attributes, so scalar and columnar values agree bitwise.
FEATURE_FUNCTIONS: dict[str, Callable[[FeatureInput], float]] = {
    name: _scalarized(fn) for name, fn in FEATURE_EXPRESSIONS.items()
}


def feature_names(include_context: bool = False) -> tuple[str, ...]:
    """Feature-vector layout for the given model family."""
    if include_context:
        return ALL_FEATURE_NAMES
    return BASIC_FEATURE_NAMES + DERIVED_FEATURE_NAMES


#: Rows expanded per pass: bounds the scratch block on training-size tables.
_BLOCK_ROWS = 4096


class _Expansion:
    """The fused evaluation of one feature layout, compiled from its names.

    A pass fills one slot-major scratch block (one contiguous row of values
    per slot), several slots per numpy call: the nine columns; ``sqrt`` and
    ``log`` of every transformed column (one clip, one call each); every
    two-factor product (one multiply); every ``/P`` ratio (one divide).
    One gather and one transposing copy then lay the features out in
    order.  Each value goes through the same elementwise operations, in
    the same order, as its declared expression, and every operand is
    contiguous — the loops a single column's expression runs.
    """

    def __init__(self, names: tuple[str, ...]) -> None:
        parsed = [_PARSED[name] for name in names]
        atoms = len(COLUMN_NAMES)
        self.transformed = np.array(
            sorted({j for factors, _ in parsed for t, j in factors if t is not None})
        )
        k = len(self.transformed)
        slot: dict[_Factor, int] = {(None, j): j for j in range(atoms)}
        for i, j in enumerate(self.transformed.tolist()):
            slot[("sqrt", j)] = atoms + i
            slot[("log", j)] = atoms + k + i
        #: Scratch slot ranges: [columns | sqrt | log | products | ratios].
        self.sqrt_slots = slice(atoms, atoms + k)
        self.log_slots = slice(atoms + k, atoms + 2 * k)
        left: list[int] = []
        right: list[int] = []
        value: list[int] = []  # each feature's slot before any /P
        for factors, _ in parsed:
            if len(factors) == 1:
                value.append(slot[factors[0]])
            else:
                value.append(atoms + 2 * k + len(left))
                left.append(slot[factors[0]])
                right.append(slot[factors[1]])
        start = atoms + 2 * k
        self.product_slots = slice(start, start + len(left))
        self.left, self.right = np.array(left), np.array(right)
        ratios = [i for i, (_, per_p) in enumerate(parsed) if per_p]
        start = self.product_slots.stop
        self.ratio_slots = slice(start, start + len(ratios))
        self.numerators = np.array([value[i] for i in ratios])
        for r, i in enumerate(ratios):
            value[i] = start + r
        self.order = np.array(value)
        self.n_slots = self.ratio_slots.stop

    def __call__(self, features: np.ndarray) -> np.ndarray:
        n = len(features)
        out = np.empty((n, len(self.order)), dtype=float)
        for start in range(0, n, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            out[start:stop] = self._scratch(features[start:stop].T)[self.order].T
        return out

    def _scratch(self, columns: np.ndarray) -> np.ndarray:
        values = np.empty((self.n_slots, columns.shape[1]), dtype=float)
        values[: len(COLUMN_NAMES)] = columns
        clipped = np.maximum(columns[self.transformed], 0.0)
        np.sqrt(clipped, out=values[self.sqrt_slots])
        np.log1p(clipped, out=values[self.log_slots])
        np.multiply(values[self.left], values[self.right], out=values[self.product_slots])
        np.divide(values[self.numerators], values[_P], out=values[self.ratio_slots])
        return values


_EXPANSIONS = {
    include_context: _Expansion(feature_names(include_context))
    for include_context in (False, True)
}


def expand_columns(features: np.ndarray, include_context: bool = False) -> np.ndarray:
    """The ``(n, d)`` derived feature matrix of ``(n, 9)`` feature rows.

    ``features`` holds one row per operator, columns in
    :data:`COLUMN_NAMES` order (a :class:`~repro.features.table.
    FeatureTable`'s ``features``).  Bitwise identical to evaluating every
    :data:`FEATURE_EXPRESSIONS` entry on the columns.  The context features
    are a suffix of the full layout, so ``expand_columns(x, True)[:, :29]``
    equals ``expand_columns(x, False)``.
    """
    return _EXPANSIONS[include_context](features)


def feature_vector(f: FeatureInput, include_context: bool = False) -> np.ndarray:
    """Expand one :class:`FeatureInput` into the derived feature vector:
    the matching :func:`expand_columns` row, bit for bit."""
    return expand_columns(feature_rows([f]), include_context)[0]


def feature_matrix(inputs: list[FeatureInput], include_context: bool = False) -> np.ndarray:
    """Stack feature vectors for many instances into an (n, d) matrix:
    the inputs are packed once and expanded in one fused pass."""
    return expand_columns(feature_rows(inputs), include_context)


def partition_feature_names(include_context: bool = False) -> tuple[tuple[int, str], ...]:
    """(index, name) of partition-dependent features, for resource profiles."""
    names = feature_names(include_context)
    return tuple((i, n) for i, n in enumerate(names) if n in PARTITION_DEPENDENT)
