"""Columnar feature storage: the struct-of-arrays behind the fast paths.

A :class:`FeatureTable` holds every row's nine :class:`FeatureInput`
attributes (I/B/C/L/P/IN/PM/CL/D) in one ``(n, 9)`` float64 array, plus,
when built from a run log, the four model signatures (one ``(n, 4)`` uint64
array), actual latencies, day, cluster, and ad-hoc flags — everything the
training and evaluation pipelines consume, materialized in one pass over
the records.

Downstream layers operate on whole columns:

* :meth:`FeatureTable.feature_matrix` expands the derived feature matrix in
  a handful of 2-D passes (:func:`~repro.features.featurizer.expand_columns`,
  bitwise identical to per-row
  :func:`~repro.features.featurizer.feature_vector` expansion);
* :meth:`FeatureTable.signature_column` exposes the signature arrays that
  the trainer groups with ``argsort``/``unique`` instead of per-record
  dict appends;
* :meth:`FeatureTable.row_keys` turns every row into its prediction-cache
  key in one pass;
* ``latency`` / ``day`` / ``is_adhoc`` feed training targets and splits.

Tables are immutable by convention: a run log's
:class:`~repro.execution.runtime_log.OperatorBlock` holds one, and
:meth:`~repro.execution.runtime_log.RunLog.to_table` may hand it (or the
table it gathered) out again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.common.errors import FeatureValidationError
from repro.features.featurizer import (
    COLUMN_NAMES,
    FeatureInput,
    expand_columns,
    feature_rows,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.execution.runtime_log import OperatorRecord
    from repro.plan.signatures import SignatureBundle

#: Signature column names, mirroring SignatureBundle's fields.
SIGNATURE_NAMES: tuple[str, ...] = ("strict", "approx", "input", "operator")

#: The longest latency a single operator row can legitimately report,
#: mirroring the serving layer's prediction clamp (``_MAX_PREDICT_SECONDS``
#: in :mod:`repro.core.learned_model`, ~116 days).  Anything beyond it is
#: telemetry corruption (a unit bug, a stuck clock), not a slow operator.
MAX_SANE_LATENCY_S = 1e7

_SIGNATURE_INDEX = {name: j for j, name in enumerate(SIGNATURE_NAMES)}
_P = COLUMN_NAMES.index("partition_count")

#: One row's cache key: its nine features' float64 bits, then its four
#: signatures' uint64 bits (13 x 8 = 104 bytes, native byte order).
_ROW_KEY = np.dtype((np.void, 8 * (len(COLUMN_NAMES) + len(SIGNATURE_NAMES))))


def _empty_f8() -> np.ndarray:
    return np.empty(0, dtype=float)


def signature_rows(bundles: "Iterable[SignatureBundle]") -> np.ndarray:
    """The ``(n, 4)`` uint64 array of some bundles, columns in
    :data:`SIGNATURE_NAMES` order (a bundle is that row, as a tuple)."""
    values = np.fromiter(chain.from_iterable(bundles), np.uint64)
    return values.reshape(-1, len(SIGNATURE_NAMES))


class _Column:
    """One named feature column: a view into the table's ``features``."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.index = COLUMN_NAMES.index(name)

    def __get__(self, table: "FeatureTable | None", owner: type | None = None):
        if table is None:
            return self
        return table.features[:, self.index]


@dataclass(frozen=True)
class FeatureTable:
    """Struct-of-arrays over operator instances.

    ``features`` is the only feature storage: ``input_card`` ... ``depth``
    are views of its columns, so a write through one lands in the array
    that expansion, validation, row keys and gathers all read.  Signature
    and outcome columns are absent (``None`` / empty) when the table was
    built from bare :class:`FeatureInput` objects rather than logged
    records.
    """

    #: ``(n, 9)`` float64, one row per operator, columns in
    #: :data:`~repro.features.featurizer.COLUMN_NAMES` order.
    features: np.ndarray
    #: ``(n, 4)`` uint64, columns in :data:`SIGNATURE_NAMES` order; ``None``
    #: when absent.
    signatures: np.ndarray | None = None
    #: Actual exclusive latencies (the learning target), empty when absent.
    latency: np.ndarray = field(default_factory=_empty_f8)
    day: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cluster: tuple[str, ...] = ()
    is_adhoc: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    input_card = _Column()
    base_card = _Column()
    output_card = _Column()
    avg_row_bytes = _Column()
    partition_count = _Column()
    input_enc = _Column()
    params_enc = _Column()
    logical_count = _Column()
    depth = _Column()

    def __len__(self) -> int:
        return len(self.features)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_inputs(
        cls,
        inputs: Sequence[FeatureInput],
        bundles: "Sequence[SignatureBundle] | None" = None,
    ) -> "FeatureTable":
        """Pack feature inputs (and optionally their signatures): one array
        each."""
        features = feature_rows(inputs)
        signatures = None
        if bundles is not None:
            signatures = signature_rows(bundles)
            if len(signatures) != len(features):
                raise FeatureValidationError("inputs and bundles must align")
        return cls(features, signatures)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple[float, ...]],
        bundles: "Iterable[SignatureBundle]",
    ) -> "FeatureTable":
        """A signature-bearing table from raw feature rows (nine values
        each, in :data:`~repro.features.featurizer.COLUMN_NAMES` order, see
        :func:`~repro.features.extract.feature_row`) and their bundles: one
        array each, no :class:`FeatureInput` per row."""
        width = len(COLUMN_NAMES)
        features = np.fromiter(chain.from_iterable(rows), float, len(rows) * width)
        features = features.reshape(len(rows), width)
        signatures = signature_rows(bundles)
        if len(signatures) != len(features):
            raise FeatureValidationError("rows and bundles must align")
        return cls(features, signatures)

    @classmethod
    def from_records(cls, records: "Sequence[OperatorRecord]") -> "FeatureTable":
        """Materialize every column from operator records in one pass."""
        records = list(records)
        n = len(records)
        return cls(
            features=feature_rows(r.features for r in records),
            signatures=signature_rows(r.signatures for r in records),
            latency=np.fromiter((r.actual_latency for r in records), float, n),
            day=np.fromiter((r.day for r in records), np.int64, n),
            cluster=tuple(r.cluster for r in records),
            is_adhoc=np.fromiter((r.is_adhoc for r in records), bool, n),
        )

    def take(self, indices: np.ndarray) -> "FeatureTable":
        """A new table holding the given rows, in the given order.

        The serving tier cuts cache misses and per-shard sub-tables out of
        a request table this way: features and signatures are one gather
        each, so sub-table rows are the exact values of the parent rows.
        Matrix memoization is per table, so the sub-table expands its own
        feature matrix on first use.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return FeatureTable(
            features=self.features[indices],
            signatures=None if self.signatures is None else self.signatures[indices],
            latency=self.latency[indices] if len(self.latency) else self.latency,
            day=self.day[indices] if len(self.day) else self.day,
            cluster=(
                tuple(np.array(self.cluster, dtype=object)[indices].tolist())
                if self.cluster
                else ()
            ),
            is_adhoc=self.is_adhoc[indices] if len(self.is_adhoc) else self.is_adhoc,
        )

    def with_partition_count(self, partition_count: np.ndarray) -> "FeatureTable":
        """A copy whose ``P`` column is ``partition_count`` and every other
        column is unchanged: partition exploration's P-grids, and the P=1
        rows resource profiles read."""
        features = self.features.copy()
        features[:, _P] = partition_count
        return replace(self, features=features)

    # ------------------------------------------------------------------ #
    # Columnar views
    # ------------------------------------------------------------------ #

    def feature_matrix(self, include_context: bool = False) -> np.ndarray:
        """The (n, d) derived feature matrix for this table's rows.

        Memoized per table (tables are immutable by convention, and the
        serving hot path expands the same table once per batch otherwise);
        treat the returned array as read-only.
        """
        key = "_matrix_context" if include_context else "_matrix_basic"
        cached = self.__dict__.get(key)
        if cached is None:
            cached = expand_columns(self.features, include_context)
            self.__dict__[key] = cached
        return cached

    def row_keys(self) -> list[bytes]:
        """Every row's prediction-cache key, in row order, in one pass.

        A key is the row's bits: its nine features as float64, then its four
        signatures as uint64 — 104 bytes.  Two rows share a key exactly when
        they are bitwise equal, so ``-0.0`` and ``0.0`` rows are distinct
        entries, just as cache-off pricing treats them as distinct inputs.
        This is the one definition of the layout
        (:attr:`~repro.serving.service.PredictionRequest.key` is a row of a
        table of requests).  Keys are ``bytes``: they cache their own hash,
        and the garbage collector does not track them.
        """
        if self.signatures is None:
            raise ValueError("row keys need signature columns (built from bare inputs?)")
        words = np.concatenate((self.features.view(np.uint64), self.signatures), axis=1)
        return words.view(_ROW_KEY).ravel().tolist()

    def signature_column(self, name: str) -> np.ndarray:
        """One signature column ("strict"/"approx"/"input"/"operator")."""
        if self.signatures is None:
            raise KeyError(
                f"table has no {name!r} signature column (built from bare inputs?)"
            )
        return self.signatures[:, _SIGNATURE_INDEX[name]]

    @property
    def has_signatures(self) -> bool:
        return self.signatures is not None

    def group_by_signature(
        self, name: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Group rows by one signature column with array ops.

        Returns ``(signatures, order, starts, counts)``: the unique signature
        values, a stable row permutation that makes each group contiguous
        (original record order preserved within groups), and each group's
        start offset / size within ``order``.
        """
        column = self.signature_column(name)
        order = np.argsort(column, kind="stable")
        uniques, starts, counts = np.unique(
            column[order], return_index=True, return_counts=True
        )
        return uniques, order, starts, counts

    # ------------------------------------------------------------------ #
    # Data-quality gates (training-path sanitization)
    # ------------------------------------------------------------------ #

    def adjacent_duplicate_mask(self) -> np.ndarray:
        """True for rows bitwise-identical to their immediate predecessor.

        The shape an at-least-once telemetry writer produces when it
        retries an append: the copy lands right after the original.  The
        rule is deliberately *adjacency*-scoped — recurring workloads can
        legitimately contain identical rows far apart (the same template
        instance re-executed within a day), and those must survive so the
        clean-data path stays bitwise-identical to the unsanitized one.
        Float columns compare by bit pattern, so double-appended NaN rows
        are caught too.
        """
        n = len(self)
        duplicate = np.zeros(n, dtype=bool)
        if n < 2:
            return duplicate
        bits = self.features.view(np.uint64)
        same = (bits[1:] == bits[:-1]).all(axis=1)
        if self.signatures is not None:
            same &= (self.signatures[1:] == self.signatures[:-1]).all(axis=1)
        if len(self.latency):
            bits = np.ascontiguousarray(self.latency, dtype=np.float64).view(
                np.uint64
            )
            same &= bits[1:] == bits[:-1]
        if len(self.day):
            same &= self.day[1:] == self.day[:-1]
        if len(self.is_adhoc):
            same &= self.is_adhoc[1:] == self.is_adhoc[:-1]
        if self.cluster:
            names = np.asarray(self.cluster)
            same &= names[1:] == names[:-1]
        duplicate[1:] = same
        return duplicate

    def sanitize_mask(self) -> tuple[np.ndarray, dict[str, int]]:
        """Rows safe to train on, plus per-rule excision counts.

        A row is kept when every feature column is finite, its latency is
        finite, non-negative, and below :data:`MAX_SANE_LATENCY_S`, and it
        is not an adjacent duplicate.  On clean data the mask is all-True,
        so callers can short-circuit to the original table and keep the
        sanitized path bitwise-identical to the unsanitized one.
        """
        n = len(self)
        feature_ok = np.isfinite(self.features).all(axis=1)
        if len(self.latency):
            with np.errstate(invalid="ignore"):
                latency_ok = (
                    np.isfinite(self.latency)
                    & (self.latency >= 0.0)
                    & (self.latency <= MAX_SANE_LATENCY_S)
                )
        else:
            latency_ok = np.ones(n, dtype=bool)
        duplicate = self.adjacent_duplicate_mask()
        keep = feature_ok & latency_ok & ~duplicate
        counts = {
            "nonfinite_features": int((~feature_ok).sum()),
            "invalid_latency": int((~latency_ok).sum()),
            "duplicate_rows": int(duplicate.sum()),
            "rows_dropped": int((~keep).sum()),
        }
        return keep, counts

    def describe(self) -> str:
        parts = [f"{len(self)} rows"]
        if self.has_signatures:
            parts.append("signatures")
        if len(self.latency):
            parts.append("latencies")
        return f"FeatureTable({', '.join(parts)})"
