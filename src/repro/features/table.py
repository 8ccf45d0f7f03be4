"""Columnar feature storage: the struct-of-arrays behind the fast paths.

A :class:`FeatureTable` holds one column per :class:`FeatureInput` attribute
(I/B/C/L/P/IN/PM/CL/D) plus, when built from a run log, the four model
signatures, actual latencies, day, cluster, and ad-hoc flags — everything
the training and evaluation pipelines consume, materialized in one pass
over the records.

Downstream layers operate on whole columns:

* :meth:`FeatureTable.feature_matrix` expands the derived feature matrix
  with one vectorized pass per registry expression (bitwise identical to
  per-row :func:`~repro.features.featurizer.feature_vector` expansion);
* :meth:`FeatureTable.signature_column` exposes the signature arrays that
  the trainer groups with ``argsort``/``unique`` instead of per-record
  dict appends;
* ``latency`` / ``day`` / ``is_adhoc`` feed training targets and splits.

Tables are immutable by convention: :class:`~repro.execution.runtime_log.
RunLog` caches one per materialization and invalidates on mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.features.featurizer import COLUMN_NAMES, FeatureInput, expand_columns

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


def _empty_f8() -> np.ndarray:
    return np.empty(0, dtype=float)


@dataclass(frozen=True)
class FeatureTable:
    """Struct-of-arrays over operator instances.

    Feature columns are always present (possibly empty); signature and
    outcome columns are empty when the table was built from bare
    :class:`FeatureInput` objects rather than logged records.
    """

    input_card: np.ndarray
    base_card: np.ndarray
    output_card: np.ndarray
    avg_row_bytes: np.ndarray
    partition_count: np.ndarray
    input_enc: np.ndarray
    params_enc: np.ndarray
    logical_count: np.ndarray
    depth: np.ndarray
    #: Signature columns keyed by SIGNATURE_NAMES (uint64), empty when absent.
    signatures: dict[str, np.ndarray]
    #: Actual exclusive latencies (the learning target), empty when absent.
    latency: np.ndarray
    day: np.ndarray
    cluster: tuple[str, ...]
    is_adhoc: np.ndarray

    def __len__(self) -> int:
        return len(self.input_card)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_inputs(
        cls,
        inputs: Sequence[FeatureInput],
        bundles: "Sequence[SignatureBundle] | None" = None,
    ) -> "FeatureTable":
        """Pack feature inputs (and optionally their signatures) into columns."""
        inputs = list(inputs)
        columns = {
            name: np.array([getattr(f, name) for f in inputs], dtype=float)
            for name in COLUMN_NAMES
        }
        signatures: dict[str, np.ndarray] = {}
        if bundles is not None:
            bundles = list(bundles)
            if len(bundles) != len(inputs):
                raise ValueError("inputs and bundles must align")
            for name in SIGNATURE_NAMES:
                signatures[name] = np.array(
                    [getattr(b, name) for b in bundles], dtype=np.uint64
                )
        return cls(
            **columns,
            signatures=signatures,
            latency=_empty_f8(),
            day=np.empty(0, dtype=np.int64),
            cluster=(),
            is_adhoc=np.empty(0, dtype=bool),
        )

    @classmethod
    def from_records(cls, records: "Sequence[OperatorRecord]") -> "FeatureTable":
        """Materialize every column from operator records in one pass."""
        records = list(records)
        n = len(records)
        feature_cols = {name: np.empty(n, dtype=float) for name in COLUMN_NAMES}
        signatures = {name: np.empty(n, dtype=np.uint64) for name in SIGNATURE_NAMES}
        latency = np.empty(n, dtype=float)
        day = np.empty(n, dtype=np.int64)
        is_adhoc = np.empty(n, dtype=bool)
        cluster: list[str] = []
        for i, record in enumerate(records):
            f = record.features
            feature_cols["input_card"][i] = f.input_card
            feature_cols["base_card"][i] = f.base_card
            feature_cols["output_card"][i] = f.output_card
            feature_cols["avg_row_bytes"][i] = f.avg_row_bytes
            feature_cols["partition_count"][i] = f.partition_count
            feature_cols["input_enc"][i] = f.input_enc
            feature_cols["params_enc"][i] = f.params_enc
            feature_cols["logical_count"][i] = f.logical_count
            feature_cols["depth"][i] = f.depth
            s = record.signatures
            signatures["strict"][i] = s.strict
            signatures["approx"][i] = s.approx
            signatures["input"][i] = s.input
            signatures["operator"][i] = s.operator
            latency[i] = record.actual_latency
            day[i] = record.day
            is_adhoc[i] = record.is_adhoc
            cluster.append(record.cluster)
        return cls(
            **feature_cols,
            signatures=signatures,
            latency=latency,
            day=day,
            cluster=tuple(cluster),
            is_adhoc=is_adhoc,
        )

    def take(self, indices: np.ndarray) -> "FeatureTable":
        """A new table holding the given rows, in the given order.

        Used by the sharded serving tier to split one request table into
        per-shard sub-tables: every column (features, signatures, outcomes)
        is gathered with one fancy index, so sub-table rows are the exact
        arrays of the parent rows.  Matrix memoization is per table, so the
        sub-table expands its own feature matrix on first use.
        """
        indices = np.asarray(indices, dtype=np.int64)
        feature_cols = {
            name: getattr(self, name)[indices] for name in COLUMN_NAMES
        }
        return FeatureTable(
            **feature_cols,
            signatures={
                name: column[indices] for name, column in self.signatures.items()
            },
            latency=self.latency[indices] if len(self.latency) else self.latency,
            day=self.day[indices] if len(self.day) else self.day,
            cluster=tuple(self.cluster[i] for i in indices) if self.cluster else (),
            is_adhoc=self.is_adhoc[indices] if len(self.is_adhoc) else self.is_adhoc,
        )

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
            cached = expand_columns(self, include_context)
            self.__dict__[key] = cached
        return cached

    def input_at(self, row: int) -> FeatureInput:
        """One row's features as a :class:`FeatureInput` (the exact values)."""
        return FeatureInput(
            **{name: float(getattr(self, name)[row]) for name in COLUMN_NAMES}
        )

    def signature_column(self, name: str) -> np.ndarray:
        """One signature column ("strict"/"approx"/"input"/"operator")."""
        if name not in self.signatures:
            raise KeyError(
                f"table has no {name!r} signature column (built from bare inputs?)"
            )
        return self.signatures[name]

    @property
    def has_signatures(self) -> bool:
        return bool(self.signatures)

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
        same = np.ones(n - 1, dtype=bool)
        for name in COLUMN_NAMES:
            bits = np.ascontiguousarray(
                getattr(self, name), dtype=np.float64
            ).view(np.uint64)
            same &= bits[1:] == bits[:-1]
        for column in self.signatures.values():
            same &= column[1:] == column[:-1]
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
        feature_ok = np.ones(n, dtype=bool)
        for name in COLUMN_NAMES:
            feature_ok &= np.isfinite(getattr(self, name))
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
