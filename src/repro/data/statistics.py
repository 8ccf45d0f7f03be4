"""Table and column statistics.

Statistics serve two distinct roles, mirroring the paper's setting:

* the *optimizer* consumes (possibly inaccurate) statistics to estimate
  cardinalities and costs;
* the *simulator* consumes the true statistics to compute actual runtimes.

Keeping both in one object (with the estimator layer responsible for
corrupting what the optimizer sees) keeps the data model simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ColumnStats:
    """Per-column statistics used for selectivity estimation.

    Attributes:
        distinct_count: number of distinct values.
        null_fraction: fraction of nulls in [0, 1].
        min_value / max_value: numeric range when meaningful.
    """

    distinct_count: float
    null_fraction: float = 0.0
    min_value: float | None = None
    max_value: float | None = None

    def __post_init__(self) -> None:
        if self.distinct_count < 0:
            raise ValueError("distinct_count must be >= 0")
        if not 0.0 <= self.null_fraction <= 1.0:
            raise ValueError("null_fraction must be within [0, 1]")


@dataclass(frozen=True)
class TableStats:
    """Statistics for one table instance (one day's data for one input).

    Attributes:
        row_count: true number of rows.
        avg_row_bytes: true average serialized row width.
        columns: optional per-column statistics.
        partition_count: number of on-disk partitions (extents); drives the
            default degree of parallelism for scans.
    """

    row_count: float
    avg_row_bytes: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    partition_count: int = 1

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise ValueError("row_count must be >= 0")
        if self.avg_row_bytes <= 0:
            raise ValueError("avg_row_bytes must be positive")
        if self.partition_count < 1:
            raise ValueError("partition_count must be >= 1")

    def scaled(self, factor: float) -> "TableStats":
        """A copy with the row count scaled (day-over-day input drift)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        # Distinct counts grow sublinearly with data volume (sqrt heuristic);
        # row widths are schema properties and stay fixed.
        scaled_cols = {
            name: replace(col, distinct_count=max(1.0, col.distinct_count * factor**0.5))
            for name, col in self.columns.items()
        }
        return replace(
            self,
            row_count=self.row_count * factor,
            columns=scaled_cols,
            partition_count=max(1, int(round(self.partition_count * factor))),
        )

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"no statistics for column {name!r}") from None
