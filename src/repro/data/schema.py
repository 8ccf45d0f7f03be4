"""Relational schema definitions.

Tables are described by column names and types plus per-column byte widths,
which the simulator uses to derive row lengths (the ``L`` feature of the
paper's cost models, Table 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DataType(enum.Enum):
    """Column data types with a representative on-disk width in bytes."""

    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    DECIMAL = "decimal"
    DATE = "date"
    STRING = "string"
    BOOL = "bool"

    @property
    def width_bytes(self) -> int:
        """Representative serialized width; strings use an average width."""
        return _WIDTHS[self]


_WIDTHS = {
    DataType.INT: 4,
    DataType.BIGINT: 8,
    DataType.FLOAT: 8,
    DataType.DECIMAL: 8,
    DataType.DATE: 4,
    DataType.STRING: 24,
    DataType.BOOL: 1,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    ``avg_width`` overrides the type's default width (long comment strings in
    TPC-H, for instance).
    """

    name: str
    dtype: DataType
    avg_width: int | None = None

    @property
    def width_bytes(self) -> int:
        return self.avg_width if self.avg_width is not None else self.dtype.width_bytes

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.avg_width is not None and self.avg_width <= 0:
            raise ValueError(f"avg_width must be positive, got {self.avg_width}")


@dataclass(frozen=True)
class TableDef:
    """A table definition: name plus ordered columns."""

    name: str
    columns: tuple[Column, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("table name must be non-empty")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in table {self.name!r}")

    @property
    def row_width_bytes(self) -> int:
        """Average serialized row width (sum of column widths)."""
        return sum(c.width_bytes for c in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column {name!r} in table {self.name!r}")
