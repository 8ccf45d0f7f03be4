"""Catalog: the mapping from table names to definitions and statistics.

A catalog represents one snapshot of a cluster's inputs (e.g. one day).  The
workload runner swaps catalogs between days to model input drift while the
query templates stay fixed — the recurring-job pattern of Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.schema import TableDef
from repro.data.statistics import TableStats


@dataclass
class Catalog:
    """Named collection of tables with their current statistics."""

    name: str = "default"
    _tables: dict[str, TableDef] = field(default_factory=dict)
    _stats: dict[str, TableStats] = field(default_factory=dict)

    def add_table(self, table: TableDef, stats: TableStats) -> None:
        """Register (or replace) a table and its statistics."""
        self._tables[table.name] = table
        self._stats[table.name] = stats

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"table {name!r} not in catalog {self.name!r}") from None

    def stats(self, name: str) -> TableStats:
        try:
            return self._stats[name]
        except KeyError:
            raise KeyError(f"no statistics for table {name!r} in catalog {self.name!r}") from None

    def set_stats(self, name: str, stats: TableStats) -> None:
        if name not in self._tables:
            raise KeyError(f"table {name!r} not in catalog {self.name!r}")
        self._stats[name] = stats

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def scaled(self, factor: float, name: str | None = None) -> "Catalog":
        """A new catalog with every table's statistics scaled by ``factor``."""
        out = Catalog(name=name or f"{self.name}*{factor:g}")
        for tname, tdef in self._tables.items():
            out.add_table(tdef, self._stats[tname].scaled(factor))
        return out

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: object) -> bool:
        return name in self._tables
