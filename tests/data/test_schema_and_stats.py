"""Tests for schema definitions, table statistics, and the catalog."""

from __future__ import annotations

import pytest

from repro.data.catalog import Catalog
from repro.data.schema import Column, DataType, TableDef
from repro.data.statistics import ColumnStats, TableStats


class TestColumn:
    def test_width_from_type(self):
        assert Column("a", DataType.BIGINT).width_bytes == 8

    def test_width_override(self):
        assert Column("c", DataType.STRING, avg_width=100).width_bytes == 100

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Column("", DataType.INT)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            Column("a", DataType.INT, avg_width=0)


class TestTableDef:
    def test_row_width_is_sum(self):
        table = TableDef("t", (Column("a", DataType.INT), Column("b", DataType.BIGINT)))
        assert table.row_width_bytes == 12

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableDef("t", (Column("a", DataType.INT), Column("a", DataType.INT)))

    def test_column_lookup(self):
        table = TableDef("t", (Column("a", DataType.INT),))
        assert table.column("a").dtype is DataType.INT
        with pytest.raises(KeyError):
            table.column("missing")


class TestTableStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            TableStats(row_count=-1, avg_row_bytes=10)
        with pytest.raises(ValueError):
            TableStats(row_count=1, avg_row_bytes=0)
        with pytest.raises(ValueError):
            TableStats(row_count=1, avg_row_bytes=1, partition_count=0)

    def test_scaled_rows_and_partitions(self):
        stats = TableStats(row_count=1000, avg_row_bytes=10, partition_count=4)
        scaled = stats.scaled(2.0)
        assert scaled.row_count == 2000
        assert scaled.partition_count == 8
        assert scaled.avg_row_bytes == 10

    def test_scaled_distinct_sublinear(self):
        stats = TableStats(
            row_count=1000, avg_row_bytes=10,
            columns={"k": ColumnStats(distinct_count=100)},
        )
        scaled = stats.scaled(4.0)
        assert scaled.column("k").distinct_count == pytest.approx(200.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TableStats(row_count=1, avg_row_bytes=1).scaled(0)

    def test_column_stats_validation(self):
        with pytest.raises(ValueError):
            ColumnStats(distinct_count=-1)
        with pytest.raises(ValueError):
            ColumnStats(distinct_count=1, null_fraction=2.0)


class TestCatalog:
    def _catalog(self) -> Catalog:
        catalog = Catalog("c")
        catalog.add_table(
            TableDef("t", (Column("a", DataType.INT),)),
            TableStats(row_count=10, avg_row_bytes=4),
        )
        return catalog

    def test_roundtrip(self):
        catalog = self._catalog()
        assert catalog.table("t").name == "t"
        assert catalog.stats("t").row_count == 10

    def test_missing_table(self):
        with pytest.raises(KeyError):
            self._catalog().table("nope")
        with pytest.raises(KeyError):
            self._catalog().stats("nope")

    def test_set_stats_requires_table(self):
        catalog = self._catalog()
        with pytest.raises(KeyError):
            catalog.set_stats("nope", TableStats(row_count=1, avg_row_bytes=1))

    def test_contains_and_len(self):
        catalog = self._catalog()
        assert "t" in catalog and "x" not in catalog
        assert len(catalog) == 1

    def test_scaled_catalog(self):
        scaled = self._catalog().scaled(3.0)
        assert scaled.stats("t").row_count == 30
