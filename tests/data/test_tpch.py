"""Tests for the TPC-H catalog generator."""

from __future__ import annotations

import pytest

from repro.data.tpch import ALL_TABLES, tpch_catalog


class TestTpchCatalog:
    def test_all_tables_present(self):
        catalog = tpch_catalog(1.0)
        for table in ALL_TABLES:
            assert table.name in catalog.table_names

    def test_base_cardinalities_sf1(self):
        catalog = tpch_catalog(1.0)
        assert catalog.stats("lineitem").row_count == pytest.approx(6_001_215)
        assert catalog.stats("orders").row_count == pytest.approx(1_500_000)
        assert catalog.stats("customer").row_count == pytest.approx(150_000)
        assert catalog.stats("supplier").row_count == pytest.approx(10_000)

    def test_fixed_tables_do_not_scale(self):
        catalog = tpch_catalog(100.0)
        assert catalog.stats("nation").row_count == 25
        assert catalog.stats("region").row_count == 5

    def test_scaling_is_linear(self):
        sf1 = tpch_catalog(1.0).stats("lineitem").row_count
        sf10 = tpch_catalog(10.0).stats("lineitem").row_count
        assert sf10 == pytest.approx(10 * sf1)

    def test_partition_counts_grow_with_sf(self):
        small = tpch_catalog(1.0).stats("lineitem").partition_count
        large = tpch_catalog(100.0).stats("lineitem").partition_count
        assert large > small >= 1

    def test_key_distinct_counts(self):
        catalog = tpch_catalog(2.0)
        stats = catalog.stats("orders")
        assert stats.column("o_orderkey").distinct_count == pytest.approx(3_000_000)
        assert stats.column("o_orderpriority").distinct_count == 5

    def test_date_ranges(self):
        li = tpch_catalog(1.0).stats("lineitem")
        ship = li.column("l_shipdate")
        assert ship.min_value is not None and ship.max_value is not None
        assert ship.max_value > ship.min_value

    def test_rejects_bad_scale_factor(self):
        with pytest.raises(ValueError):
            tpch_catalog(0.0)

    def test_row_widths_positive(self):
        catalog = tpch_catalog(1.0)
        for table in ALL_TABLES:
            assert catalog.stats(table.name).avg_row_bytes > 0
