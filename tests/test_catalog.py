"""Tests for schema objects, statistics and the catalog."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.catalog.catalog as catalog_module
from repro.catalog import Catalog, Column, ColumnType, Index, Table
from repro.catalog.statistics import (
    Histogram,
    build_column_statistics,
    grouping_ndv,
    join_ndv,
)
from repro.errors import CatalogError
from repro.experiments.figures import figure1_monitors
from repro.optimizer import CardinalityEstimator
from repro.plans import expressions as ex
from repro.workload import (
    MixedWorkload,
    OltpWorkload,
    SalesWorkload,
    TpchWorkload,
)


def make_table(name="t", rows=1000):
    return Table(
        name=name,
        columns=(Column("id", ColumnType.INTEGER, ndv=rows, low=0,
                        high=rows - 1),
                 Column("v", ColumnType.DECIMAL, ndv=100, low=0, high=99)),
        row_count=rows,
    )


# ------------------------------------------------------------------ schema
def test_table_column_lookup():
    table = make_table()
    assert table.column("id").name == "id"
    assert table.has_column("v")
    assert not table.has_column("nope")
    with pytest.raises(CatalogError):
        table.column("nope")


def test_table_rejects_duplicate_columns():
    with pytest.raises(CatalogError):
        Table(name="t",
              columns=(Column("a"), Column("a")),
              row_count=1)


def test_table_rejects_index_on_unknown_column():
    with pytest.raises(CatalogError):
        Table(name="t", columns=(Column("a"),), row_count=1,
              indexes=(Index("ix", ("zz",)),))


def test_row_width_includes_overhead():
    table = make_table()
    assert table.row_width == 4 + 8 + 10
    assert table.nbytes == table.row_count * table.row_width


def test_column_validation():
    with pytest.raises(CatalogError):
        Column("bad", ndv=0)
    with pytest.raises(CatalogError):
        Column("bad", low=10, high=5)


def test_column_type_widths():
    assert ColumnType.INTEGER.default_width() == 4
    assert ColumnType.VARCHAR.default_width() == 24


# ------------------------------------------------------------------ catalog
def test_catalog_create_and_lookup():
    cat = Catalog()
    cat.create_table(make_table("orders"))
    assert cat.has_table("ORDERS")  # case-insensitive
    assert cat.table("orders").row_count == 1000
    with pytest.raises(CatalogError):
        cat.create_table(make_table("orders"))
    with pytest.raises(CatalogError):
        cat.table("nope")


def test_catalog_drop_table():
    cat = Catalog()
    cat.create_table(make_table("t"))
    cat.drop_table("t")
    assert not cat.has_table("t")
    with pytest.raises(CatalogError):
        cat.drop_table("t")


def test_catalog_builds_statistics_and_layout():
    cat = Catalog()
    cat.create_table(make_table("t", rows=100_000))
    stats = cat.statistics("t", "v")
    assert stats.row_count == 100_000
    crange = cat.chunk_range("t")
    assert len(crange) >= 1
    assert cat.total_bytes == cat.table("t").nbytes


@pytest.mark.parametrize("workload", [
    SalesWorkload(scale=0.0001), TpchWorkload(scale=0.001),
    OltpWorkload(scale=0.01), MixedWorkload(scale=0.01),
], ids=lambda w: w.name)
def test_statistics_built_on_first_read_match_a_direct_build(
        workload, monkeypatch):
    skews = {}
    create_table = Catalog.create_table

    def recording_create_table(self, table, skew=0.0):
        skews[table.name] = skew
        return create_table(self, table, skew)

    monkeypatch.setattr(Catalog, "create_table", recording_create_table)
    cat = workload.build_catalog()
    tables = list(cat.tables())
    assert tables and set(skews) == {t.name for t in tables}
    for table in tables:
        for column in table.columns:
            # the first read builds, e.g. statistics("SALES", "Date_Id")
            stats = cat.statistics(table.name.upper(), column.name.title())
            want = build_column_statistics(
                column, table.row_count, skew=skews[table.name])
            assert stats.column == want.column
            assert stats.row_count == want.row_count
            assert stats.histogram.buckets == want.histogram.buckets
            assert cat.statistics(table.name, column.name) is stats


def test_figure1_builds_no_statistics(monkeypatch):
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build_column_statistics(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "build_column_statistics",
                        counting_build)
    assert figure1_monitors() == (
        "compilation memory monitors:\n"
        "  > 512.0 KiB  small   limit=32  timeout=360s active=0 waiting=0\n"
        "  >  40.0 MiB  medium  limit=8   timeout=600s active=0 waiting=0\n"
        "  > 180.0 MiB  big     limit=1   timeout=1200s active=0 waiting=0")
    assert calls == []


def test_merge_from_resolves_both_sides():
    left, right = Catalog(), Catalog()
    left.create_table(make_table("a"))
    right.create_table(make_table("b", rows=500), skew=0.3)
    left.merge_from(right)
    assert left.statistics("A", "v").row_count == 1000
    merged = left.statistics("b", "ID")
    assert merged.row_count == 500
    assert merged.histogram.buckets == build_column_statistics(
        right.table("b").column("id"), 500, skew=0.3).histogram.buckets


def test_statistics_of_dropped_table_or_unknown_column_raise():
    cat = Catalog()
    cat.create_table(make_table("t"))
    cat.statistics("t", "v")
    with pytest.raises(CatalogError):
        cat.statistics("t", "nope")
    cat.drop_table("t")
    with pytest.raises(CatalogError):
        cat.statistics("t", "v")
    with pytest.raises(CatalogError):
        cat.statistics("t", "id")


def test_estimator_propagates_errors_other_than_catalog_errors(monkeypatch):
    cat = Catalog()
    cat.create_table(make_table("t"))
    estimator = CardinalityEstimator(cat)
    pred = ex.Comparison("=", ex.ColumnRef("t", "v"), ex.Literal(7))
    unknown = ex.Comparison("=", ex.ColumnRef("t", "nope"), ex.Literal(7))
    assert estimator.local_selectivity("t", unknown) == pytest.approx(0.1)

    def broken_build(*args, **kwargs):
        raise ZeroDivisionError("bug while building a histogram")

    monkeypatch.setattr(catalog_module, "build_column_statistics",
                        broken_build)
    with pytest.raises(ZeroDivisionError):
        estimator.local_selectivity("t", pred)


# ------------------------------------------------------------------ stats
def test_histogram_uniform_range_selectivity():
    hist = Histogram.equi_depth(0, 100, rows=1000, ndv=100, nbuckets=10)
    assert hist.selectivity_range(0, 100) == pytest.approx(1.0)
    assert hist.selectivity_range(0, 50) == pytest.approx(0.5, rel=0.05)
    assert hist.selectivity_range(None, 25) == pytest.approx(0.25, rel=0.1)
    assert hist.selectivity_range(90, 10) == 0.0


def test_histogram_eq_selectivity():
    hist = Histogram.equi_depth(0, 100, rows=1000, ndv=100, nbuckets=10)
    sel = hist.selectivity_eq(50)
    assert sel == pytest.approx(1.0 / 100.0, rel=0.2)
    assert hist.selectivity_eq(1000) == 0.0


def test_histogram_skew_shifts_mass_low():
    uniform = Histogram.equi_depth(0, 100, rows=1000, ndv=100, skew=0.0)
    skewed = Histogram.equi_depth(0, 100, rows=1000, ndv=100, skew=0.8)
    low_u = uniform.selectivity_range(0, 20)
    low_s = skewed.selectivity_range(0, 20)
    assert low_s > low_u
    assert skewed.total_rows == pytest.approx(1000)


def test_histogram_rejects_bad_input():
    with pytest.raises(CatalogError):
        Histogram([])
    with pytest.raises(CatalogError):
        Histogram.equi_depth(10, 0, rows=10, ndv=5)


def test_column_statistics_eq_falls_back_to_ndv():
    col = Column("c", ColumnType.INTEGER, ndv=10, low=0, high=9)
    stats = build_column_statistics(col, row_count=1000)
    assert stats.selectivity_eq_const(5) > 0
    assert stats.selectivity_eq_const(5) <= 1.0


def test_join_and_grouping_ndv():
    assert join_ndv(100, 10) == 10
    assert grouping_ndv([10, 20], input_rows=1e9) == 200
    assert grouping_ndv([10, 20], input_rows=50) == 50
    assert grouping_ndv([], input_rows=100) == 1.0


@settings(max_examples=60, deadline=None)
@given(low=st.integers(min_value=0, max_value=50),
       high=st.integers(min_value=51, max_value=1000),
       rows=st.integers(min_value=1, max_value=10**7),
       ndv=st.integers(min_value=1, max_value=10**5),
       skew=st.floats(min_value=0.0, max_value=0.9))
def test_histogram_mass_conservation(low, high, rows, ndv, skew):
    """Property: bucket masses sum to the row count and any range
    selectivity is within [0, 1]."""
    hist = Histogram.equi_depth(low, high, rows=rows, ndv=ndv, skew=skew)
    assert hist.total_rows == pytest.approx(rows, rel=1e-6)
    sel = hist.selectivity_range(low + (high - low) / 4,
                                 high - (high - low) / 4)
    assert 0.0 <= sel <= 1.0
