"""Shared fixtures: a small star-schema catalog and helpers."""

from __future__ import annotations

import pytest

from repro.catalog import Catalog, Column, ColumnType, Index, Table
from repro.sim import Environment

INT = ColumnType.INTEGER
DEC = ColumnType.DECIMAL
DATE = ColumnType.DATE


# the one "legacy" param id keeps the ids of every test using ``env`` stable
@pytest.fixture(params=["legacy"])
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


def build_star_catalog() -> Catalog:
    """A small sales star: one fact, three dimensions."""
    cat = Catalog()
    cat.create_table(Table(
        name="fact_sales",
        columns=(
            Column("date_id", DATE, ndv=1000, low=0, high=999),
            Column("product_id", INT, ndv=5000, low=0, high=4999),
            Column("store_id", INT, ndv=300, low=0, high=299),
            Column("amount", DEC, ndv=10_000, low=0, high=9999),
        ),
        row_count=1_000_000,
        indexes=(Index("cix_fact", ("date_id",), clustered=True),),
    ))
    cat.create_table(Table(
        name="products",
        columns=(
            Column("product_id", INT, ndv=5000, low=0, high=4999),
            Column("category_id", INT, ndv=50, low=0, high=49),
        ),
        row_count=5000,
        indexes=(Index("pk_products", ("product_id",), clustered=True,
                       unique=True),),
    ))
    cat.create_table(Table(
        name="stores",
        columns=(
            Column("store_id", INT, ndv=300, low=0, high=299),
            Column("region_id", INT, ndv=10, low=0, high=9),
        ),
        row_count=300,
        indexes=(Index("pk_stores", ("store_id",), clustered=True,
                       unique=True),),
    ))
    cat.create_table(Table(
        name="categories",
        columns=(
            Column("category_id", INT, ndv=50, low=0, high=49),
            Column("department_id", INT, ndv=5, low=0, high=4),
        ),
        row_count=50,
    ))
    return cat


@pytest.fixture
def star_catalog() -> Catalog:
    return build_star_catalog()


STAR_QUERY = """
SELECT p.category_id, s.region_id, SUM(f.amount) AS total
FROM fact_sales f, products p, stores s
WHERE f.product_id = p.product_id
  AND f.store_id = s.store_id
  AND f.date_id BETWEEN 500 AND 600
GROUP BY p.category_id, s.region_id
ORDER BY total DESC
"""


@pytest.fixture
def star_query() -> str:
    return STAR_QUERY


def drain(env: Environment, process):
    """Run the environment until done and return the process value."""
    env.run()
    return process.value
