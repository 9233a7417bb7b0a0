"""Schema objects: tables, columns, indexes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.errors import CatalogError


class ColumnType(Enum):
    """The small type system of the repro DBMS."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    DATE = "date"

    def default_width(self) -> int:
        """Bytes per value used for row-width estimates."""
        return _DEFAULT_WIDTHS[self]


_DEFAULT_WIDTHS = {
    ColumnType.INTEGER: 4,
    ColumnType.DECIMAL: 8,
    ColumnType.VARCHAR: 24,
    ColumnType.DATE: 4,
}


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    type: ColumnType = ColumnType.INTEGER
    #: number of distinct values (statistics input)
    ndv: int = 1000
    #: inclusive value domain for numeric/date columns
    low: int = 0
    high: int = 999
    #: bytes per value (defaults by type)
    width: Optional[int] = None
    nullable: bool = False

    def __post_init__(self):
        if self.ndv <= 0:
            raise CatalogError(f"column {self.name!r}: ndv must be positive")
        if self.high < self.low:
            raise CatalogError(f"column {self.name!r}: empty domain")

    @property
    def byte_width(self) -> int:
        return self.width if self.width is not None else self.type.default_width()


@dataclass(frozen=True)
class Index:
    """A (possibly clustered) index over some columns of a table."""

    name: str
    columns: Tuple[str, ...]
    clustered: bool = False
    unique: bool = False


@dataclass
class Table:
    """A base table: columns, cardinality, indexes, FK links."""

    name: str
    columns: Tuple[Column, ...]
    row_count: int
    indexes: Tuple[Index, ...] = field(default_factory=tuple)
    #: column name -> (referenced table, referenced column); used by the
    #: cardinality estimator for PK-FK join selectivity
    foreign_keys: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.row_count < 0:
            raise CatalogError(f"table {self.name!r}: negative row count")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise CatalogError(f"table {self.name!r}: duplicate column names")
        self._by_name = {c.name: c for c in self.columns}
        # nothing changes columns or row count after construction, and
        # the optimizer reads both sizes for every scan it costs
        #: bytes per row (sum of column widths plus per-row overhead)
        self.row_width = sum(c.byte_width for c in self.columns) + 10
        #: total table size in bytes
        self.nbytes = self.row_count * self.row_width
        index_cols = {col for ix in self.indexes for col in ix.columns}
        unknown = index_cols - set(names)
        if unknown:
            raise CatalogError(
                f"table {self.name!r}: index on unknown columns {sorted(unknown)}")

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)
