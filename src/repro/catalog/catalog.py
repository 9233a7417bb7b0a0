"""The catalog: named tables, their statistics and on-disk layout."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.catalog.schema import Column, Table
from repro.catalog.statistics import ColumnStatistics, build_column_statistics
from repro.errors import CatalogError
from repro.storage.pagemap import ChunkRange, PageMap


class Catalog:
    """All schema metadata of one database."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._stats: Dict[Tuple[str, str], ColumnStatistics] = {}
        self.pagemap = PageMap()
        #: per-table statistical skew used when synthesizing histograms
        self._skew: Dict[str, float] = {}

    def create_table(self, table: Table, skew: float = 0.0) -> Table:
        """Register a table and lay it out on disk.

        Column statistics are built the first time :meth:`statistics`
        reads them.
        """
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self._skew[key] = skew
        self.pagemap.add_table(key, table.nbytes)
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        table = self._tables.pop(key)
        self._skew.pop(key, None)
        for column in table.columns:
            self._stats.pop((key, column.name.lower()), None)
        # the pagemap keeps the layout slot — chunk ids are never reused,
        # matching how real systems avoid dangling page references

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    def merge_from(self, other: "Catalog") -> None:
        """Adopt every table of ``other`` into this catalog.

        Each adopted table keeps its skew and gets a fresh on-disk
        layout slot; its statistics are built here when first read.
        Mixed workloads use this to union the schemas of their
        component workloads.
        """
        for key, table in other._tables.items():
            if key in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
        for key, table in other._tables.items():
            self._tables[key] = table
            self._skew[key] = other._skew.get(key, 0.0)
            self.pagemap.add_table(key, table.nbytes)

    def statistics(self, table: str, column: str) -> ColumnStatistics:
        """Statistics of ``table.column``, built on the first read.

        A histogram is a pure function of (column, row count, skew), so
        when it is built changes no estimate; most cells never read
        most columns.
        """
        key = (table.lower(), column.lower())
        stats = self._stats.get(key)
        if stats is None:
            owner = self._tables.get(key[0])
            # names match case-insensitively; of two columns that differ
            # only in case, the last one wins
            for col in reversed(owner.columns if owner else ()):
                if col.name.lower() == key[1]:
                    stats = self._stats[key] = build_column_statistics(
                        col, owner.row_count, skew=self._skew[key[0]])
                    break
            else:
                raise CatalogError(f"no statistics for {table}.{column}")
        return stats

    def chunk_range(self, table: str) -> ChunkRange:
        """On-disk chunk range of a table (for the buffer pool)."""
        return self.pagemap.range_of(table.lower())

    @property
    def total_bytes(self) -> int:
        """Total database size (the paper's data mart is 524 GB)."""
        return sum(t.nbytes for t in self._tables.values())
