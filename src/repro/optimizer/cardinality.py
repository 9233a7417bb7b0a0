"""Cardinality and selectivity estimation from catalog statistics.

Classic System-R style: histogram lookups for single-table predicates,
independence across conjuncts, ``1/max(ndv)`` for equi-joins with a
containment assumption, and product-capped group counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import grouping_ndv, join_ndv
from repro.errors import CatalogError, SimulationError
from repro.plans import expressions as ex
from repro.plans import logical as lg

#: selectivity guess for predicates the estimator cannot analyze
DEFAULT_SELECTIVITY = 0.1
#: selectivity guess for inequality comparisons (<>)
NEQ_SELECTIVITY = 0.9


class CardinalityEstimator:
    """Estimates row counts for logical subtrees."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- base tables ---------------------------------------------------------
    def table_rows(self, table: str) -> float:
        return float(self.catalog.table(table).row_count)

    def table_width(self, table: str) -> float:
        return float(self.catalog.table(table).row_width)

    # -- single-table predicates ----------------------------------------------
    def local_selectivity(self, table: str, predicate: Optional[ex.Expr]) -> float:
        """Selectivity of a (conjunctive) predicate over one table."""
        if predicate is None:
            return 1.0
        sel = 1.0
        for conjunct in ex.conjuncts(predicate):
            sel *= self._conjunct_selectivity(table, conjunct)
        return max(1e-9, min(1.0, sel))

    def _conjunct_selectivity(self, table: str, pred: ex.Expr) -> float:
        if isinstance(pred, ex.Comparison):
            return self._comparison_selectivity(table, pred)
        if isinstance(pred, ex.Between):
            return self._between_selectivity(table, pred)
        if isinstance(pred, ex.Or):
            sel = 1.0
            for child in pred.children:
                sel *= 1.0 - self._conjunct_selectivity(table, child)
            return 1.0 - sel
        if isinstance(pred, ex.And):
            sel = 1.0
            for child in pred.children:
                sel *= self._conjunct_selectivity(table, child)
            return sel
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, table: str, pred: ex.Comparison) -> float:
        column, literal = _split_column_literal(pred.left, pred.right)
        if column is None:
            return DEFAULT_SELECTIVITY
        stats = self._stats(table, column.column)
        if stats is None:
            return DEFAULT_SELECTIVITY
        value = literal.value
        if isinstance(value, str):
            # string domains are estimated with the uniform NDV guess
            return (1.0 / stats.ndv if pred.op == "="
                    else DEFAULT_SELECTIVITY)
        op = pred.op
        if op == "=":
            return stats.selectivity_eq_const(float(value))
        if op == "<>":
            return max(0.0, 1.0 - stats.selectivity_eq_const(float(value)))
        if op in ("<", "<="):
            return stats.selectivity_range(None, float(value))
        if op in (">", ">="):
            return stats.selectivity_range(float(value), None)
        return DEFAULT_SELECTIVITY

    def _between_selectivity(self, table: str, pred: ex.Between) -> float:
        if not isinstance(pred.expr, ex.ColumnRef):
            return DEFAULT_SELECTIVITY
        if not (isinstance(pred.low, ex.Literal)
                and isinstance(pred.high, ex.Literal)):
            return DEFAULT_SELECTIVITY
        stats = self._stats(table, pred.expr.column)
        if stats is None or isinstance(pred.low.value, str):
            return DEFAULT_SELECTIVITY
        return stats.selectivity_range(float(pred.low.value),
                                       float(pred.high.value))

    # -- joins -----------------------------------------------------------------
    def join_selectivity(self, condition: Optional[ex.Expr],
                         alias_tables: Dict[str, str]) -> float:
        """Selectivity of a join condition relative to the cross product."""
        if condition is None:
            return 1.0
        sel = 1.0
        for conjunct in ex.conjuncts(condition):
            if isinstance(conjunct, ex.Comparison) and conjunct.is_equi_join:
                left = conjunct.left
                right = conjunct.right
                assert isinstance(left, ex.ColumnRef)
                assert isinstance(right, ex.ColumnRef)
                lndv = self._column_ndv(alias_tables, left)
                rndv = self._column_ndv(alias_tables, right)
                sel *= 1.0 / max(lndv, rndv, 1.0)
            else:
                sel *= DEFAULT_SELECTIVITY
        return max(1e-12, min(1.0, sel))

    def _column_ndv(self, alias_tables: Dict[str, str],
                    ref: ex.ColumnRef) -> float:
        table = alias_tables.get(ref.alias)
        if table is None:
            return 1000.0
        stats = self._stats(table, ref.column)
        return stats.ndv if stats is not None else 1000.0

    # -- grouping ----------------------------------------------------------------
    def group_count(self, keys: Iterable[ex.ColumnRef],
                    alias_tables: Dict[str, str], input_rows: float) -> float:
        ndvs = [self._column_ndv(alias_tables, key) for key in keys]
        if not ndvs:
            return 1.0  # scalar aggregate
        return grouping_ndv(ndvs, input_rows)

    # -- what the query's shape alone decides -----------------------------------
    def shape_stats(self, node: lg.LogicalNode, child_stats,
                    alias_tables: Dict[str, str]) -> tuple:
        """``(factor, width, aliases)``: the part of a logical node's
        statistics no literal in a scan predicate can change, given its
        children's (of which only widths and alias sets are read).
        ``factor`` is what the row count is scaled by where the shape
        fixes that — a scan's table rows, a join's or residual filter's
        selectivity — else None.
        """
        if isinstance(node, lg.LogicalGet):
            return (self.table_rows(node.table), self.table_width(node.table),
                    frozenset({node.alias}))
        if isinstance(node, lg.LogicalJoin):
            left, right = child_stats
            return (self.join_selectivity(node.condition, alias_tables),
                    left.width + right.width, left.aliases | right.aliases)
        (child,) = child_stats
        if isinstance(node, lg.LogicalFilter):
            sel = 1.0
            for _ in ex.conjuncts(node.predicate):
                sel *= 0.1
            return sel, child.width, child.aliases
        if isinstance(node, lg.LogicalAggregate):
            width = 8.0 * (len(node.keys) + len(node.aggregates)) + 10.0
            return None, width, child.aliases
        if isinstance(node, lg.LogicalProject):
            return None, 8.0 * max(1, len(node.exprs)), child.aliases
        if isinstance(node, lg.LogicalSort):
            return None, child.width, child.aliases
        raise SimulationError(f"no stats derivation for {node!r}")

    # -- misc ------------------------------------------------------------------
    def _stats(self, table: str, column: str):
        try:
            return self.catalog.statistics(table, column)
        except CatalogError:
            return None

    def clustered_scan_window(self, table: str,
                              predicate: Optional[ex.Expr]
                              ) -> Tuple[float, float]:
        """(offset_fraction, length_fraction) of the table a scan must
        physically read, derived from predicates on the clustering key.

        Predicates on non-clustered columns filter rows but do not
        reduce the pages read.
        """
        tbl = self.catalog.table(table)
        clustered = next(
            (ix for ix in tbl.indexes if ix.clustered and ix.columns), None)
        if clustered is None or predicate is None:
            return 0.0, 1.0
        key = clustered.columns[0]
        col = tbl.column(key)
        span = float(col.high - col.low) or 1.0
        offset, length = 0.0, 1.0
        for conjunct in ex.conjuncts(predicate):
            window = _key_window(conjunct, key)
            if window is None:
                continue
            lo, hi = window
            lo = max(float(col.low), lo)
            hi = min(float(col.high), hi)
            if hi < lo:
                return 0.0, 0.0
            offset = (lo - col.low) / span
            length = (hi - lo) / span
            break
        return offset, max(0.0, min(1.0, length))


def _split_column_literal(left: ex.Expr, right: ex.Expr):
    """Return (ColumnRef, Literal) regardless of which side is which."""
    if isinstance(left, ex.ColumnRef) and isinstance(right, ex.Literal):
        return left, right
    if isinstance(right, ex.ColumnRef) and isinstance(left, ex.Literal):
        return right, left
    return None, None


def _key_window(pred: ex.Expr, key: str):
    """The [low, high] window a predicate imposes on the clustering key."""
    if isinstance(pred, ex.Between):
        if (isinstance(pred.expr, ex.ColumnRef) and pred.expr.column == key
                and isinstance(pred.low, ex.Literal)
                and isinstance(pred.high, ex.Literal)
                and not isinstance(pred.low.value, str)):
            return float(pred.low.value), float(pred.high.value)
        return None
    if isinstance(pred, ex.Comparison):
        column, literal = _split_column_literal(pred.left, pred.right)
        if column is None or column.column != key:
            return None
        if isinstance(literal.value, str):
            return None
        value = float(literal.value)
        if pred.op == "=":
            return value, value
        if pred.op in ("<", "<="):
            return float("-inf"), value
        if pred.op in (">", ">="):
            return value, float("inf")
    return None
