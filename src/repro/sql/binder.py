"""Name resolution: AST → bound logical plan.

The binder resolves every identifier against the catalog, splits the
WHERE clause into single-table predicates (pushed into the
:class:`~repro.plans.logical.LogicalGet` leaves) and join predicates,
and assembles a left-deep initial join tree in FROM-clause order — the
optimizer is responsible for reordering it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.errors import BindError
from repro.plans import expressions as ex
from repro.plans import logical as lg
from repro.sql import ast


@dataclass
class BoundQuery:
    """The binder's output: a logical plan plus query-shape facts."""

    root: lg.LogicalNode
    #: alias -> table name, in FROM-clause order
    aliases: Dict[str, str]
    #: number of binary joins in the initial tree
    join_count: int
    #: bound output expressions (the SELECT list)
    output: Tuple[ex.Expr, ...]
    #: the tree's ``shape_key`` when whoever built it already knows it
    #: (a statement skeleton does); the optimizer walks the tree if not
    shape_key: Optional[tuple] = None

    @property
    def table_count(self) -> int:
        return len(self.aliases)


class Binder:
    """Binds parsed statements against one catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def bind(self, stmt: ast.SelectStatement) -> BoundQuery:
        aliases = self._collect_aliases(stmt)
        # bind predicates
        where_conjuncts: List[ex.Expr] = []
        if stmt.where is not None:
            where_conjuncts.extend(
                ex.conjuncts(self._bind_expr(stmt.where, aliases)))
        for join in stmt.joins:
            if join.condition is not None:
                where_conjuncts.extend(
                    ex.conjuncts(self._bind_expr(join.condition, aliases)))

        local: Dict[str, List[ex.Expr]] = {alias: [] for alias in aliases}
        join_preds: List[ex.Expr] = []
        for conjunct in where_conjuncts:
            refs = conjunct.referenced_aliases()
            if len(refs) == 1:
                local[next(iter(refs))].append(conjunct)
            elif len(refs) == 0:
                # constant predicate: attach to the first table
                local[next(iter(aliases))].append(conjunct)
            else:
                join_preds.append(conjunct)

        # left-deep initial tree in FROM order
        order = list(aliases)
        root: lg.LogicalNode = self._make_get(order[0], aliases, local)
        joined = {order[0]}
        join_count = 0
        remaining = list(join_preds)
        for alias in order[1:]:
            get = self._make_get(alias, aliases, local)
            joined.add(alias)
            applicable = [p for p in remaining
                          if p.referenced_aliases() <= joined
                          and alias in p.referenced_aliases()]
            for p in applicable:
                remaining.remove(p)
            root = lg.LogicalJoin(root, get,
                                  ex.make_conjunction(applicable))
            join_count += 1
        # predicates that span non-adjacent tables end up as a filter
        leftover = [p for p in remaining if p.referenced_aliases() <= joined]
        not_bindable = [p for p in remaining
                        if not p.referenced_aliases() <= joined]
        if not_bindable:
            raise BindError(
                f"predicate references unknown aliases: {not_bindable[0]}")
        if leftover:
            root = lg.LogicalFilter(root, ex.make_conjunction(leftover))

        # aggregation
        group_keys = tuple(self._bind_group_key(g, aliases)
                           for g in stmt.group_by)
        output: List[ex.Expr] = []
        aggregates: List[ex.Aggregate] = []
        select_aliases: Dict[str, ex.Expr] = {}
        for item in stmt.items:
            bound = self._bind_expr(item.expr, aliases)
            output.append(bound)
            aggregates.extend(_collect_aggregates(bound))
            if item.alias:
                select_aliases[item.alias.lower()] = bound
        if group_keys or aggregates:
            root = lg.LogicalAggregate(root, group_keys, tuple(aggregates))
        root = lg.LogicalProject(root, tuple(output))
        if stmt.order_by:
            keys = tuple(
                self._bind_order_key(o.expr, aliases, select_aliases)
                for o in stmt.order_by)
            descending = tuple(o.descending for o in stmt.order_by)
            root = lg.LogicalSort(root, keys, descending)
        return BoundQuery(root=root, aliases=aliases,
                          join_count=join_count, output=tuple(output))

    # -- helpers -------------------------------------------------------------
    def _collect_aliases(self, stmt: ast.SelectStatement) -> Dict[str, str]:
        refs = list(stmt.from_tables) + [j.table for j in stmt.joins]
        if not refs:
            raise BindError("query has no FROM clause tables")
        aliases: Dict[str, str] = {}
        for ref in refs:
            if not self.catalog.has_table(ref.table):
                raise BindError(f"unknown table {ref.table!r}")
            alias = ref.effective_alias.lower()
            if alias in aliases:
                raise BindError(f"duplicate alias {alias!r}")
            aliases[alias] = ref.table.lower()
        return aliases

    def _make_get(self, alias: str, aliases: Dict[str, str],
                  local: Dict[str, List[ex.Expr]]) -> lg.LogicalGet:
        return lg.LogicalGet(
            alias=alias, table=aliases[alias],
            predicate=ex.make_conjunction(local[alias]))

    def _resolve_column(self, parts: Tuple[str, ...],
                        aliases: Dict[str, str]) -> ex.ColumnRef:
        if len(parts) == 2:
            alias, column = parts
            if alias not in aliases:
                raise BindError(f"unknown alias {alias!r}")
            table = self.catalog.table(aliases[alias])
            if not table.has_column(column):
                raise BindError(
                    f"table {table.name!r} has no column {column!r}")
            return ex.ColumnRef(alias=alias, column=column)
        if len(parts) == 1:
            column = parts[0]
            candidates = [alias for alias, tname in aliases.items()
                          if self.catalog.table(tname).has_column(column)]
            if not candidates:
                raise BindError(f"unknown column {column!r}")
            if len(candidates) > 1:
                raise BindError(
                    f"ambiguous column {column!r} "
                    f"(in {', '.join(sorted(candidates))})")
            return ex.ColumnRef(alias=candidates[0], column=column)
        raise BindError(f"unsupported name {'.'.join(parts)!r}")

    def _bind_order_key(self, node: ast.AstNode, aliases: Dict[str, str],
                        select_aliases: Dict[str, ex.Expr]) -> ex.Expr:
        """Bind an ORDER BY key; bare names may refer to SELECT aliases."""
        if (isinstance(node, ast.Identifier) and len(node.parts) == 1
                and node.parts[0] in select_aliases):
            return select_aliases[node.parts[0]]
        return self._bind_expr(node, aliases)

    def _bind_group_key(self, node: ast.AstNode,
                        aliases: Dict[str, str]) -> ex.ColumnRef:
        bound = self._bind_expr(node, aliases)
        if not isinstance(bound, ex.ColumnRef):
            raise BindError("GROUP BY keys must be plain columns")
        return bound

    _COMPARISONS = frozenset(ex.COMPARISON_OPS)

    def _bind_expr(self, node: ast.AstNode,
                   aliases: Dict[str, str]) -> ex.Expr:
        if isinstance(node, (ast.NumberLit, ast.StringLit)):
            return ex.Literal(node.value, node.slot)
        if isinstance(node, ast.Identifier):
            return self._resolve_column(node.parts, aliases)
        if isinstance(node, ast.BinaryOp):
            if node.op == "and":
                left = self._bind_expr(node.left, aliases)
                right = self._bind_expr(node.right, aliases)
                return ex.make_conjunction(
                    ex.conjuncts(left) + ex.conjuncts(right))
            if node.op == "or":
                return ex.Or((self._bind_expr(node.left, aliases),
                              self._bind_expr(node.right, aliases)))
            if node.op in self._COMPARISONS:
                return ex.Comparison(node.op,
                                     self._bind_expr(node.left, aliases),
                                     self._bind_expr(node.right, aliases))
            if node.op in ("+", "-", "*", "/"):
                return ex.Arithmetic(node.op,
                                     self._bind_expr(node.left, aliases),
                                     self._bind_expr(node.right, aliases))
            raise BindError(f"unsupported operator {node.op!r}")
        if isinstance(node, ast.BetweenOp):
            return ex.Between(self._bind_expr(node.expr, aliases),
                              self._bind_expr(node.low, aliases),
                              self._bind_expr(node.high, aliases))
        if isinstance(node, ast.FuncCall):
            if node.args and isinstance(node.args[0], ast.Star):
                if node.name != "count":
                    raise BindError(f"{node.name.upper()}(*) is not valid")
                return ex.Aggregate(func="count", arg=None,
                                    distinct=node.distinct)
            arg = self._bind_expr(node.args[0], aliases)
            return ex.Aggregate(func=node.name, arg=arg,
                                distinct=node.distinct)
        raise BindError(f"cannot bind AST node {node!r}")


def _collect_aggregates(expr: ex.Expr) -> List[ex.Aggregate]:
    """All aggregate sub-expressions of a bound expression."""
    found: List[ex.Aggregate] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Aggregate):
            found.append(node)
            continue
        if isinstance(node, (ex.Comparison, ex.Arithmetic)):
            stack.extend((node.left, node.right))
        elif isinstance(node, (ex.And, ex.Or)):
            stack.extend(node.children)
        elif isinstance(node, ex.Between):
            stack.extend((node.expr, node.low, node.high))
    return found
