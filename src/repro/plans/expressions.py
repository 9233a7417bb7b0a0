"""Scalar expressions and predicates.

All expression nodes are immutable and hashable so they can serve as
parts of memo keys.  Column references are *bound*: they carry the
relation alias assigned by the binder, which is unique within a query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple, Union

Value = Union[int, float, str]

#: comparison operators supported by the front end
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


class Expr:
    """Base class for all scalar expressions."""

    def referenced_aliases(self) -> FrozenSet[str]:
        """Relation aliases this expression touches."""
        raise NotImplementedError

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        """(alias, column) pairs this expression touches."""
        raise NotImplementedError


def _cached_hash(cls):
    """Class decorator: memoize the dataclass-generated ``__hash__``.

    Expression trees serve as memo keys, so the optimizer hashes the
    same immutable nodes millions of times per experiment; caching the
    value per instance turns each repeat into one attribute load.
    """
    generated = cls.__hash__

    def __hash__(self, _generated=generated):
        h = self.__dict__.get("_hash")
        if h is None:
            h = _generated(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # never pickle the memos: string hashes are per-process, and
        # the others (see cached_aliases, conjuncts) are cheap to redo
        return {name: value for name, value in self.__dict__.items()
                if not name.startswith("_")}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_cached_hash
@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to ``alias.column``."""

    alias: str
    column: str

    def referenced_aliases(self) -> FrozenSet[str]:
        return frozenset({self.alias})

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset({(self.alias, self.column)})

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@_cached_hash
@dataclass(frozen=True)
class Literal(Expr):
    """A constant value."""

    value: Value
    #: which literal token of the query text the value came from (see
    #: :class:`repro.sql.ast.NumberLit`); None for a made-up constant
    slot: Optional[int] = field(default=None, compare=False, repr=False)

    def referenced_aliases(self) -> FrozenSet[str]:
        return frozenset()

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@_cached_hash
@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` where op is one of =, <>, <, <=, >, >=."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def referenced_aliases(self) -> FrozenSet[str]:
        return self.left.referenced_aliases() | self.right.referenced_aliases()

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    @property
    def is_equi_join(self) -> bool:
        """True for ``a.x = b.y`` with two distinct relations."""
        return (self.op == "="
                and isinstance(self.left, ColumnRef)
                and isinstance(self.right, ColumnRef)
                and self.left.alias != self.right.alias)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@_cached_hash
@dataclass(frozen=True)
class Between(Expr):
    """``expr BETWEEN low AND high`` (inclusive)."""

    expr: Expr
    low: Expr
    high: Expr

    def referenced_aliases(self) -> FrozenSet[str]:
        return (self.expr.referenced_aliases()
                | self.low.referenced_aliases()
                | self.high.referenced_aliases())

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        return (self.expr.referenced_columns()
                | self.low.referenced_columns()
                | self.high.referenced_columns())

    def __str__(self) -> str:
        return f"{self.expr} BETWEEN {self.low} AND {self.high}"


@_cached_hash
@dataclass(frozen=True)
class And(Expr):
    """Conjunction of predicates."""

    children: Tuple[Expr, ...]

    def referenced_aliases(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for child in self.children:
            out |= child.referenced_aliases()
        return out

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        out: FrozenSet[Tuple[str, str]] = frozenset()
        for child in self.children:
            out |= child.referenced_columns()
        return out

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.children) + ")"


@_cached_hash
@dataclass(frozen=True)
class Or(Expr):
    """Disjunction of predicates."""

    children: Tuple[Expr, ...]

    def referenced_aliases(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for child in self.children:
            out |= child.referenced_aliases()
        return out

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        out: FrozenSet[Tuple[str, str]] = frozenset()
        for child in self.children:
            out |= child.referenced_columns()
        return out

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.children) + ")"


@_cached_hash
@dataclass(frozen=True)
class Arithmetic(Expr):
    """``left op right`` for op in +, -, *, / (used inside aggregates,
    e.g. ``SUM(price * quantity)``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def referenced_aliases(self) -> FrozenSet[str]:
        return self.left.referenced_aliases() | self.right.referenced_aliases()

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


#: aggregate functions supported by the front end
AGGREGATE_FUNCS = ("sum", "count", "avg", "min", "max")


@_cached_hash
@dataclass(frozen=True)
class Aggregate(Expr):
    """``FUNC(arg)``; arg is None for COUNT(*)."""

    func: str
    arg: Optional[Expr] = None
    distinct: bool = False

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r}")

    def referenced_aliases(self) -> FrozenSet[str]:
        return self.arg.referenced_aliases() if self.arg else frozenset()

    def referenced_columns(self) -> FrozenSet[Tuple[str, str]]:
        return self.arg.referenced_columns() if self.arg else frozenset()

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func.upper()}({prefix}{inner})"


# -- predicate helpers ---------------------------------------------------
def cached_aliases(expr: Expr) -> FrozenSet[str]:
    """:meth:`Expr.referenced_aliases`, memoized on the instance.

    Rule application asks for the alias set of the same (immutable)
    conjuncts thousands of times per optimization; the memo lives and
    dies with the expression, like its cached hash.
    """
    aliases = expr.__dict__.get("_aliases")
    if aliases is None:
        aliases = expr.referenced_aliases()
        object.__setattr__(expr, "_aliases", aliases)
    return aliases


def conjuncts(predicate: Optional[Expr]) -> Tuple[Expr, ...]:
    """Flatten a predicate into its top-level AND factors (memoized on
    an :class:`And`; anything else is its own single factor)."""
    if predicate is None:
        return ()
    if not isinstance(predicate, And):
        return (predicate,)
    flat = predicate.__dict__.get("_conjuncts")
    if flat is None:
        out = []
        for child in predicate.children:
            out.extend(conjuncts(child))
        flat = tuple(out)
        object.__setattr__(predicate, "_conjuncts", flat)
    return flat


def make_conjunction(parts) -> Optional[Expr]:
    """Combine predicates with AND; None for an empty list."""
    parts = tuple([p for p in parts if p is not None])
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(parts)
