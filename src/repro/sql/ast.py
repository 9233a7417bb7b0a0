"""Abstract syntax tree produced by the parser (pre-binding)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


class AstNode:
    """Base class for AST nodes."""


@dataclass(frozen=True)
class Identifier(AstNode):
    """A possibly-qualified name: ``col`` or ``alias.col``."""

    parts: Tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class NumberLit(AstNode):
    value: Union[int, float]
    #: which of the text's literal tokens this is, counting NUMBER and
    #: STRING tokens from 0 (provenance, not identity)
    slot: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class StringLit(AstNode):
    value: str
    slot: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class Star(AstNode):
    """``*`` inside COUNT(*)."""


@dataclass(frozen=True)
class BinaryOp(AstNode):
    """Any infix operation: comparisons, AND/OR, arithmetic."""

    op: str
    left: AstNode
    right: AstNode


@dataclass(frozen=True)
class BetweenOp(AstNode):
    expr: AstNode
    low: AstNode
    high: AstNode


@dataclass(frozen=True)
class FuncCall(AstNode):
    name: str
    args: Tuple[AstNode, ...]
    distinct: bool = False


@dataclass(frozen=True)
class SelectItem(AstNode):
    expr: AstNode
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef(AstNode):
    table: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class JoinClause(AstNode):
    """An explicit ``JOIN table ON condition`` element."""

    table: TableRef
    condition: Optional[AstNode]


@dataclass(frozen=True)
class OrderItem(AstNode):
    expr: AstNode
    descending: bool = False


@dataclass
class SelectStatement(AstNode):
    """One SELECT query."""

    items: List[SelectItem] = field(default_factory=list)
    from_tables: List[TableRef] = field(default_factory=list)
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[AstNode] = None
    group_by: List[AstNode] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
