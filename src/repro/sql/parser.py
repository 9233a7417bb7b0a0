"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from typing import List, Optional, Union

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, number_value, tokenize


class Parser:
    """Parses one SELECT statement from a token list."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0
        #: NUMBER and STRING tokens consumed so far
        self._literals = 0

    # -- token helpers -----------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _check_keyword(self, word: str) -> bool:
        return self._current.is_keyword(word)

    def _accept_keyword(self, word: str) -> bool:
        if self._check_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        if not self._check_keyword(word):
            raise SqlSyntaxError(
                f"expected {word.upper()!r}, found {self._current}",
                self._current.position)
        return self._advance()

    def _check_symbol(self, symbol: str) -> bool:
        cur = self._current
        return cur.type is TokenType.SYMBOL and cur.text == symbol

    def _accept_symbol(self, symbol: str) -> bool:
        if self._check_symbol(symbol):
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> Token:
        if not self._check_symbol(symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}, found {self._current}",
                self._current.position)
        return self._advance()

    def _expect_ident(self) -> str:
        cur = self._current
        if cur.type is not TokenType.IDENT:
            raise SqlSyntaxError(
                f"expected identifier, found {cur}", cur.position)
        self._advance()
        return cur.text

    # -- grammar -----------------------------------------------------------
    def parse_statement(self) -> ast.SelectStatement:
        stmt = ast.SelectStatement()
        self._expect_keyword("select")
        if self._accept_keyword("top"):
            stmt.limit = self._parse_int_literal()
        stmt.items = self._parse_select_items()
        self._expect_keyword("from")
        stmt.from_tables.append(self._parse_table_ref())
        while True:
            if self._accept_symbol(","):
                stmt.from_tables.append(self._parse_table_ref())
            elif (self._check_keyword("join")
                  or self._check_keyword("inner")
                  or self._check_keyword("cross")):
                stmt.joins.append(self._parse_join_clause())
            else:
                break
        if self._accept_keyword("where"):
            stmt.where = self._parse_expr()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            stmt.group_by.append(self._parse_expr())
            while self._accept_symbol(","):
                stmt.group_by.append(self._parse_expr())
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            stmt.order_by.append(self._parse_order_item())
            while self._accept_symbol(","):
                stmt.order_by.append(self._parse_order_item())
        if self._accept_keyword("limit"):
            stmt.limit = self._parse_int_literal()
        self._accept_symbol(";")
        if self._current.type is not TokenType.EOF:
            raise SqlSyntaxError(
                f"unexpected trailing input: {self._current}",
                self._current.position)
        return stmt

    def _parse_number(self) -> Union[int, float]:
        """Consume the current NUMBER token (one literal slot)."""
        cur = self._advance()
        self._literals += 1
        try:
            return number_value(cur.text)
        except ValueError:
            raise SqlSyntaxError(f"malformed number {cur.text!r}",
                                 cur.position) from None

    def _parse_int_literal(self) -> int:
        cur = self._current
        if cur.type is not TokenType.NUMBER:
            raise SqlSyntaxError(f"expected number, found {cur}", cur.position)
        return int(self._parse_number())

    def _parse_select_items(self) -> List[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_symbol(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_table_ref(self) -> ast.TableRef:
        table = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        return ast.TableRef(table=table, alias=alias)

    def _parse_join_clause(self) -> ast.JoinClause:
        if self._accept_keyword("cross"):
            self._expect_keyword("join")
            return ast.JoinClause(table=self._parse_table_ref(), condition=None)
        self._accept_keyword("inner")
        self._expect_keyword("join")
        table = self._parse_table_ref()
        self._expect_keyword("on")
        condition = self._parse_expr()
        return ast.JoinClause(table=table, condition=condition)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expr=expr, descending=descending)

    # expression precedence: OR < AND < comparison < additive < multiplicative
    def _parse_expr(self) -> ast.AstNode:
        return self._parse_or()

    def _parse_or(self) -> ast.AstNode:
        left = self._parse_and()
        while self._accept_keyword("or"):
            right = self._parse_and()
            left = ast.BinaryOp("or", left, right)
        return left

    def _parse_and(self) -> ast.AstNode:
        left = self._parse_comparison()
        while self._accept_keyword("and"):
            right = self._parse_comparison()
            left = ast.BinaryOp("and", left, right)
        return left

    def _parse_comparison(self) -> ast.AstNode:
        left = self._parse_additive()
        if self._accept_keyword("between"):
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return ast.BetweenOp(expr=left, low=low, high=high)
        for op in ("<=", ">=", "<>", "=", "<", ">"):
            if self._check_symbol(op):
                self._advance()
                right = self._parse_additive()
                return ast.BinaryOp(op, left, right)
        return left

    def _parse_additive(self) -> ast.AstNode:
        left = self._parse_multiplicative()
        while True:
            if self._check_symbol("+") or self._check_symbol("-"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.AstNode:
        left = self._parse_primary()
        while True:
            if self._check_symbol("*") or self._check_symbol("/"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._parse_primary())
            else:
                return left

    _AGGREGATES = frozenset({"sum", "count", "avg", "min", "max"})

    def _parse_primary(self) -> ast.AstNode:
        cur = self._current
        if cur.type is TokenType.NUMBER:
            slot = self._literals
            return ast.NumberLit(self._parse_number(), slot)
        if cur.type is TokenType.STRING:
            self._advance()
            self._literals += 1
            return ast.StringLit(cur.text, self._literals - 1)
        if self._accept_symbol("("):
            inner = self._parse_expr()
            self._expect_symbol(")")
            return inner
        if cur.type is TokenType.IDENT:
            name = self._expect_ident()
            if name in self._AGGREGATES and self._check_symbol("("):
                return self._parse_func_call(name)
            parts = [name]
            while self._accept_symbol("."):
                parts.append(self._expect_ident())
            return ast.Identifier(tuple(parts))
        raise SqlSyntaxError(f"unexpected token {cur}", cur.position)

    def _parse_func_call(self, name: str) -> ast.FuncCall:
        self._expect_symbol("(")
        distinct = self._accept_keyword("distinct")
        if self._accept_symbol("*"):
            args: tuple = (ast.Star(),)
        else:
            args = (self._parse_expr(),)
        self._expect_symbol(")")
        return ast.FuncCall(name=name, args=args, distinct=distinct)


def parse(text: str) -> ast.SelectStatement:
    """Parse one SELECT statement from query text."""
    return Parser(tokenize(text)).parse_statement()
