"""Tests for the SQL parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import parse
from repro.sql import ast


def test_simple_select():
    stmt = parse("SELECT a FROM t")
    assert len(stmt.items) == 1
    assert stmt.from_tables == [ast.TableRef("t", None)]
    assert stmt.where is None


def test_select_with_aliases():
    stmt = parse("SELECT t.a AS x, t.b y FROM tab t")
    assert stmt.items[0].alias == "x"
    assert stmt.items[1].alias == "y"
    assert stmt.from_tables[0].effective_alias == "t"


def test_comma_join_and_where():
    stmt = parse("SELECT a.x FROM a, b WHERE a.id = b.id AND a.v > 5")
    assert len(stmt.from_tables) == 2
    assert isinstance(stmt.where, ast.BinaryOp)
    assert stmt.where.op == "and"


def test_explicit_joins():
    stmt = parse(
        "SELECT a.x FROM a JOIN b ON a.id = b.id "
        "INNER JOIN c ON b.id = c.id")
    assert len(stmt.joins) == 2
    assert stmt.joins[1].table.table == "c"


def test_cross_join():
    stmt = parse("SELECT a.x FROM a CROSS JOIN b")
    assert stmt.joins[0].condition is None


def test_between_and_group_order():
    stmt = parse(
        "SELECT a, SUM(b) AS s FROM t WHERE c BETWEEN 1 AND 10 "
        "GROUP BY a ORDER BY s DESC")
    assert isinstance(stmt.where, ast.BetweenOp)
    assert len(stmt.group_by) == 1
    assert stmt.order_by[0].descending


def test_aggregates_parse():
    stmt = parse("SELECT COUNT(*), SUM(a * b), AVG(c), MIN(d), MAX(e) FROM t")
    first = stmt.items[0].expr
    assert isinstance(first, ast.FuncCall) and first.name == "count"
    assert isinstance(first.args[0], ast.Star)
    second = stmt.items[1].expr
    assert isinstance(second.args[0], ast.BinaryOp)
    assert second.args[0].op == "*"


def test_count_distinct():
    stmt = parse("SELECT COUNT(DISTINCT a) FROM t")
    assert stmt.items[0].expr.distinct


def test_operator_precedence_or_lowest():
    stmt = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
    assert stmt.where.op == "or"
    assert stmt.where.right.op == "and"


def test_arithmetic_precedence():
    stmt = parse("SELECT a + b * c FROM t")
    expr = stmt.items[0].expr
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_parentheses_override():
    stmt = parse("SELECT (a + b) * c FROM t")
    expr = stmt.items[0].expr
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_limit_and_top():
    assert parse("SELECT a FROM t LIMIT 5").limit == 5
    assert parse("SELECT TOP 7 a FROM t").limit == 7


def test_trailing_semicolon_ok():
    parse("SELECT a FROM t;")


@pytest.mark.parametrize("bad", [
    "SELECT",
    "SELECT a",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t GROUP a",
    "SELECT a FROM t extra garbage",
    "FROM t SELECT a",
    "SELECT a FROM t JOIN b",  # missing ON
])
def test_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse(bad)


def test_comments_are_transparent():
    a = parse("SELECT a FROM t WHERE x = 5")
    b = parse("/* adhoc ff001 */ SELECT a FROM t WHERE x = 5")
    assert a.items == b.items
    assert a.where == b.where


@pytest.mark.parametrize("text,position", [
    ("SELECT a.x FROM t a WHERE a.x = 1.2.3", 32),
    ("SELECT a.x FROM t a WHERE a.x BETWEEN 1 AND 2..5", 44),
    ("SELECT TOP 1.2.3 a.x FROM t a", 11),
    ("SELECT a.x FROM t a LIMIT 4.5.", 26),
])
def test_malformed_number_is_a_syntax_error(text, position):
    """Not the bare ValueError ``float()`` raises."""
    with pytest.raises(SqlSyntaxError) as excinfo:
        parse(text)
    assert "malformed number" in str(excinfo.value)
    assert excinfo.value.position == position


def test_literals_are_numbered_in_token_order():
    stmt = parse("SELECT TOP 3 a.x + 1 FROM t a WHERE a.y = 'k' "
                 "AND a.z BETWEEN 2.5 AND 9 LIMIT 4")
    item = stmt.items[0].expr.right
    assert (item.value, item.slot) == (1, 1)
    where = stmt.where
    assert (where.left.right.value, where.left.right.slot) == ("k", 2)
    assert (where.right.low.slot, where.right.high.slot) == (3, 4)
    # the slot is provenance, not identity
    assert item == ast.NumberLit(1)
