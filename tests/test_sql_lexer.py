"""Tests for the SQL lexer."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import TokenType, tokenize


def kinds(text):
    return [(t.type, t.text) for t in tokenize(text)[:-1]]


def test_keywords_and_identifiers_lowercased():
    tokens = kinds("SELECT Foo FROM Bar")
    assert tokens == [
        (TokenType.KEYWORD, "select"),
        (TokenType.IDENT, "foo"),
        (TokenType.KEYWORD, "from"),
        (TokenType.IDENT, "bar"),
    ]


def test_numbers_and_strings():
    tokens = kinds("42 3.14 'hello world'")
    assert tokens == [
        (TokenType.NUMBER, "42"),
        (TokenType.NUMBER, "3.14"),
        (TokenType.STRING, "hello world"),
    ]


def test_symbols_including_two_char():
    tokens = kinds("a <= b >= c <> d != e")
    symbols = [text for kind, text in tokens if kind is TokenType.SYMBOL]
    assert symbols == ["<=", ">=", "<>", "<>"]


def test_line_comments_dropped():
    tokens = kinds("select a -- comment here\n from t")
    assert (TokenType.KEYWORD, "from") in tokens
    assert all("comment" not in text for _, text in tokens)


def test_block_comments_dropped():
    tokens = kinds("/* adhoc 123abc */ select a from t")
    assert tokens[0] == (TokenType.KEYWORD, "select")


def test_unterminated_comment_rejected():
    with pytest.raises(SqlSyntaxError):
        tokenize("select /* oops")


def test_unterminated_string_rejected():
    with pytest.raises(SqlSyntaxError):
        tokenize("select 'oops")


def test_unexpected_character_rejected():
    with pytest.raises(SqlSyntaxError) as excinfo:
        tokenize("select @x")
    assert excinfo.value.position == 7


def test_eof_token_always_present():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].type is TokenType.EOF


def test_qualified_name_tokens():
    tokens = kinds("a.b")
    assert tokens == [
        (TokenType.IDENT, "a"),
        (TokenType.SYMBOL, "."),
        (TokenType.IDENT, "b"),
    ]


def test_dotted_number_is_one_token():
    """``1.2.3`` is one NUMBER; the parser is what rejects its value."""
    assert kinds("a = 1.2.3") == [
        (TokenType.IDENT, "a"),
        (TokenType.SYMBOL, "="),
        (TokenType.NUMBER, "1.2.3"),
    ]
    # a digit starts a number only where no identifier is under way
    assert kinds("t1.c2 x.1 1.5") == [
        (TokenType.IDENT, "t1"), (TokenType.SYMBOL, "."),
        (TokenType.IDENT, "c2"),
        (TokenType.IDENT, "x"), (TokenType.SYMBOL, "."),
        (TokenType.NUMBER, "1"),
        (TokenType.NUMBER, "1.5"),
    ]


def test_comment_ends_at_its_first_terminator():
    with pytest.raises(SqlSyntaxError) as excinfo:
        tokenize("/* a */ @ */ x")
    assert str(excinfo.value).startswith("unexpected character '@'")
    assert excinfo.value.position == 8


@pytest.mark.parametrize("text,message,position", [
    ("select 'a' /* oops 'b'", "unterminated comment", 11),
    ("select /*/ x", "unterminated comment", 7),
    ("select a -- c\n 'oops /* x */", "unterminated string literal", 15),
    ("select a / * b", None, None),
    ("select a - - b -- /* never opened", None, None),
])
def test_unterminated_tokens_report_where_they_start(text, message,
                                                     position):
    if message is None:
        tokenize(text)
        return
    with pytest.raises(SqlSyntaxError) as excinfo:
        tokenize(text)
    assert str(excinfo.value).startswith(message)
    assert excinfo.value.position == position
