"""Tokenizer for the SQL subset.

What a comment, a string, a number and an identifier look like is
defined once, as the regex fragments below.  The lexer is one compiled
alternation of them; the statement-skeleton masker
(:mod:`repro.compilation.skeleton`) builds its own patterns from the
same fragments, so the two cannot disagree about where a literal
starts and ends.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterator, List, Union

from repro.errors import SqlSyntaxError

KEYWORDS = frozenset({
    "select", "from", "where", "group", "by", "order", "having",
    "join", "inner", "left", "right", "outer", "cross", "on",
    "and", "or", "not", "between", "as", "asc", "desc",
    "distinct", "limit", "top",
})

# -- the shared recognisers ------------------------------------------------
#: ``-- to end of line`` or ``/* block */``; a ``/*`` with no ``*/``
#: after it is *not* a comment (the lexer reports it)
COMMENT = r"--[^\n]*|/\*(?s:.*?)\*/"
#: a quoted string; there is no escape, so the next quote ends it
STRING = r"'[^']*'"
#: digits and dots after a leading digit: ``1.2.3`` is one token, and
#: :func:`number_value` is what rejects it
NUMBER = r"\d[\d.]*"
IDENT = r"[^\W\d]\w*"


def number_value(text: str) -> Union[int, float]:
    """The value of a NUMBER token; ``ValueError`` when malformed."""
    return float(text) if "." in text else int(text)


class TokenType(Enum):
    IDENT = auto()
    KEYWORD = auto()
    NUMBER = auto()
    STRING = auto()
    SYMBOL = auto()
    EOF = auto()


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text == word

    def __str__(self) -> str:
        return self.text if self.type is not TokenType.EOF else "<eof>"


_BLANKS = rf"(?:\s+|{COMMENT})*"
#: whitespace and comments, then one token; the named group that
#: matched is the token's kind.  The skipped run sits in a lookahead so
#: that a failure after it cannot reopen it (a comment must end at its
#: *first* ``*/``), and ``/`` is a symbol only where it does not open a
#: comment, so an unterminated ``/*`` matches nothing.
_TOKEN = re.compile(
    rf"(?=({_BLANKS}))\1"
    rf"(?:(?P<word>{IDENT})|(?P<number>{NUMBER})|(?P<string>{STRING})"
    rf"|(?P<symbol><=|>=|<>|!=|/(?!\*)|[(),.*=<>+\-;])|(?P<eof>\Z))")
_SKIP_BLANKS = re.compile(_BLANKS)


class Lexer:
    """Converts query text into a token stream, dropping comments."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def tokens(self) -> Iterator[Token]:
        text = self.text
        match = _TOKEN.match
        while True:
            found = match(text, self.pos)
            if found is None:
                raise self._error()
            kind = found.lastgroup
            start = found.start(kind)
            self.pos = found.end()
            if kind == "word":
                lowered = found.group(kind).lower()
                yield Token(TokenType.KEYWORD if lowered in KEYWORDS
                            else TokenType.IDENT, lowered, start)
            elif kind == "number":
                yield Token(TokenType.NUMBER, found.group(kind), start)
            elif kind == "string":
                yield Token(TokenType.STRING, found.group(kind)[1:-1], start)
            elif kind == "symbol":
                symbol = found.group(kind)
                # normalize != to <>
                yield Token(TokenType.SYMBOL,
                            "<>" if symbol == "!=" else symbol, start)
            else:
                yield Token(TokenType.EOF, "", start)
                return

    def _error(self) -> SqlSyntaxError:
        """Why nothing lexes at the first unskippable character."""
        start = _SKIP_BLANKS.match(self.text, self.pos).end()
        if self.text.startswith("/*", start):
            return SqlSyntaxError("unterminated comment", start)
        if self.text[start] == "'":
            return SqlSyntaxError("unterminated string literal", start)
        return SqlSyntaxError(
            f"unexpected character {self.text[start]!r}", start)


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` fully (including the trailing EOF token)."""
    return list(Lexer(text).tokens())
