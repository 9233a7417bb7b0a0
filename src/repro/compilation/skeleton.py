"""Statement skeletons: one parse and bind per statement *shape*.

The load generators make every query text unique (varied literals plus
a comment tag) so that the simulated plan cache never hits, yet the
texts are drawn from a handful of templates.  Lexing, parsing and
binding the thousandth text of a template re-derives what the first
one already showed: the same tree, with other constants in the same
places.

:func:`mask` reduces a text to what the parser can see of it besides
literal values — every character outside comments and literals, and
each literal's kind — and collects the values in token order.  Two
texts with equal masks lex to the same tokens up to those values, and
neither the parser nor the binder ever branches on a value, so they
bind to the same tree up to the :class:`~repro.plans.expressions
.Literal` nodes.  :class:`SkeletonCache` keeps, per mask, the first
such tree with the slot of every literal in it (the parser numbers
literal tokens, the binder passes the number on), and fills it with
the next text's values: nodes above a slot are rebuilt, everything else
is shared.

Masking is two C-level regex passes over the text built from the
lexer's own fragments; there is no per-token Python on this path.
This is host-side only: what a compile costs in simulated CPU and
memory does not depend on how its bound tree came about.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import fields
from typing import Callable, Optional, Tuple

from repro.optimizer.enumeration import shape_key
from repro.plans import expressions as ex
from repro.plans import logical as lg
from repro.sql.binder import BoundQuery
from repro.sql.lexer import COMMENT, IDENT, NUMBER, STRING, number_value

#: pass 1: a comment becomes one space (it separates tokens), a string
#: is stepped over so that nothing inside it reads as a comment
_STRIP = re.compile(rf"({STRING})|{COMMENT}")
#: pass 2, over comment-free text that ends in :data:`_END`: a run of
#: non-literal text, then the literal that ends it (or the end mark).
#: A digit starts a NUMBER only where no identifier is under way, which
#: is why the run consumes identifiers whole; a quote that opens no
#: string stays in the run, so such a text can never share a mask with
#: a valid one.  Every character is consumed by exactly one match, and
#: which alternative ends a run is decided by the character it stops
#: at, so nothing here backtracks.
_END = "\0"
_SCAN = re.compile(
    rf"((?:{IDENT}|[^\w'{_END}]|{_END}(?!\Z)|(?!{STRING})')*)"
    rf"(?:({STRING})|({NUMBER})|{_END})")

#: constructor arguments, as attribute names, of the logical operators
#: that are not dataclasses
_ARGUMENTS = {
    lg.LogicalJoin: ("left", "right", "condition"),
    lg.LogicalFilter: ("child", "predicate"),
    lg.LogicalProject: ("child", "exprs"),
    lg.LogicalAggregate: ("child", "keys", "aggregates"),
    lg.LogicalSort: ("child", "keys", "descending"),
}

Mask = Tuple[str, Tuple[bool, ...]]


def mask(text: str) -> Tuple[Mask, Optional[list]]:
    """``(mask, values)`` of a query text.

    The mask is the text with comments blanked and each literal cut
    out, plus whether each literal was a string; ``values`` are the
    literals' values in token order, or None when a number is
    malformed (the parser is the one to report that, with its
    position).
    """
    parts = _SCAN.split(_STRIP.sub(r"\1 ", text) + _END)
    # split() yields '' + (run, string, number, '') per match; the last
    # match is the one that hit the end mark and holds no literal
    strings, numbers = parts[2:-4:4], parts[3:-4:4]
    values: Optional[list] = []
    try:
        for string, number in zip(strings, numbers):
            values.append(string[1:-1] if number is None
                          else number_value(number))
    except ValueError:
        values = None
    return (_END.join(parts[1::4]),
            tuple([number is None for number in numbers])), values


def _filler(obj) -> Optional[Callable[[list], object]]:
    """``values -> obj with its literal slots refilled``, compiled once.

    None when ``obj`` (a logical node, an expression, a tuple of them,
    or a plain value) holds no slot and can be shared as it is.
    """
    if isinstance(obj, ex.Literal):
        slot = obj.slot
        if slot is None:
            return None
        return lambda values: ex.Literal(values[slot], slot)
    if isinstance(obj, tuple):
        parts, build = obj, tuple
    elif isinstance(obj, (ex.Expr, lg.LogicalNode)):
        cls = type(obj)
        names = _ARGUMENTS.get(cls) or [f.name for f in fields(cls)]
        parts = [getattr(obj, name) for name in names]

        def build(arguments, cls=cls):
            return cls(*arguments)
    else:
        return None
    fillers = [_filler(part) for part in parts]
    if not any(fillers):
        return None
    pairs = list(zip(fillers, parts))
    return lambda values: build([fill(values) if fill else part
                                 for fill, part in pairs])


class SkeletonCache:
    """Bound trees by statement mask, refilled per text (LRU)."""

    #: skeletons kept; one is a bound tree of a few dozen nodes, and the
    #: registered workloads have three to ten templates each
    SKELETON_CACHE_SIZE = 64

    def __init__(self):
        #: mask -> (first bound query of the shape, its parts that vary,
        #: their filler)
        self._skeletons: "OrderedDict[Mask, tuple]" = OrderedDict()
        #: binds served from a skeleton
        self.hits = 0

    def __len__(self) -> int:
        return len(self._skeletons)

    def bind(self, key: Mask, values: Optional[list]
             ) -> Optional[BoundQuery]:
        """The bound query of a text masked to ``(key, values)``, or
        None when its shape is new (or a literal is malformed): the
        caller then runs the full front end and :meth:`learn`s."""
        found = self._skeletons.get(key)
        if found is None or values is None:
            return None
        self._skeletons.move_to_end(key)
        self.hits += 1
        first, varying, fill = found
        root, output, shape = fill(values) if fill else varying
        return BoundQuery(root=root, aliases=first.aliases,
                          join_count=first.join_count, output=output,
                          shape_key=shape)

    def learn(self, key: Mask, bound: BoundQuery) -> None:
        """Keep ``bound``, fresh from ``Binder.bind(parse(text))``, as
        the skeleton of every text masked to ``key``."""
        bound.shape_key = shape_key(bound.root)
        varying = (bound.root, bound.output, bound.shape_key)
        self._skeletons[key] = (bound, varying, _filler(varying))
        if len(self._skeletons) > self.SKELETON_CACHE_SIZE:
            self._skeletons.popitem(last=False)

    def clear(self) -> None:
        self._skeletons.clear()
