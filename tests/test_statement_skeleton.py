"""The statement skeleton pinned to a fresh parse and bind.

``CompilationPipeline.front_end`` masks a query text's comments and
literals, and when it has seen the masked text before fills that
shape's bound tree with this text's literal values instead of parsing
and binding again (:mod:`repro.compilation.skeleton`).  Whatever the
cache holds, the result must be indistinguishable from
``Binder.bind(parse(text))`` — the tree with every predicate, the
output list, alias order, join count, literal types and slots — and a
text the front end rejects must be rejected with the very same error.
"""

import random
from dataclasses import fields

import pytest

from repro.catalog import Catalog, Column, ColumnType, Index, Table
from repro.compilation import pipeline as pipeline_module
from repro.compilation.pipeline import CompilationPipeline
from repro.compilation.skeleton import SkeletonCache, mask
from repro.config import paper_server_config
from repro.errors import BindError, SqlSyntaxError
from repro.experiments.executors import InlineExecutor
from repro.experiments.runner import make_workload
from repro.optimizer.enumeration import shape_key
from repro.plans import expressions as ex
from repro.plans import logical as lg
from repro.scenarios import get_scenario, run_scenarios
from repro.server.server import DatabaseServer
from repro.sql import Binder, TokenType, parse, tokenize
from repro.sql.lexer import number_value

INT, STR = ColumnType.INTEGER, ColumnType.VARCHAR


# ----------------------------------------------------------- observing
def canon(obj):
    """Everything about a bound tree or expression, as plain tuples:
    ``Literal(1) == Literal(1.0)`` in Python, so types are spelled out,
    and a literal's slot is part of the picture."""
    if isinstance(obj, ex.Literal):
        return ("Literal", type(obj.value).__name__, obj.value, obj.slot)
    if isinstance(obj, ex.Expr):
        return (type(obj).__name__,) + tuple(
            canon(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, lg.LogicalNode):
        return (type(obj).__name__, canon(obj.payload()),
                tuple(canon(child) for child in obj.children))
    if isinstance(obj, tuple):
        return tuple(canon(item) for item in obj)
    return obj


def seen(bound):
    """What the optimizer can see of a bound query."""
    return {"root": canon(bound.root), "output": canon(bound.output),
            "aliases": list(bound.aliases.items()),
            "join_count": bound.join_count,
            "table_count": bound.table_count}


def outcome(bind, text):
    """``("ok", seen)`` or the error's class, message and position."""
    try:
        return "ok", seen(bind(text))
    except (SqlSyntaxError, BindError) as exc:
        return (type(exc).__name__, str(exc),
                getattr(exc, "position", None))


def fresh_front_end(catalog):
    binder = Binder(catalog)
    return lambda text: binder.bind(parse(text))


def check(pipeline, catalog, text):
    """``text`` through the skeleton cache equals a fresh parse + bind;
    returns the outcome."""
    expected = outcome(fresh_front_end(catalog), text)
    got = outcome(pipeline.front_end, text)
    assert got == expected, text
    if got[0] == "ok":
        bound = pipeline.front_end(text)
        assert bound.shape_key == shape_key(bound.root), text
    return got


# ------------------------------------------- (a) the workload templates
@pytest.mark.parametrize("workload_name", ["sales", "tpch", "oltp", "mixed"])
def test_every_template_binds_as_a_fresh_parse_would(workload_name):
    workload = make_workload(workload_name)
    catalog = workload.build_catalog()
    templates = workload.template_names()
    assert templates
    with DatabaseServer(paper_server_config(), catalog) as server:
        pipeline = server.pipeline
        texts = 0
        # seed-major, so consecutive texts alternate between templates
        for seed in range(24):
            rng = random.Random(f"{workload_name}/{seed}")
            for template in templates:
                text = workload.generate_named(template, rng).text
                assert check(pipeline, catalog, text)[0] == "ok"
                texts += 1
        skeletons = pipeline.skeletons
        assert len(skeletons) == len(templates)
        # check() binds each text twice
        assert skeletons.hits == 2 * texts - len(templates)


# ---------------------------------------------------- (b) adversarial
def small_catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(Table(
        name="t1",
        columns=(Column("c2", INT, ndv=100, low=0, high=99),
                 Column("c3", INT, ndv=10, low=0, high=9),
                 Column("näme", STR)),
        row_count=1000,
        indexes=(Index("pk_t1", ("c2",), clustered=True, unique=True),)))
    cat.create_table(Table(
        name="u",
        columns=(Column("c2", INT, ndv=100, low=0, high=99),
                 Column("k", INT, ndv=5, low=0, high=4)),
        row_count=50,
        indexes=(Index("pk_u", ("c2",), clustered=True, unique=True),)))
    return cat


BASE = "SELECT a.c2 FROM t1 a WHERE "

ACCEPTED = [
    BASE + "a.c2 = 5",
    BASE + "a.c2 = 6",
    # digits and quotes inside comments
    "/* 7 'x' 8 */ " + BASE + "a.c2 = 9 -- it's 10\n",
    "/* a */ /* 'b */" + BASE + "a.c2 = /* 1 */ 2",
    BASE + "a.c2 = 5 -- trailing 77",
    # comment openers inside strings
    BASE + "a.näme = '-- not a comment' AND a.c2 = 3",
    BASE + "a.näme = '/* nor this' AND a.c2 = 4",
    BASE + "a.näme = '*/ 12 ' AND a.c2 = 4",
    BASE + "a.näme = '' AND a.c2 = 0",
    # a digit inside or next to an identifier is no literal
    "SELECT t1.c2 FROM t1 WHERE t1.c2 = 1",
    "SELECT t1.c2 FROM t1 WHERE t1.c3 = 1",
    "SELECT x .c2 FROM t1 x WHERE x.c2 = 1.5",
    "SELECT x.c2 FROM t1 x WHERE x.c2 = 15",
    "SELECT x.c2 FROM t1 x WHERE x.c2=1.AND x.c3=2",
    # != and <>, case, whitespace
    BASE + "a.c2 != 5",
    BASE + "a.c2 <> 5",
    BASE + "a.c2 <>5",
    "select A.C2 from T1 a where A.c2 = 5",
    "SELECT  a.c2\nFROM t1 a\tWHERE a.c2 = 5",
    # non-ASCII text in strings, comments, identifiers and digits
    BASE + "a.näme = 'héllo 日本 ٣'",
    "/* ünï ٣ */ " + BASE + "a.NÄME = 'z'",
    BASE + "a.c2 = ٣",
    # one slot: an int, a float, a string
    BASE + "a.c3 = 7",
    BASE + "a.c3 = 7.25",
    BASE + "a.c3 = 'seven'",
    BASE + "a.c3 = 8.",
    # one literal used twice, and twice the same value
    BASE + "a.c2 = 7 AND a.c3 = 7",
    BASE + "a.c2 = 1 AND a.c3 = 2",
    BASE + "a.c2 BETWEEN 5 AND 5",
    BASE + "a.c2 BETWEEN 5 AND 5.0",
    # a select alias in ORDER BY is one literal in two places
    "SELECT a.c2 + 1 AS y FROM t1 a ORDER BY y",
    "SELECT a.c2 + 2 AS y FROM t1 a ORDER BY y",
    "SELECT a.c2 + 2 AS y FROM t1 a ORDER BY y DESC",
    # literals outside scans: output, join condition, aggregate, OR
    "SELECT a.c2, SUM(b.k * 2) FROM t1 a, u b "
    "WHERE a.c2 = b.c2 + 1 AND b.k < 3 GROUP BY a.c2",
    "SELECT a.c2, SUM(b.k * 3) FROM t1 a, u b "
    "WHERE a.c2 = b.c2 + 4 AND b.k < 5 GROUP BY a.c2",
    "SELECT a.c2 FROM t1 a JOIN u b ON a.c2 = b.c2 "
    "WHERE a.c3 = 1 OR a.c3 = 2 OR b.k = 'x'",
    "SELECT a.c2 FROM t1 a JOIN u b ON a.c2 = b.c2 "
    "WHERE a.c3 = 3 OR a.c3 = 4 OR b.k = 'y'",
    "SELECT a.c2 FROM t1 a WHERE 1 = 1",
    "SELECT a.c2 FROM t1 a WHERE 1 = 2",
    # TOP / LIMIT take a number and nothing reads it
    "SELECT TOP 5 a.c2 FROM t1 a",
    "SELECT TOP 9 a.c2 FROM t1 a",
    "SELECT a.c2 FROM t1 a WHERE a.c3 = 1 LIMIT 10",
    "SELECT a.c2 FROM t1 a WHERE a.c3 = 2 LIMIT 20.5",
]

#: each one differs from an accepted text only in or around a literal
REJECTED = [
    # a comment separates tokens, a doubled quote is two strings
    BASE + "a.c2 = 1/**/2",
    BASE + "a.näme = 'x''y'",
    "SELECT x.1 FROM t1 x",
    BASE + "a.c2 = 1a",
    "SELECT TOP 'x' a.c2 FROM t1 a",
    "SELECT a.c2 FROM t1 a WHERE a.c3 = 2 LIMIT 'many'",
    BASE + "a.c2 = 1.2.3",
    BASE + "a.c2 BETWEEN 5 AND 5..",
    "SELECT TOP 5.5.5 a.c2 FROM t1 a",
    BASE + "a.c2 = ",
    BASE + "a.c2 = 5 5",
    BASE + "a.c2 = 'oops",
    BASE + "a.näme = 'x' AND a.c2 = 'oops -- 1",
    BASE + "a.c2 = 5 /* oops",
    BASE + "a.c2 = /* oops 5",
    "/* oops " + BASE + "a.c2 = 5",
    BASE + "a.c2 = 5 \0",
    BASE + "a.c2 = \0",
    BASE + "a.c2 = ?",
    BASE + "b.c2 = 5",
    "SELECT a.c2 FROM t9 a WHERE a.c2 = 5",
]


@pytest.mark.parametrize("order", ["forward", "backward", "shuffled"])
def test_adversarial_texts_bind_or_fail_as_a_fresh_parse_would(order):
    catalog = small_catalog()
    texts = ACCEPTED + REJECTED
    if order == "backward":
        texts.reverse()
    elif order == "shuffled":
        random.Random(11).shuffle(texts)
    with DatabaseServer(paper_server_config(), catalog) as server:
        # twice over, so every text also meets a cache that knows it
        for text in texts + texts:
            kind, *_rest = check(server.pipeline, catalog, text)
            assert (kind == "ok") == (text in ACCEPTED), text


def test_same_error_on_a_cold_and_a_warm_cache():
    """Message and position come from the parser either way."""
    catalog = small_catalog()
    pairs = [
        (BASE + "a.c2 = 12", BASE + "a.c2 = 1.2.3",
         "malformed number '1.2.3'", len(BASE) + 7),
        (BASE + "a.näme = 'x'", BASE + "a.näme = 'x",
         "unterminated string literal", len(BASE) + 9),
        ("/* tag */ " + BASE + "a.c2 = 5", "/* tag " + BASE + "a.c2 = 5",
         "unterminated comment", 0),
        ("SELECT TOP 5 a.c2 FROM t1 a", "SELECT TOP 'x' a.c2 FROM t1 a",
         "expected number, found x", 11),
    ]
    for good, bad, message, position in pairs:
        with DatabaseServer(paper_server_config(), catalog) as server:
            cold = outcome(server.pipeline.front_end, bad)
            assert outcome(server.pipeline.front_end, good)[0] == "ok"
            assert len(server.pipeline.skeletons) == 1
            warm = outcome(server.pipeline.front_end, bad)
            assert len(server.pipeline.skeletons) == 1
        assert cold == warm
        assert cold[0] == "SqlSyntaxError" and cold[2] == position
        assert cold[1].startswith(message)


def test_which_texts_share_a_skeleton():
    catalog = small_catalog()
    with DatabaseServer(paper_server_config(), catalog) as server:
        pipeline = server.pipeline

        def learned(text):
            before = len(pipeline.skeletons)
            pipeline.front_end(text)
            return len(pipeline.skeletons) - before

        assert learned(BASE + "a.c3 = 7") == 1
        # other values, a float for the int, other comments
        assert learned(BASE + "a.c3 = 8") == 0
        assert learned(BASE + "a.c3 = 7.25") == 0
        assert learned("/* x */" + BASE + "a.c3 = 1 -- y") == 1
        assert learned("/* 12 */" + BASE + "a.c3 = 4 -- 'z'") == 0
        # a string where the number was, other case, other spacing
        assert learned(BASE + "a.c3 = 'seven'") == 1
        assert learned(BASE.lower() + "a.c3 = 7") == 1
        assert learned(BASE + "a.c3  = 7") == 1
        # TOP and LIMIT values are masked like any literal
        assert learned("SELECT TOP 5 a.c2 FROM t1 a LIMIT 3") == 1
        assert learned("SELECT TOP 9 a.c2 FROM t1 a LIMIT 4") == 0
        first = pipeline.front_end("SELECT TOP 5 a.c2 FROM t1 a LIMIT 3")
        second = pipeline.front_end("SELECT TOP 9 a.c2 FROM t1 a LIMIT 4")
        assert seen(first) == seen(second)


def test_only_nodes_above_a_slot_are_rebuilt():
    catalog = small_catalog()
    sql = ("SELECT a.c2, SUM(b.k) AS s FROM t1 a, u b WHERE a.c2 = b.c2 "
           "AND b.k < {} GROUP BY a.c2 ORDER BY s")
    with DatabaseServer(paper_server_config(), catalog) as server:
        first = server.pipeline.front_end(sql.format(3))
        second = server.pipeline.front_end(sql.format(4))
    assert first.shape_key is second.shape_key
    assert first.output is second.output and first.aliases is second.aliases

    def spine(bound):
        sort = bound.root
        project = sort.child
        aggregate = project.child
        join = aggregate.child
        return sort, project, aggregate, join, join.left, join.right

    old, new = spine(first), spine(second)
    # the path from the root to scan ``b`` is new; everything hanging
    # off it is the skeleton's own
    assert all(a is not b for a, b in zip(old[:4], new[:4]))
    assert old[4] is new[4]
    assert old[5] is not new[5]
    assert old[3].condition is new[3].condition
    assert old[0].keys is new[0].keys and old[1].exprs is new[1].exprs
    assert new[5].predicate == ex.Comparison(
        "<", ex.ColumnRef("b", "k"), ex.Literal(4))


# ------------------------------------------- (c) masker == lexer, fuzzed
PIECES = ["a", "t1", "x", "_y", "select", "FROM", " ", "  ", "\n", "\t",
          "1", "23", "1.5", "7.", "1.2.3", ".", "..", "'", "'ab'", "''",
          "'--'", "'/*'", "--", "-", "/*", "*/", "/", "*", "(", ")", ",",
          "=", "<", ">", "<=", "!=", "<>", ";", "é", "日本", "٣", "+",
          "-- c 1 'q'\n", "/* c 2 'r' */", "/*/", "9a", "a9", "\0", "?"]


def test_masked_literals_are_the_lexers_literal_tokens():
    rng = random.Random(23)
    by_mask = {}
    lexed = collisions = 0
    for _ in range(40_000):
        text = "".join(rng.choice(PIECES)
                       for _ in range(rng.randint(0, 10)))
        key, values = mask(text)
        try:
            tokens = tokenize(text)[:-1]
        except SqlSyntaxError:
            continue
        lexed += 1
        literals = [t for t in tokens
                    if t.type in (TokenType.NUMBER, TokenType.STRING)]
        assert key[1] == tuple(t.type is TokenType.STRING
                               for t in literals), text
        try:
            expected = [t.text if t.type is TokenType.STRING
                        else number_value(t.text) for t in literals]
        except ValueError:
            expected = None
        assert values == expected, text
        if values is not None:
            assert [type(v) for v in values] \
                == [type(v) for v in expected], text
        # equal masks: equal token streams, literal values aside
        erased = [(t.type, None if t in literals else t.text)
                  for t in tokens]
        collisions += key in by_mask
        assert by_mask.setdefault(key, erased) == erased, text
    assert lexed > 10_000 and collisions > 5_000


def test_a_rejected_text_never_masks_like_an_accepted_one():
    """Texts the lexer rejects keep the offending character in their
    mask, where no accepted text's mask can have one."""
    rng = random.Random(29)
    accepted, rejected = set(), set()
    for _ in range(40_000):
        text = "".join(rng.choice(PIECES)
                       for _ in range(rng.randint(0, 8)))
        key, _values = mask(text)
        try:
            tokenize(text)
        except SqlSyntaxError:
            rejected.add(key)
        else:
            accepted.add(key)
    assert len(accepted) > 1000 and len(rejected) > 1000
    assert not accepted & rejected


# ------------------------------------------------------ (d) the bound
def test_skeleton_table_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(SkeletonCache, "SKELETON_CACHE_SIZE", 2)
    catalog = small_catalog()
    parses = []
    monkeypatch.setattr(
        pipeline_module, "parse",
        lambda text: parses.append(text) or parse(text))
    shapes = [BASE + "a.c2 = {}", BASE + "a.c3 = {}",
              "SELECT b.k FROM u b WHERE b.k = {}"]
    with DatabaseServer(paper_server_config(), catalog) as server:
        pipeline = server.pipeline
        for value, shape in enumerate(shapes[:2]):
            check(pipeline, catalog, shape.format(value))
        parses.clear()
        pipeline.front_end(shapes[0].format(7))     # refreshes shape 0
        pipeline.front_end(shapes[2].format(8))     # evicts shape 1
        assert len(pipeline.skeletons) == 2
        assert parses == [shapes[2].format(8)]
        check(pipeline, catalog, shapes[0].format(9))
        assert len(parses) == 1
        check(pipeline, catalog, shapes[1].format(9))
        assert len(pipeline.skeletons) == 2
        assert parses[1:] == [shapes[1].format(9)]
    assert len(pipeline.skeletons) == 0


# --------------------------------------------------- (e) the counting
def test_every_compile_replays_fills_a_skeleton_or_parses(monkeypatch):
    """``parse calls + skeleton hits == compiles - search replays``:
    the skeleton took over from the parser, nothing fell between."""
    counts = {"parse": 0, "compile": 0, "hits": 0, "replays": 0,
              "skeletons": 0}

    def counting_parse(text):
        counts["parse"] += 1
        return parse(text)

    compile_ = CompilationPipeline.compile

    def counting_compile(self, text, label=""):
        counts["compile"] += 1
        return compile_(self, text, label)

    close = DatabaseServer.close

    def counting_close(server):
        counts["hits"] += server.pipeline.skeletons.hits
        counts["replays"] += server.pipeline.search_replays
        counts["skeletons"] += len(server.pipeline.skeletons)
        close(server)

    monkeypatch.setattr(pipeline_module, "parse", counting_parse)
    monkeypatch.setattr(CompilationPipeline, "compile", counting_compile)
    monkeypatch.setattr(DatabaseServer, "close", counting_close)

    # its second variant replays searches the first one recorded
    spec = get_scenario("fairness-noisy").customized(seed=3)
    (result,) = run_scenarios([spec], executor=InlineExecutor())
    assert result.batch is not None and not result.batch.errors
    assert counts["replays"] > 0 and counts["hits"] > 0
    assert counts["parse"] + counts["hits"] \
        == counts["compile"] - counts["replays"]
    # one parse per template per server, not per text
    assert counts["parse"] == counts["skeletons"]
    assert counts["hits"] > 5 * counts["parse"]
