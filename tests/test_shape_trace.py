"""The shape trace pinned to per-task rule application.

Every search used to apply the transformation rules to its own memo.
That loop lives on here as :class:`ReferenceEnumerator`, in a private
memo of the task; the production enumerator instead reads a prefix of
one memo and exploration shared by every search of the same query shape
(:class:`~repro.optimizer.enumeration.ShapeTrace`).  The two must be
indistinguishable from outside a task — step stream, what the task sees
of its memo at every yield, row counts, final plan — for any literals,
any budget, whoever explored first and however same-shape searches
interleave.  No search may write to its shape's memo, and every
expression a search sees must have its inputs ahead of its group in the
children-first order selection loops over.

The trace also hands every search its stage-0 memo layout; that is
compared with plain node-by-node insertion and with the whole-node
statistics derivation every task used to run (``reference_stats``).
"""

import re
from collections import deque
from itertools import chain

import pytest

from test_optimizer_pipeline import random_join_graph
from tests.conftest import build_star_catalog

from repro.optimizer import Optimizer
from repro.optimizer.enumeration import (
    BATCH_UNITS,
    MAX_BUDGET,
    MIN_BUDGET,
    STAGE_BOUNDARIES,
    MemoEnumerator,
    UesEnumerator,
    shape_key,
)
from repro.optimizer.memo import Memo
from repro.optimizer.rules import GroupRef, RuleContext
from repro.optimizer.selection import _split_join_keys
from repro.optimizer.spec import OptimizerSpec
from repro.plans import expressions as ex
from repro.plans import logical as lg
from repro.sql import Binder, BoundQuery, parse

#: an aggregate over a two-arm star, optionally sorted
BASE_STAR = ("SELECT p.category_id, s.region_id, SUM(f.amount) AS total "
             "FROM fact_sales f, products p, stores s "
             "WHERE f.product_id = p.product_id "
             "AND f.store_id = s.store_id "
             "AND f.date_id BETWEEN {lo} AND {hi} "
             "GROUP BY p.category_id, s.region_id")


# ------------------------------------------------- the reference model
class ReferenceEnumerator(MemoEnumerator):
    """Stage 2 as it was before the shape trace: each task fires the
    rules on a private memo, tracking per expression which rules
    fired."""

    __slots__ = ()

    def steps(self, task):
        task.memo = Memo()
        root_gid = task._insert(task.bound.root)
        task._work_units += task.bound.table_count
        yield task._make_step("stage0", task.bound.table_count)

        task._implement(root_gid, stage=0)
        task._work_units += task.group_count
        yield task._make_step("implement", task.group_count)

        budget = self._budget(task, task._best.cost)
        ctx = RuleContext(task.memo)
        applied_rules = {}      # id(gexpr) -> names of rules fired on it
        frontier = deque()
        for gexpr in task.memo.expressions():
            for rule in task.opt.rules:
                frontier.append((gexpr, rule))
        spent = 0
        for boundary_index, boundary in enumerate(STAGE_BOUNDARIES,
                                                  start=1):
            limit = int(budget * boundary)
            while frontier and spent < limit:
                batch = min(BATCH_UNITS, limit - spent)
                done = self._explore_batch(task, ctx, applied_rules,
                                           frontier, batch)
                if done == 0:
                    break
                spent += done
                task._work_units += done
                yield task._make_step("explore", done)
            task._implement(root_gid, stage=boundary_index)
            task._work_units += task.group_count
            yield task._make_step("implement", task.group_count)
            if not frontier:
                break

    def _explore_batch(self, task, ctx, applied_rules, frontier,
                       max_units):
        done = 0
        while frontier and done < max_units:
            gexpr, rule = frontier.popleft()
            done += 1
            fired = applied_rules.setdefault(id(gexpr), set())
            if rule.name in fired:
                continue
            fired.add(rule.name)
            if not rule.matches(gexpr, ctx):
                continue
            for tree in rule.apply(gexpr, ctx):
                created = []
                self._insert_tree(task, tree, gexpr.group_id, created)
                for new_gexpr in created:
                    if rule.name == "join_commute":
                        # a commuted join must not commute straight back
                        applied_rules[id(new_gexpr)] = {"join_commute"}
                    for r in task.opt.rules:
                        frontier.append((new_gexpr, r))
        return done

    def _insert_tree(self, task, node, target_group, created):
        if isinstance(node, GroupRef):
            return node.group
        child_ids = tuple([self._insert_tree(task, child, None, created)
                           for child in node.children])
        gexpr, was_created = task.memo.insert_expression(
            node, child_ids, target_group)
        if was_created:
            task._admit(gexpr, opened=target_group is None)
            created.append(gexpr)
        return gexpr.group_id


def reference_optimizer(catalog) -> Optimizer:
    opt = Optimizer(catalog)
    opt.pipeline.enumerator = ReferenceEnumerator()
    return opt


# ----------------------------------------------------------- observing
def visible(task, gid):
    """The expressions of group ``gid`` that ``task`` sees."""
    return [gexpr for gexpr in task.memo.groups[gid].expressions
            if gexpr.index < task.expression_count]


def own_node(task, gexpr):
    """The node ``task`` reads for ``gexpr``: a scan is its own."""
    if isinstance(gexpr.node, lg.LogicalGet):
        return task.nodes[gexpr.group_id]
    return gexpr.node


def memo_shape(task):
    """Per group id ``task`` sees: its row count, its shape's statistics
    and its visible expressions in order."""
    groups = task.memo.groups
    return [(task.rows[gid], groups[gid].stats.width,
             groups[gid].stats.aliases,
             [(type(gexpr.node), own_node(task, gexpr).payload(),
               gexpr.children, gexpr.group_id, gexpr.split)
              for gexpr in visible(task, gid)])
            for gid in range(task.group_count)]


def assert_children_first(task):
    """Every visible expression's inputs come before its group in the
    order a selection pass loops over, which holds every visible
    group."""
    rank = {gid: at for at, gid in enumerate(chain(*task.memo.levels))}
    assert rank.keys() >= set(range(task.group_count))
    for gid in range(task.group_count):
        for gexpr in visible(task, gid):
            for child in gexpr.children:
                assert rank[child] < rank[gid], (gexpr, child)


def observe(steps, task, into):
    """Advance ``steps`` by one yield, appending what is visible."""
    step = next(steps, None)
    if step is None:
        return False
    into.append((step.phase, step.work_units, step.alloc_bytes,
                 task.group_count, task.expression_count,
                 task.bytes_used, task._best and task._best.cost))
    return True


def finished(task, seen):
    assert_children_first(task)
    result = task.result
    return {"steps": seen, "memo": memo_shape(task),
            "plan": result.plan.describe(), "cost": result.cost,
            "work_units": result.work_units,
            "memo_bytes": result.memo_bytes}


def search(opt, catalog, sql):
    """Everything one complete search shows from outside."""
    task = opt.task(Binder(catalog).bind(parse(sql)))
    steps, seen = task.steps(), []
    while observe(steps, task, seen):
        pass
    return finished(task, seen)


@pytest.fixture
def budget(monkeypatch):
    """Pin the exploration budget (normally scaled from the cost)."""
    def pin(units):
        monkeypatch.setattr(MemoEnumerator, "_budget",
                            lambda self, task, cost: units)
    return pin


#: (seed, max_tables): two to nine relations; exploration ends after
#: 24 to 2430 units, and twice not within MAX_BUDGET at all
GRAPHS = [(seed, 8) for seed in range(5)] + [(7, 6), (5, 9)]


def literal_draws(sql):
    """The same statement under different single-table predicates."""
    (high,) = re.findall(r"BETWEEN 0 AND (\d+)", sql)
    high = int(high)
    yield sql
    yield sql.replace(f"BETWEEN 0 AND {high}",
                      f"BETWEEN {high // 3} AND {high * 2}")
    # a predicate fewer, a predicate more: still the same shape
    yield re.sub(r" AND a\d+\.pk BETWEEN 0 AND \d+", "", sql)
    yield sql + " AND a0.fk = 3 AND a1.pk < 40"


# ------------------------------------------- (a) trace == reference
@pytest.mark.parametrize("seed,max_tables", GRAPHS)
def test_trace_matches_per_task_exploration(budget, seed, max_tables):
    catalog, sql, _joins, _n = random_join_graph(seed, max_tables)
    shared = Optimizer(catalog)
    # small budgets first on even seeds, the exhaustive one first on odd
    # ones: who extends the trace must not matter
    budgets = [MIN_BUDGET, 517, MAX_BUDGET][::1 if seed % 2 == 0 else -1]
    for units in budgets:
        budget(units)
        for text in literal_draws(sql):
            expected = search(reference_optimizer(catalog), catalog, text)
            assert search(shared, catalog, text) == expected, \
                f"seed {seed}, budget {units}: {text}"
    assert len(shared._traces) == 1


def test_natural_budgets_match_per_task_exploration():
    """No pinned budget: literals choose how much of the trace each
    search consumes."""
    catalog, sql, _joins, _n = random_join_graph(2, 8)
    shared = Optimizer(catalog)
    spent = set()
    for text in literal_draws(sql):
        expected = search(reference_optimizer(catalog), catalog, text)
        assert search(shared, catalog, text) == expected
        spent.add(expected["work_units"])
    assert len(spent) > 1


# --------------------------------------------------- (b) cold == warm
def test_cold_search_equals_warm_search(budget):
    catalog, sql, _joins, _n = random_join_graph(3, 8)
    small, large = list(literal_draws(sql))[:2]
    warm = Optimizer(catalog)
    budget(MAX_BUDGET)
    search(warm, catalog, large)
    (trace,) = warm._traces.values()
    assert not trace.has_unit(trace.units)      # ran to exhaustion
    explored = trace.units
    budget(200)
    assert search(warm, catalog, small) \
        == search(Optimizer(catalog), catalog, small)
    assert trace.units == explored              # read, not extended


# ------------------------------------------------- (c) interleaving
def test_interleaved_searches_equal_their_solo_runs(budget):
    catalog, sql, _joins, _n = random_join_graph(4, 8)
    budget(900)
    texts = list(literal_draws(sql))[:3]
    solo = [search(Optimizer(catalog), catalog, text) for text in texts]

    shared = Optimizer(catalog)
    tasks = [shared.task(Binder(catalog).bind(parse(text)))
             for text in texts]
    runs = [(task, task.steps(), []) for task in tasks]
    abandoned_task, abandoned_steps, abandoned_seen = runs[2]
    live = runs[:2]
    turn = 0
    while live:
        # uneven turns, so each search is sometimes ahead of the trace
        # and sometimes behind it
        task, steps, seen = live[turn % len(live)]
        for _ in range(1 + turn % 3):
            if not observe(steps, task, seen):
                live.remove((task, steps, seen))
                break
        if turn < 6:
            observe(abandoned_steps, abandoned_task, abandoned_seen)
        elif turn == 6:
            abandoned_steps.close()     # a compile cut short mid-search
        turn += 1
    for (task, _steps, seen), expected in zip(runs[:2], solo):
        assert finished(task, seen) == expected
    assert abandoned_task.result is None
    assert abandoned_seen == solo[2]["steps"][:len(abandoned_seen)]
    assert 2 < len(abandoned_seen) < len(solo[2]["steps"])
    assert len(shared._traces) == 1


def memo_state(trace):
    """What a search could change in ``trace``'s memo."""
    return (trace.units, trace.memo.expression_count,
            [list(group.expressions) for group in trace.memo.groups])


def unchanged(before, after):
    """Same counts, and each group's expression list by identity."""
    units, count, groups = before
    return (units, count, len(groups)) == (after[0], after[1],
                                           len(after[2])) \
        and all(len(old) == len(new)
                and all(a is b for a, b in zip(old, new))
                for old, new in zip(groups, after[2]))


def test_searches_never_write_to_their_shapes_memo(budget):
    """Interleaved same-shape searches and ``ues`` searches of the same
    optimizer: a step that runs no exploration unit leaves every trace's
    memo as it was, and each search sees its inputs children first."""
    catalog, sql, _joins, _n = random_join_graph(4, 8)
    budget(900)
    texts = list(literal_draws(sql))[:3]
    opt = Optimizer(catalog)
    runs = []
    for text in texts:
        bound = Binder(catalog).bind(parse(text))
        memo_task, ues_task = opt.task(bound), opt.task(bound)
        runs += [(memo_task, memo_task.steps()),
                 (ues_task, UesEnumerator().steps(ues_task))]
    quiet = explored = 0
    while runs:
        for run in list(runs):
            task, steps = run
            before = [(trace, memo_state(trace))
                      for trace in opt._traces.values()]
            if next(steps, None) is None:
                runs.remove(run)
                continue
            assert_children_first(task)
            for trace, state in before:
                after = memo_state(trace)
                if after[0] == state[0]:
                    quiet += 1
                    assert unchanged(state, after)
                else:
                    explored += 1
    assert len(opt._traces) == 1
    assert quiet > explored > 0


# ------------------------------------------------ (d) stage 0 itself
def reference_stats(task, node, child_stats):
    """Statistics derivation as every task ran it for every node,
    before a trace handed out the literal-free part: ``(rows, width,
    aliases)`` from the children's."""
    est = task.opt.estimator
    if isinstance(node, lg.LogicalGet):
        rows = est.table_rows(node.table)
        sel = est.local_selectivity(node.table, node.predicate)
        return (max(1.0, rows * sel), est.table_width(node.table),
                frozenset({node.alias}))
    if isinstance(node, lg.LogicalJoin):
        (lrows, lwidth, laliases), (rrows, rwidth, raliases) = child_stats
        sel = est.join_selectivity(node.condition, task._alias_tables)
        return (max(1.0, lrows * rrows * sel), lwidth + rwidth,
                laliases | raliases)
    ((rows, width, aliases),) = child_stats
    if isinstance(node, lg.LogicalFilter):
        sel = 1.0
        for _ in ex.conjuncts(node.predicate):
            sel *= 0.1
        return max(1.0, rows * sel), width, aliases
    if isinstance(node, lg.LogicalAggregate):
        groups = est.group_count(node.keys, task._alias_tables, rows)
        return (groups, 8.0 * (len(node.keys) + len(node.aggregates)) + 10.0,
                aliases)
    if isinstance(node, lg.LogicalProject):
        return rows, 8.0 * max(1, len(node.exprs)), aliases
    assert isinstance(node, lg.LogicalSort)
    return rows, width, aliases


def stage0(opt, bound):
    """A task of ``opt`` stopped at its first yield: stage 0 is in."""
    task = opt.task(bound)
    steps = task.steps()
    first = next(steps)
    assert first.phase == "stage0"
    steps.close()
    return task


def assert_stage0_is(task, tree):
    """``task`` sees exactly ``tree``, inserted node by node, with its
    own nodes and row counts the reference derivation reproduces bit
    for bit."""
    plain = Memo()
    plain.insert_tree(tree)
    assert (task.group_count, task.expression_count) \
        == (plain.group_count, plain.expression_count)
    groups = task.memo.groups
    seen = []
    for gid, expected in enumerate(plain.groups):
        (gexpr,), (wanted,) = visible(task, gid), expected.expressions
        node = task.nodes[gid]
        assert (node.payload(), gexpr.children, gexpr.group_id) \
            == (wanted.node.payload(), wanted.children, wanted.group_id)
        # the memo holds the shape's node: this one up to scan literals
        assert shape_key(gexpr.node) == shape_key(node)
        stats = groups[gid].stats
        seen.append((task.rows[gid], stats.width, stats.aliases))
        child_stats = [seen[child] for child in gexpr.children]
        # rows, width and aliases, exactly
        assert seen[gid] == reference_stats(task, node, child_stats)
        if isinstance(node, lg.LogicalJoin):
            assert gexpr.split == _split_join_keys(
                node.condition, *[aliases for *_, aliases in child_stats])
        else:
            assert gexpr.split is None


STAR_SHAPES = [
    BASE_STAR + " ORDER BY total DESC",
    BASE_STAR,
    "SELECT f.amount FROM fact_sales f WHERE f.date_id < {hi}",
]


def stage0_inputs():
    for seed, max_tables in GRAPHS:
        catalog, sql, _joins, _n = random_join_graph(seed, max_tables)
        yield catalog, list(literal_draws(sql))
    catalog = build_star_catalog()
    for shape in STAR_SHAPES:
        yield catalog, [shape.format(lo=lo, hi=hi)
                        for lo, hi in ((1, 9), (100, 900), (0, 5))]


@pytest.mark.parametrize("enumerator", ["memo", "ues"])
def test_stage0_memo_on_first_and_repeat_sightings(enumerator):
    for catalog, texts in stage0_inputs():
        shared = Optimizer(catalog,
                           spec=OptimizerSpec(enumerator=enumerator))
        binder = Binder(catalog)
        # the first text builds the shape's trace, the others read it,
        # and the first one again must not see what they left behind
        for text in texts + texts[:1]:
            task = stage0(shared, binder.bind(parse(text)))
            tree = task.bound.root if enumerator == "memo" \
                else UesEnumerator()._reorder(task)
            assert_stage0_is(task, tree)
            reference = stage0(reference_optimizer(catalog),
                               binder.bind(parse(text)))
            if enumerator == "memo":
                assert memo_shape(task) == memo_shape(reference)
        assert len(shared._traces) == (enumerator == "memo")


def test_stage0_with_a_residual_filter_and_a_repeated_subtree():
    """Shapes the binder never emits, hand-built."""
    catalog = build_star_catalog()
    opt = Optimizer(catalog)

    def bound(value):
        f = lg.LogicalGet("f", "fact_sales", ex.Comparison(
            "<", ex.ColumnRef("f", "date_id"), ex.Literal(value)))
        p = lg.LogicalGet("p", "products")
        join = lg.LogicalJoin(f, p, ex.Comparison(
            "=", ex.ColumnRef("f", "product_id"),
            ex.ColumnRef("p", "product_id")))
        residual = lg.LogicalFilter(lg.LogicalJoin(join, p), ex.And((
            ex.Comparison(">", ex.ColumnRef("f", "amount"), ex.Literal(7)),
            ex.Comparison("<", ex.ColumnRef("f", "amount"),
                          ex.Literal(70)))))
        root = lg.LogicalProject(residual, (ex.ColumnRef("f", "amount"),))
        return BoundQuery(root=root,
                          aliases={"f": "fact_sales", "p": "products"},
                          join_count=2, output=root.exprs)

    rows = set()
    for value in (10, 500, 10):
        task = stage0(opt, bound(value))
        assert_stage0_is(task, task.bound.root)
        # scan ``p`` appears twice and is one group
        assert task.group_count == 6
        rows.add(task.rows[-1])
    assert len(rows) == 2 and len(opt._traces) == 1


# ---------------------------------------------------- (e) the shape key
def star_key(sql):
    catalog = build_star_catalog()
    return shape_key(Binder(catalog).bind(parse(sql)).root)


BASE = ("SELECT p.category_id, SUM(f.amount) FROM fact_sales f, products p "
        "WHERE f.product_id = p.product_id {extra} GROUP BY p.category_id")


def test_scan_literals_do_not_change_the_shape():
    keys = {star_key(BASE.format(extra=extra)) for extra in (
        "", "AND f.date_id BETWEEN 1 AND 9",
        "AND f.date_id BETWEEN 100 AND 900 AND p.category_id = 3")}
    assert len(keys) == 1


def test_everything_else_changes_the_shape():
    base = star_key(BASE.format(extra=""))
    others = [
        # a literal inside a join condition
        star_key(BASE.format(extra="AND f.amount > p.category_id + 1")),
        star_key(BASE.format(extra="AND f.amount > p.category_id + 2")),
        # another alias, another table, another grouping
        star_key(BASE.replace("products p", "products q")
                 .replace("p.", "q.").format(extra="")),
        star_key("SELECT s.region_id, SUM(f.amount) FROM fact_sales f, "
                 "stores s WHERE f.store_id = s.store_id "
                 "GROUP BY s.region_id"),
        star_key(BASE.format(extra="") + ", p.product_id"),
    ]
    assert len({base, *others}) == len(others) + 1


def test_residual_filter_literals_change_the_shape():
    join = lg.LogicalJoin(lg.LogicalGet("a", "t"), lg.LogicalGet("b", "u"))

    def filtered(value):
        return lg.LogicalFilter(join, ex.Comparison(
            ">", ex.ColumnRef("a", "x"), ex.Literal(value)))

    assert shape_key(filtered(1)) == shape_key(filtered(1))
    assert shape_key(filtered(1)) != shape_key(filtered(2))
    assert shape_key(filtered(1)) != shape_key(join)


# ------------------------------------------------------ (f) the bound
def test_trace_table_is_bounded_and_eviction_is_harmless(monkeypatch):
    monkeypatch.setattr(Optimizer, "SHAPE_TRACE_SIZE", 2)
    catalog = build_star_catalog()
    shapes = [
        "SELECT f.amount FROM fact_sales f, products p, stores s "
        "WHERE f.product_id = p.product_id AND f.store_id = s.store_id",
        "SELECT f.amount FROM fact_sales f, stores s "
        "WHERE f.store_id = s.store_id",
        "SELECT p.category_id FROM products p, categories c "
        "WHERE p.category_id = c.category_id",
        "SELECT f.amount FROM fact_sales f, products p "
        "WHERE f.product_id = p.product_id",
    ]
    solo = search(Optimizer(catalog), catalog, shapes[0])

    opt = Optimizer(catalog)
    task = opt.task(Binder(catalog).bind(parse(shapes[0])))
    steps, seen = task.steps(), []
    for _ in range(3):                  # into the first explore batch
        observe(steps, task, seen)
    (held,) = opt._traces.values()
    for sql in shapes[1:]:
        search(opt, catalog, sql)
        assert len(opt._traces) <= 2
    assert held not in opt._traces.values()
    while observe(steps, task, seen):
        pass
    assert finished(task, seen) == solo
    # the shape comes back as a fresh trace, with the same answer
    assert search(opt, catalog, shapes[0]) == solo
    assert len(opt._traces) == 2


def test_closing_the_optimizer_forgets_its_traces():
    catalog = build_star_catalog()
    opt = Optimizer(catalog)
    sql = ("SELECT f.amount FROM fact_sales f, stores s "
           "WHERE f.store_id = s.store_id")
    first = search(opt, catalog, sql)
    assert len(opt._traces) == 1
    opt.close()
    assert not opt._traces
    assert search(opt, catalog, sql) == first
