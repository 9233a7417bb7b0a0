"""Tests for transformation rules over the memo."""

import pytest

from repro.optimizer import Memo, Optimizer
from repro.optimizer.rules import (
    GroupRef,
    JoinAssociativity,
    JoinCommutativity,
    RuleContext,
)
from repro.plans import expressions as ex
from repro.plans.logical import LogicalGet, LogicalJoin
from repro.sql import Binder, parse


def make_task(catalog, sql):
    opt = Optimizer(catalog)
    bound = Binder(catalog).bind(parse(sql))
    return opt.task(bound)


THREE_WAY = ("SELECT f.amount FROM fact_sales f, products p, stores s "
             "WHERE f.product_id = p.product_id "
             "AND f.store_id = s.store_id")


def explore_fully(task):
    for _ in task.steps():
        pass
    return task


def find_join_gexprs(memo):
    return [g for g in memo.expressions()
            if isinstance(g.node, LogicalJoin)]


def test_commutativity_adds_swapped_expression(star_catalog):
    task = make_task(star_catalog, THREE_WAY)
    explore_fully(task)
    memo = task.memo
    # at least one group must contain both join orders
    doubled = [g for g in memo.groups
               if sum(isinstance(e.node, LogicalJoin)
                      for e in g.expressions) >= 2]
    assert doubled


def test_commuted_join_does_not_commute_back(star_catalog, monkeypatch):
    """No A,B -> B,A -> A,B churn: dedup would catch the round trip,
    but an expression commutation created must not even attempt it."""
    events = []
    apply, insert = JoinCommutativity.apply, Memo.insert_expression

    def spying_apply(self, gexpr, ctx):
        events.append(("commute", gexpr))
        return apply(self, gexpr, ctx)

    def spying_insert(self, node, child_ids, target_group):
        gexpr, created = insert(self, node, child_ids, target_group)
        events.append(("created" if created else "found", gexpr))
        return gexpr, created

    monkeypatch.setattr(JoinCommutativity, "apply", spying_apply)
    monkeypatch.setattr(Memo, "insert_expression", spying_insert)
    explore_fully(make_task(star_catalog, THREE_WAY))
    # a commutation's one result is inserted right after it fires
    commuted = [after[1] for before, after in zip(events, events[1:])
                if before[0] == "commute" and after[0] == "created"]
    assert commuted
    fired = [gexpr for kind, gexpr in events if kind == "commute"]
    assert len({id(gexpr) for gexpr in fired}) == len(fired)
    assert not any(gexpr is mirror for gexpr in fired for mirror in commuted)


def test_associativity_creates_new_intermediate_group(star_catalog):
    task = make_task(star_catalog, THREE_WAY)
    before_exploration_groups = 0
    steps = task.steps()
    next(steps)  # stage0
    before_exploration_groups = task.group_count
    for _ in steps:
        pass
    assert task.group_count > before_exploration_groups


def test_associativity_preserves_alias_coverage(star_catalog):
    """Every expression of a group must produce the same alias set."""
    task = make_task(star_catalog, THREE_WAY)
    explore_fully(task)
    memo = task.memo
    for group in memo.groups:
        alias_sets = set()
        for gexpr in group.expressions:
            if isinstance(gexpr.node, LogicalGet):
                alias_sets.add(frozenset({gexpr.node.alias}))
            elif isinstance(gexpr.node, LogicalJoin):
                covered = frozenset()
                for child in gexpr.children:
                    covered |= memo.group(child).stats.aliases
                alias_sets.add(covered)
        assert len(alias_sets) <= 1, f"group {group.id} mixes alias sets"


def test_associativity_never_invents_cross_products(star_catalog):
    """Conditions are re-split on rewrite; a rewrite that would leave
    the inner join conditionless is refused (unless the original was a
    cross product)."""
    task = make_task(star_catalog, THREE_WAY)
    explore_fully(task)
    for gexpr in find_join_gexprs(task.memo):
        node = gexpr.node
        # every equi-join in this query has a condition somewhere up the
        # tree; inner joins created by associativity must carry one
        if node.condition is None:
            left, right = gexpr.children
            # cross products only tolerable between tiny dimension inputs
            assert min(task.rows[left], task.rows[right]) <= 5000


def test_group_ref_payload_not_storable():
    ref = GroupRef(3)
    assert ref.children == ()
