"""Tests for the memo structure."""

import pytest

from repro.optimizer.memo import GEXPR_BYTES, GROUP_BYTES, Memo, memo_bytes
from repro.plans import expressions as ex
from repro.plans.logical import LogicalGet, LogicalJoin


def get(alias, table="t"):
    return LogicalGet(alias=alias, table=table)


def test_insert_tree_creates_groups_bottom_up():
    memo = Memo()
    tree = LogicalJoin(get("a"), get("b"))
    root = memo.insert_tree(tree)
    assert memo.group_count == 3
    assert memo.expression_count == 3
    assert root == 2  # parents created after children


def test_duplicate_expression_deduplicated():
    memo = Memo()
    tree = LogicalJoin(get("a"), get("b"))
    first = memo.insert_tree(tree)
    second = memo.insert_tree(LogicalJoin(get("a"), get("b")))
    assert first == second
    assert memo.expression_count == 3


def test_insert_into_target_group():
    memo = Memo()
    root = memo.insert_tree(LogicalJoin(get("a"), get("b")))
    # the commuted form joins the same group
    a_id = memo.insert_tree(get("a"))
    b_id = memo.insert_tree(get("b"))
    gexpr, created = memo.insert_expression(
        LogicalJoin(get("b"), get("a")), (b_id, a_id), target_group=root)
    assert created
    assert gexpr.group_id == root
    assert len(memo.group(root).expressions) == 2


def test_insert_expression_idempotent():
    memo = Memo()
    a_id = memo.insert_tree(get("a"))
    first, created1 = memo.insert_expression(get("a"), (), None)
    assert not created1
    assert first.group_id == a_id


def footprint(memo, **kwargs):
    return memo_bytes(memo.group_count, memo.expression_count, **kwargs)


def test_bytes_accounting():
    memo = Memo()
    memo.insert_tree(LogicalJoin(get("a"), get("b")))
    expected = 1000 + 3 * GROUP_BYTES + 3 * GEXPR_BYTES
    assert footprint(memo, base_bytes=1000) == expected


def test_byte_multiplier_scales_structural_bytes():
    memo = Memo()
    memo.insert_tree(get("a"))
    baseline = footprint(memo)
    assert footprint(memo, multiplier=3.0) \
        == pytest.approx(3 * baseline, rel=0.01)
    # the base bytes are not scaled
    assert footprint(memo, base_bytes=7, multiplier=3.0) \
        == footprint(memo, multiplier=3.0) + 7


def test_bytes_grow_monotonically_with_insertions():
    memo = Memo()
    sizes = []
    for alias in "abcdef":
        memo.insert_tree(get(alias))
        sizes.append(footprint(memo))
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == len(sizes)


def test_expressions_enumeration_stable():
    memo = Memo()
    memo.insert_tree(LogicalJoin(get("a"), get("b")))
    exprs = memo.expressions()
    assert len(exprs) == 3
    assert [e.group_id for e in exprs] == [0, 1, 2]
