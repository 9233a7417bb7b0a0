"""Tests for the staged optimizer: plans, stages, memory accounting."""

import pytest

from repro.optimizer import Optimizer
from repro.plans import physical as ph
from repro.sql import Binder, parse
from repro.units import MiB


def optimize(catalog, sql, **kwargs):
    opt = Optimizer(catalog, **kwargs)
    bound = Binder(catalog).bind(parse(sql))
    return opt.optimize(bound)


def task_for(catalog, sql, **kwargs):
    opt = Optimizer(catalog, **kwargs)
    bound = Binder(catalog).bind(parse(sql))
    return opt.task(bound)


def test_single_table_plan(star_catalog):
    result = optimize(star_catalog,
                      "SELECT f.amount FROM fact_sales f "
                      "WHERE f.date_id BETWEEN 0 AND 99")
    scan = next(node for node in result.plan.walk()
                if isinstance(node, ph.TableScan))
    assert scan.table == "fact_sales"
    assert scan.scan_fraction == pytest.approx(0.1, abs=0.01)
    assert result.cost > 0


def test_star_query_plan_structure(star_catalog, star_query):
    result = optimize(star_catalog, star_query)
    nodes = list(result.plan.walk())
    kinds = [type(node).__name__ for node in nodes]
    assert "HashAggregate" in kinds or "StreamAggregate" in kinds
    joins = [node for node in nodes if isinstance(node, ph.HashJoin)]
    assert len(joins) == 2


def test_hash_join_builds_on_smaller_side(star_catalog, star_query):
    """With the memory-pressure cost term, the dimension tables (small)
    should end up as hash-build sides, the fact side as probe."""
    result = optimize(star_catalog, star_query)
    for join in result.plan.walk():
        if isinstance(join, ph.HashJoin):
            assert (join.build.estimates.rows
                    <= join.probe.estimates.rows * 1.01)


def test_exploration_never_worsens_cost(star_catalog, star_query):
    """The stage-N plan must cost no more than the stage-0 plan."""
    task = task_for(star_catalog, star_query)
    stage_costs = []
    for step in task.steps():
        if step.phase == "implement":
            stage_costs.append(task._best.cost)
    assert stage_costs, "no implement passes ran"
    assert stage_costs[-1] <= stage_costs[0] + 1e-9


def test_memory_grows_with_join_count(star_catalog):
    small = optimize(star_catalog,
                     "SELECT f.amount FROM fact_sales f WHERE f.date_id = 1")
    big = optimize(star_catalog,
                   "SELECT SUM(f.amount) FROM fact_sales f, products p, "
                   "stores s, categories c "
                   "WHERE f.product_id = p.product_id "
                   "AND f.store_id = s.store_id "
                   "AND p.category_id = c.category_id")
    assert big.memo_bytes > small.memo_bytes
    assert big.work_units > small.work_units


def test_steps_alloc_bytes_sum_to_memo_bytes(star_catalog, star_query):
    task = task_for(star_catalog, star_query)
    total = sum(step.alloc_bytes for step in task.steps())
    assert total == task.bytes_used
    assert task.result is not None
    assert task.result.memo_bytes == task.bytes_used


def test_steps_consume_cpu(star_catalog, star_query):
    task = task_for(star_catalog, star_query)
    cpu = sum(step.cpu_seconds for step in task.steps())
    assert cpu > 0


def test_best_plan_so_far_before_and_after_stage0(star_catalog, star_query):
    task = task_for(star_catalog, star_query)
    assert task.best_plan_so_far() is None  # nothing explored yet
    steps = task.steps()
    next(steps)   # stage0 insert
    next(steps)   # first implement pass
    fallback = task.best_plan_so_far()
    assert fallback is not None
    assert fallback.degraded
    assert fallback.plan is not None
    steps.close()


def test_effort_multiplier_reduces_work(star_catalog, star_query):
    full = optimize(star_catalog, star_query, effort_multiplier=1.0)
    low = optimize(star_catalog, star_query, effort_multiplier=0.1)
    assert low.work_units <= full.work_units


def test_memory_multiplier_preserves_profile(star_catalog, star_query):
    """effort 1/k + memory multiplier k keeps memo bytes in the same
    regime (the .fast() trade used by benchmarks).  Small queries
    saturate exploration before the budget matters, so the ratio is
    bounded rather than exact."""
    full = optimize(star_catalog, star_query)
    fast = optimize(star_catalog, star_query,
                    effort_multiplier=0.25, memory_multiplier=4.0)
    assert 0.5 * full.memo_bytes <= fast.memo_bytes <= 4.5 * full.memo_bytes


def test_oltp_style_query_is_small(star_catalog):
    result = optimize(star_catalog,
                      "SELECT s.region_id FROM stores s WHERE s.store_id = 5")
    assert result.memo_bytes < 1 * MiB
    assert result.work_units < 100


def test_estimates_populated_on_all_nodes(star_catalog, star_query):
    result = optimize(star_catalog, star_query)
    for node in result.plan.walk():
        assert node.estimates.rows >= 0
        assert node.estimates.cost >= 0


def test_describe_renders_plan(star_catalog, star_query):
    result = optimize(star_catalog, star_query)
    text = result.plan.describe()
    assert "TableScan" in text
    assert "rows=" in text
