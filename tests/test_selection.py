"""Operator selection pinned to the eager-construction implementation.

Selection used to build a physical node for every group's winner in
every implementation pass; it now keeps winners as data and builds only
the root's tree.  ``tests/data/optimizer/selection/passes.json`` holds,
for seeded random join graphs and a few hand-written shapes (grouping,
a stream-aggregate winner, a nested-loops join, a hash-join residual)
under cost-based selection, the plan a task held after *every* pass as
the eager implementation produced it: ``describe()``-style lines carrying
each node's full-precision estimates.  The goldens were written by
running this module against the parent commit's ``src/``
(``PYTHONPATH=<parent>/src:tests python -c "import test_selection as t;
t.write_goldens()"``).

The rest pins what the rewrite must not change around the edges: a
pass builds only the root's tree, no pass raises the root cost, and a
join over an infeasible input still costs both inputs.
"""

import json
import os

import pytest

from test_optimizer_pipeline import random_join_graph
from tests.conftest import STAR_QUERY, build_star_catalog

from repro.optimizer import CostModel, Optimizer
from repro.optimizer.pipeline import SELECTIONS
from repro.optimizer.spec import SELECTION_NAMES, OptimizerSpec
from repro.plans import logical as lg
from repro.plans import physical as ph
from repro.sql import Binder, parse

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "optimizer",
                      "selection", "passes.json")

#: hand-written shapes over the star catalog the random graphs miss
STAR_CASES = {
    "star-grouped": STAR_QUERY,
    # one estimated input row: sort + stream beats the hash aggregate
    "stream-aggregate": (
        "SELECT s.region_id, SUM(s.store_id) FROM stores s "
        "WHERE s.store_id = 5 GROUP BY s.region_id"),
    # no equi-join conjunct: nested loops is the only join candidate
    "nested-loops": (
        "SELECT s.store_id FROM stores s, categories c "
        "WHERE s.region_id < c.department_id"),
    # an equi-join key plus a conjunct the hash join keeps as residual
    "hash-residual": (
        "SELECT f.amount FROM fact_sales f, products p, stores s "
        "WHERE f.product_id = p.product_id AND f.store_id = s.store_id "
        "AND f.amount > p.category_id AND f.date_id BETWEEN 10 AND 400"),
}


def cases():
    """``(name, catalog, sql)`` for every pinned query."""
    for seed in range(8):
        catalog, sql, _joins, _n = random_join_graph(seed)
        yield f"graph-{seed}", catalog, sql
    catalog, sql, _joins, _n = random_join_graph(3)
    yield ("graph-3-grouped", catalog,
           sql.replace("SELECT a0.pk", "SELECT a0.fk, SUM(a1.pk)")
           + " GROUP BY a0.fk ORDER BY a0.fk")
    star = build_star_catalog()
    for name, sql in STAR_CASES.items():
        yield name, star, sql


def render(node, depth=0):
    """One line per plan node: operator, estimates, operator scalars."""
    est = node.estimates
    line = (f"{'  ' * depth}{node._describe_self()} rows={est.rows!r} "
            f"bytes={est.bytes!r} memory={est.memory!r} cost={est.cost!r}")
    if isinstance(node, ph.TableScan):
        line += f" window=({node.scan_offset!r}, {node.scan_fraction!r})"
    elif isinstance(node, ph.HashJoin):
        line += f" residual={node.residual}"
    elif isinstance(node, ph.Sort):
        line += f" descending={node.descending}"
    lines = [line]
    for child in node.children:
        lines.extend(render(child, depth + 1))
    return lines


def passes(catalog, sql, selection):
    """What the task holds after each implementation pass."""
    opt = Optimizer(catalog, spec=OptimizerSpec(selection=selection))
    task = opt.task(Binder(catalog).bind(parse(sql)))
    out = []
    for step in task.steps():
        if step.phase == "implement":
            best = task._best
            out.append({"stage": best.stage, "cost": best.cost,
                        "work_units": best.work_units,
                        "memo_bytes": best.memo_bytes,
                        "plan": render(best.plan)})
    return out


def write_goldens():
    doc = {f"{name}/{selection}": passes(catalog, sql, selection)
           for name, catalog, sql in cases()
           for selection in SELECTION_NAMES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.mark.parametrize("selection", SELECTION_NAMES)
def test_every_pass_matches_eager_construction(selection):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    seen = set()
    for name, catalog, sql in cases():
        got = passes(catalog, sql, selection)
        assert got == golden[f"{name}/{selection}"], \
            f"{name} [{selection}] diverged from eager construction"
        for entry in got:
            seen.update(line.split()[0].split("(")[0]
                        for line in entry["plan"])
    # the goldens exercise every physical operator cost-based
    # selection can choose
    if selection == "cost":
        assert seen >= {"TableScan", "HashJoin", "NestedLoopsJoin",
                        "HashAggregate", "StreamAggregate", "Sort",
                        "Project"}


# ------------------------------------------------------------ the edges
def star_task(sql=STAR_QUERY, **kwargs):
    catalog = build_star_catalog()
    opt = Optimizer(catalog, **kwargs)
    return opt.task(Binder(catalog).bind(parse(sql)))


def count_node_constructions(monkeypatch):
    built = []
    original = ph.PhysicalNode.__init__

    def counting_init(self):
        original(self)
        built.append(self)

    monkeypatch.setattr(ph.PhysicalNode, "__init__", counting_init)
    return built


@pytest.mark.parametrize("selection", SELECTION_NAMES)
def test_a_pass_builds_only_the_root_tree(monkeypatch, selection):
    task = star_task(spec=OptimizerSpec(selection=selection))
    built = count_node_constructions(monkeypatch)
    for step in task.steps():
        if step.phase == "implement":
            # every node built by the pass is in the plan it produced
            assert len(built) == len(list(task._best.plan.walk()))
            assert {id(node) for node in built} \
                == {id(node) for node in task._best.plan.walk()}
            del built[:]


@pytest.mark.parametrize("selection", SELECTION_NAMES)
def test_no_pass_raises_the_root_cost(monkeypatch, selection):
    """A later pass sees more expressions over the same row counts, so
    its root cost is never above the pass before it: every pass's plan
    replaces the previous one, and none needs keeping."""
    strategy = SELECTIONS[selection]
    original = strategy.implement
    seen = []

    def recording(self, task, root_gid, stage):
        seen.append(self._cost_groups(task)[0][root_gid])
        original(self, task, root_gid, stage)

    monkeypatch.setattr(strategy, "implement", recording)
    for name, catalog, sql in cases():
        del seen[:]
        held = [entry["cost"] for entry in passes(catalog, sql, selection)]
        assert len(seen) > 1, name
        assert all(later <= earlier
                   for earlier, later in zip(seen, seen[1:])), (name, seen)
        assert held == seen, name


class RecordingCostModel(CostModel):
    """Notes which table sizes were priced as scans."""

    def __init__(self):
        super().__init__()
        self.scanned = []

    def scan_cost(self, table_bytes, scan_fraction, output_rows):
        self.scanned.append(table_bytes)
        return super().scan_cost(table_bytes, scan_fraction, output_rows)


@pytest.mark.parametrize("selection", SELECTION_NAMES)
def test_join_over_an_infeasible_input_still_costs_both(selection):
    """A join whose left input cannot be implemented contributes no
    candidate, and its right input has been costed by then.  The hollow
    group goes into the private memo a ``ues`` search builds: no search
    may write to a shape's memo."""
    sql = ("SELECT f.amount FROM fact_sales f, products p "
           "WHERE f.product_id = p.product_id")
    cost_model = RecordingCostModel()
    task = star_task(sql, cost_model=cost_model,
                     spec=OptimizerSpec(enumerator="ues",
                                        selection=selection))
    steps = task.steps()
    next(steps), next(steps)
    assert not task.opt._traces
    root_gid = task.group_count - 1
    reference = render(task._best.plan)
    memo = task.memo
    join_group = next(group for group in memo.groups
                      if isinstance(group.expressions[0].node,
                                    lg.LogicalJoin))
    # a scan nothing else references, to the right of a group with no
    # expression at all
    extra = task._insert(lg.LogicalGet("c", "categories"))
    hollow = memo.new_group()
    task.rows.append(1.0)
    gexpr, created = memo.insert_expression(
        lg.LogicalJoin(lg.LogicalGet("x", "stores"),
                       lg.LogicalGet("c", "categories")),
        (hollow.id, extra), join_group.id)
    assert created
    task.expression_count += 1      # the join is visible to the task
    categories = task.opt.catalog.table("categories").nbytes
    assert categories not in cost_model.scanned
    task._implement(root_gid, stage=1)
    assert render(task._best.plan) == reference
    assert categories in cost_model.scanned
    steps.close()
