"""Join enumeration — pipeline stage 2.

An enumerator owns the search loop: it seeds the memo, yields
:class:`~repro.optimizer.optimizer.OptStep` increments so the
compilation pipeline can charge memory and CPU between steps, and asks
the selection stage for an implementation pass at each of its stage
boundaries.

``MemoEnumerator`` (``memo``) is the pre-pipeline staged search: a
syntactic stage-0 plan (always available as the best-plan-so-far
fallback), then budgeted exploration rounds applying transformation
rules.  Neither how the tree lays out as memo groups nor what the
rules add to them depends on a literal, so both are worked out once
per query *shape* in a :class:`ShapeTrace`, whose memo is the only
memo of the shape: a search reads it up to the prefix of the
exploration its budget pays for, with its own nodes and row counts.
``UesEnumerator`` (``ues``) is a greedy upper-bound-driven reorder in
the spirit of UES: it orders the join left-deep by minimizing
upper-bound intermediate cardinalities into a private memo, does a
single implementation pass, and never explores — a fraction of the
work units and memo bytes, at the price of trusting the bounds.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.optimizer.memo import GroupStats, Memo
from repro.optimizer.rules import GroupRef, RuleContext
from repro.optimizer.selection import _split_join_keys
from repro.plans import expressions as ex
from repro.plans import logical as lg

#: exploration units per steps() yield
BATCH_UNITS = 50
#: budget clamp (units)
MIN_BUDGET = 30
MAX_BUDGET = 3000
#: fraction of the budget spent before the first re-costing pass
STAGE_BOUNDARIES = (0.3, 1.0)


def shape_key(node: lg.LogicalNode) -> tuple:
    """A bound tree's identity with single-table predicates dropped.

    Everything rule exploration can see: scans by alias and table, and
    every other operator by its full payload — so a literal inside a
    join condition or a residual filter makes a different shape.
    """
    if isinstance(node, lg.LogicalGet):
        return ("get", node.alias, node.table)
    return (node.payload(),) + tuple([shape_key(child)
                                      for child in node.children])


class ShapeTrace:
    """The memo and rule exploration of one query shape, built once
    and shared by every search of the shape.

    Stage 0 is the bound tree as groups: which group each node opens,
    its children, a join's key split and selectivity, widths and alias
    sets are the same for every query of the shape, so :meth:`seed`
    hands a search the trace's stage-0 groups, and the search adds its
    own nodes and row counts.

    Which expressions the transformation rules add to a memo, and in
    what order, depends on join conditions, group alias sets and the
    rules — never on a scan's predicate.  Literals only set a search's
    budget, that is, *how long a prefix* of this one sequence it
    consumes.  So the trace explores its memo (no cardinalities)
    lazily, as far as the hungriest search so far has asked, and marks
    where each exploration unit (one frontier pop, rule fired or not)
    left the memo's group and expression counts.  A search sees the
    memo up to a mark: the groups below its group count and the
    expressions below its horizon.  :meth:`replay` moves a search's
    mark forward and derives the one per-search number, each newly
    visible group's row count.

    The memo only grows and a search only reads a prefix, so searches
    of one shape may interleave freely (suspended mid-search, resumed
    after another advanced the trace) with results that cannot depend
    on who explored first.  Length is bounded by ``MAX_BUDGET`` units,
    the most any search may ask for.
    """

    def __init__(self, task):
        """Build from ``task``'s bound tree: its stage-0 memo (one
        expression per group) with every rule pending on it."""
        opt = task.opt
        self._rules = opt.rules
        self._estimator = opt.estimator
        self._alias_tables = task._alias_tables
        #: the only memo of this shape; searches read it, only
        #: :meth:`_explore` writes to it
        self.memo = memo = Memo()
        self._ctx = RuleContext(memo)
        #: the bound tree's nodes in post-order (the order
        #: ``OptimizationTask._insert`` visits them), each ``(children,
        #: factor)`` for a node that opens a group, with ``factor`` the
        #: literal-free part of its row count, or None where the node
        #: is a subtree seen before and opens no group
        self._stage0: List[Optional[tuple]] = []
        self._root = self._insert_stage0(task.bound.root)
        self._frontier: deque = deque(
            (gexpr, rule) for gexpr in memo.expressions()
            for rule in self._rules)
        #: per group id, how its row count follows from its inputs':
        #: ``(left, right, selectivity)`` for a group exploration
        #: opened, None for a stage-0 group
        self._fresh: List[Optional[tuple]] = [None] * memo.group_count
        #: ``_marks[n]`` is ``(groups, expressions)`` after ``n`` units
        self._marks: List[Tuple[int, int]] = [
            (memo.group_count, memo.expression_count)]

    def _insert_stage0(self, node: lg.LogicalNode) -> int:
        children = tuple([self._insert_stage0(child)
                          for child in node.children])
        memo = self.memo
        gexpr, created = memo.insert_expression(node, children, None)
        if created:
            groups = memo.groups
            factor, width, aliases = self._estimator.shape_stats(
                node, [groups[child].stats for child in children],
                self._alias_tables)
            memo.set_stats(gexpr.group_id, GroupStats(width, aliases))
            if isinstance(node, lg.LogicalJoin):
                gexpr.split = _split_join_keys(
                    node.condition, groups[children[0]].stats.aliases,
                    groups[children[1]].stats.aliases)
            self._stage0.append((children, factor))
        else:
            # the same subtree twice: its second visit creates nothing
            self._stage0.append(None)
        return gexpr.group_id

    def seed(self, task) -> int:
        """Point ``task`` at this shape's memo with stage 0 visible:
        the task's own nodes and the row counts they derive, from its
        own predicates; returns the root group."""
        nodes: List[lg.LogicalNode] = []
        _post_order(task.bound.root, nodes)
        rows, own = task.rows, task.nodes
        for node, opened in zip(nodes, self._stage0, strict=True):
            if opened is not None:
                children, factor = opened
                rows.append(task._derive_rows(
                    node, [rows[child] for child in children], factor))
                own.append(node)
        task.memo = self.memo
        task.expression_count = self._marks[0][1]
        return self._root

    @property
    def units(self) -> int:
        """Exploration units run so far."""
        return len(self._marks) - 1

    def has_unit(self, index: int) -> bool:
        """Whether the exploration has a unit number ``index``: false
        exactly when the frontier is empty after ``index`` units."""
        return index < self.units or bool(self._frontier)

    def replay(self, task, start: int, count: int) -> int:
        """Make units ``[start, start + count)`` visible to ``task``,
        exploring first if nobody has been that far; returns how many
        of them exist (fewer once the frontier runs dry)."""
        stop = start + count
        if stop > self.units:
            self._explore(stop)
            stop = min(stop, self.units)
        marks = self._marks
        rows = task.rows
        groups_to, horizon = marks[stop]
        for left, right, sel in self._fresh[marks[start][0]:groups_to]:
            # same operand order as OptimizationTask._derive_rows
            rows.append(max(1.0, rows[left] * rows[right] * sel))
        task.expression_count = horizon
        return stop - start

    # ---------------------------------------------------------- exploration
    def _explore(self, stop: int) -> None:
        """Run units until ``stop`` have run or the frontier is empty."""
        frontier, marks, memo, ctx = \
            self._frontier, self._marks, self.memo, self._ctx
        while frontier and len(marks) <= stop:
            gexpr, rule = frontier.popleft()
            if rule is not None and rule.matches(gexpr, ctx):
                for tree in rule.apply(gexpr, ctx):
                    self._insert(tree, gexpr.group_id, rule)
            marks.append((memo.group_count, memo.expression_count))

    def _insert(self, node: lg.LogicalNode, target_group, rule) -> int:
        """Insert a rule's result (a join tree over GroupRef leaves)."""
        if isinstance(node, GroupRef):
            return node.group
        if not isinstance(node, lg.LogicalJoin):
            raise SimulationError(
                f"rule {rule.name!r} produced {type(node).__name__}; "
                f"exploration traces hold joins only")
        left, right = children = tuple(
            [self._insert(child, None, rule) for child in node.children])
        memo = self.memo
        gexpr, created = memo.insert_expression(node, children,
                                                target_group)
        if not created:
            return gexpr.group_id
        groups = memo.groups
        lstats, rstats = groups[left].stats, groups[right].stats
        gexpr.split = _split_join_keys(node.condition, lstats.aliases,
                                       rstats.aliases)
        if target_group is None:
            sel, width, aliases = self._estimator.shape_stats(
                node, (lstats, rstats), self._alias_tables)
            memo.set_stats(gexpr.group_id, GroupStats(width, aliases))
            self._fresh.append((left, right, sel))
        # a commuted join must not commute straight back: its slot stays
        # in the queue (popping it is a unit of some search's budget)
        # but holds no rule
        commuted = rule.name == "join_commute"
        for follow_up in self._rules:
            barred = commuted and follow_up.name == "join_commute"
            self._frontier.append((gexpr, None if barred else follow_up))
        return gexpr.group_id


def _post_order(node: lg.LogicalNode, out: list) -> None:
    for child in node.children:
        _post_order(child, out)
    out.append(node)


class MemoEnumerator:
    """Staged Cascades-style search under a cost-scaled work budget."""

    __slots__ = ()

    name = "memo"

    def steps(self, task):
        """The incremental search generator (see module docstring)."""
        # -- stage 0: the syntactic (FROM-order) left-deep tree.  This
        # is the optimizer's always-available fallback plan; exploration
        # then reorders joins from it.
        trace = task.opt.shape_trace(task)
        root_gid = trace.seed(task)
        task._work_units += task.bound.table_count
        yield task._make_step("stage0", task.bound.table_count)

        task._implement(root_gid, stage=0)
        task._work_units += task.group_count
        yield task._make_step("implement", task.group_count)

        assert task._best is not None
        budget = self._budget(task, task._best.cost)

        # -- exploration stages ----------------------------------------
        spent = 0
        for boundary_index, boundary in enumerate(STAGE_BOUNDARIES,
                                                  start=1):
            limit = int(budget * boundary)
            while spent < limit and trace.has_unit(spent):
                done = trace.replay(task, spent,
                                    min(BATCH_UNITS, limit - spent))
                spent += done
                task._work_units += done
                yield task._make_step("explore", done)
            task._implement(root_gid, stage=boundary_index)
            task._work_units += task.group_count
            yield task._make_step("implement", task.group_count)
            if not trace.has_unit(spent):
                break

    def _budget(self, task, estimated_cost: float) -> int:
        """Dynamic optimization: effort scales with estimated cost."""
        njoins = task.bound.join_count
        if njoins == 0:
            return MIN_BUDGET
        units = int(estimated_cost * 8.0 * (1.0 + njoins / 4.0)
                    * task.opt.effort_multiplier)
        return max(MIN_BUDGET, min(MAX_BUDGET, units))


class UesEnumerator:
    """Greedy left-deep ordering by upper-bound cardinalities.

    No exploration rounds, no transformation rules: the join order is
    fixed up front by repeatedly attaching the relation that minimizes
    the upper-bound size of the next intermediate result (preferring
    predicate-connected relations; a cross product only when nothing
    connects).  One stage-0 insert into a private memo (the reordered
    tree is no shape's), one implementation pass.

    The enumerator also publishes ``task.cost_upper_bound``: the cost
    of the *syntactic* plan priced with selectivity-free (worst-case)
    cardinalities and full scan windows.  Because every cost function
    is monotone in its row counts and the memo search always costs the
    syntactic tree in its own stage 0, this bound can never fall below
    the memo optimizer's final plan cost — the invariant the property
    suite pins.
    """

    __slots__ = ()

    name = "ues"

    def steps(self, task):
        task.cost_upper_bound = self._pessimistic(task,
                                                  task.bound.root)[0]
        task.memo = Memo()
        root_gid = task._insert(self._reorder(task))
        task._work_units += task.bound.table_count
        yield task._make_step("stage0", task.bound.table_count)

        task._implement(root_gid, stage=0)
        task._work_units += task.group_count
        yield task._make_step("implement", task.group_count)

    # ------------------------------------------------------- reordering
    def _reorder(self, task) -> lg.LogicalNode:
        """The greedily reordered tree (the input tree when there is
        nothing to reorder or the join block has an unexpected shape)."""
        wrappers: List[lg.LogicalNode] = []
        node = task.bound.root
        while isinstance(node, (lg.LogicalProject, lg.LogicalSort,
                                lg.LogicalAggregate, lg.LogicalFilter)):
            wrappers.append(node)
            node = node.children[0]
        if not isinstance(node, lg.LogicalJoin):
            return task.bound.root

        # pool the join block: leaves in FROM order, conjuncts flat
        leaves: List[lg.LogicalGet] = []
        pool: List[ex.Expr] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, lg.LogicalJoin):
                pool.extend(ex.conjuncts(current.condition))
                stack.append(current.right)
                stack.append(current.left)
            elif isinstance(current, lg.LogicalGet):
                leaves.append(current)
            else:
                # joins over non-scan inputs: keep the bound order
                return task.bound.root
        if len(leaves) < 2:
            return task.bound.root

        est = task.opt.estimator
        bounds = {leaf.alias: max(1.0, est.table_rows(leaf.table))
                  for leaf in leaves}
        remaining = list(leaves)
        first = min(remaining, key=lambda leaf: bounds[leaf.alias])
        remaining.remove(first)
        joined = {first.alias}
        joined_bound = bounds[first.alias]
        root: lg.LogicalNode = first
        while remaining:
            best_leaf = None
            best_score = None
            best_conjuncts: Tuple[ex.Expr, ...] = ()
            for leaf in remaining:
                applicable = tuple(
                    p for p in pool
                    if p.referenced_aliases() <= joined | {leaf.alias}
                    and leaf.alias in p.referenced_aliases())
                score = joined_bound * bounds[leaf.alias]
                if applicable:
                    score *= est.join_selectivity(
                        ex.make_conjunction(applicable),
                        task._alias_tables)
                else:
                    # disconnected: rank cross products last
                    score *= 1e6
                if best_score is None or score < best_score:
                    best_leaf, best_score = leaf, score
                    best_conjuncts = applicable
            remaining.remove(best_leaf)
            for p in best_conjuncts:
                pool.remove(p)
            condition = ex.make_conjunction(best_conjuncts)
            root = lg.LogicalJoin(root, best_leaf, condition)
            joined.add(best_leaf.alias)
            joined_bound *= bounds[best_leaf.alias]
            if best_conjuncts:
                joined_bound *= est.join_selectivity(condition,
                                                     task._alias_tables)
            joined_bound = max(1.0, joined_bound)
        if pool:  # defensively keep any conjunct the walk left behind
            root = lg.LogicalFilter(root, ex.make_conjunction(pool))
        for wrapper in reversed(wrappers):
            root = wrapper.with_children((root,))
        return root

    # ------------------------------------------------------ upper bound
    def _pessimistic(self, task, node: lg.LogicalNode):
        """``(cost, rows, width, aliases)`` with worst-case rows.

        Selectivities are taken as 1.0 and scans as full windows, so
        each quantity dominates the estimate the memo search assigns
        the same syntactic operator.
        """
        est = task.opt.estimator
        cm = task.opt.cost_model
        if isinstance(node, lg.LogicalGet):
            rows = max(1.0, est.table_rows(node.table))
            width = est.table_width(node.table)
            table = task.opt.catalog.table(node.table)
            cost = cm.scan_cost(table.nbytes, 1.0, rows)
            return cost, rows, width, frozenset({node.alias})
        if isinstance(node, lg.LogicalJoin):
            lcost, lrows, lwidth, lal = self._pessimistic(task, node.left)
            rcost, rrows, rwidth, ral = self._pessimistic(task, node.right)
            rows = max(1.0, lrows * rrows)
            build_keys, _, _ = _split_join_keys(node.condition, lal, ral)
            if build_keys:
                memory = cm.hash_join_memory(lrows * lwidth)
                cost = (lcost + rcost
                        + cm.hash_join_cost(lrows, rrows, rows)
                        + cm.memory_pressure_cost(memory))
            else:
                cost = lcost + rcost + cm.nl_join_cost(lrows, rrows, rows)
            return cost, rows, lwidth + rwidth, lal | ral
        if isinstance(node, lg.LogicalFilter):
            ccost, crows, cwidth, cal = self._pessimistic(task, node.child)
            return ccost + cm.filter_cost(crows), crows, cwidth, cal
        if isinstance(node, lg.LogicalAggregate):
            ccost, crows, cwidth, cal = self._pessimistic(task, node.child)
            width = 8.0 * (len(node.keys) + len(node.aggregates)) + 10.0
            return (ccost + cm.hash_agg_cost(crows, crows),
                    crows, width, cal)
        if isinstance(node, lg.LogicalProject):
            ccost, crows, cwidth, cal = self._pessimistic(task, node.child)
            width = 8.0 * max(1, len(node.exprs))
            return ccost + cm.project_cost(crows), crows, width, cal
        if isinstance(node, lg.LogicalSort):
            ccost, crows, cwidth, cal = self._pessimistic(task, node.child)
            return ccost + cm.sort_cost(crows), crows, cwidth, cal
        raise SimulationError(f"no upper bound for {node!r}")
