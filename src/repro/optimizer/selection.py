"""Physical operator selection — pipeline stage 3.

A selection strategy turns the memo's logical expressions into one
best physical plan per implementation pass.  The enumerator decides
*when* passes run (at its stage boundaries); the strategy decides
*which* candidate implementation wins inside each pass.

A pass is one loop over the groups the task sees, children first (the
order its memo keeps), costing every candidate as a scalar and keeping
each group's cost and winner in lists indexed by group id.  A winner is
plain data — the physical operator, the group expression and the few
scalars its node needs.  Physical nodes are built afterwards, for the
root's winning tree only.

``CostBasedSelection`` (``cost``) compares every candidate: a hash
join building on either input, and for a grouped aggregate both hash
and sort + stream.
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional

from repro.errors import SimulationError
from repro.plans import expressions as ex
from repro.plans import logical as lg
from repro.plans import physical as ph
from repro.units import MiB


class CostBasedSelection:
    """Cost every candidate implementation, keep the cheapest."""

    __slots__ = ()

    name = "cost"

    def implement(self, task, root_gid: int, stage: int) -> None:
        """Cost every group the task sees and record the best full
        plan."""
        from repro.optimizer.optimizer import OptimizationResult

        costs, winners, sizes = self._cost_groups(task)
        if winners[root_gid] is None:
            raise SimulationError("no physical plan produced")
        # a later pass sees a superset of expressions over groups whose
        # row counts stay put, and every candidate cost is a sum that
        # rounding keeps monotone in its inputs: the root cost never
        # rises, so a pass's plan always replaces the one before it
        task._best = OptimizationResult(
            plan=self._build(task, root_gid, costs, winners, sizes),
            cost=costs[root_gid], memo_bytes=task.bytes_used,
            work_units=task._work_units, stage=stage)

    def _cost_groups(self, task) -> tuple:
        """``(costs, winners, sizes)`` of this pass, by group id.

        One loop over the groups the task sees in its memo's
        children-first order (:attr:`Memo.levels`), so every input is
        costed before the expressions that read it.  A group's winner
        is a tuple starting ``(physical class, group expression)``
        followed by the scalars :meth:`_build` needs, or None when no
        visible expression can be implemented (its cost stays
        infinite); its size is its rows times its width.  Candidates
        are compared in a stable order (the group's expression order,
        hash build-left before build-right, hash aggregate before
        sort + stream) under a strict ``<``, so cost ties keep resolving
        to the first candidate.
        """
        memo = task.memo
        groups = memo.groups
        rows = task.rows
        visible = len(rows)
        horizon = task.expression_count
        cm = task.opt.cost_model
        hash_join_cost, nl_join_cost = cm.hash_join_cost, cm.nl_join_cost
        inf = math.inf
        costs = [inf] * visible
        winners: List[Optional[tuple]] = [None] * visible
        sizes = [0.0] * visible
        # a hash build's workspace and its pressure term depend on the
        # build input alone: worked out once per group, not per join
        memories = [0.0] * visible
        pressures = [0.0] * visible
        for level in memo.levels:
            for gid in level:
                if gid >= visible:
                    break
                group = groups[gid]
                grows = rows[gid]
                size = sizes[gid] = grows * group.stats.width
                memory = memories[gid] = cm.hash_join_memory(size)
                pressures[gid] = cm.memory_pressure_cost(memory)
                best_cost = inf
                winner = None
                for gexpr in group.expressions:
                    if gexpr.index >= horizon:
                        break
                    node = gexpr.node
                    if isinstance(node, lg.LogicalJoin):
                        # nearly every expression of an explored memo is
                        # a join: costed in place, no candidate list
                        left, right = gexpr.children
                        lcost, rcost = costs[left], costs[right]
                        if lcost == inf or rcost == inf:
                            continue    # an input with no winner
                        inputs = lcost + rcost
                        lrows, rrows = rows[left], rows[right]
                        if gexpr.split[0]:
                            # hash join, built on either input; the memory
                            # term biases the choice toward the smaller one
                            cost = (inputs
                                    + hash_join_cost(lrows, rrows, grows)
                                    + pressures[left])
                            if cost < best_cost:
                                best_cost = cost
                                winner = (ph.HashJoin, gexpr,
                                          memories[left], True)
                            cost = (inputs
                                    + hash_join_cost(rrows, lrows, grows)
                                    + pressures[right])
                            if cost < best_cost:
                                best_cost = cost
                                winner = (ph.HashJoin, gexpr,
                                          memories[right], False)
                        else:
                            cost = inputs + nl_join_cost(lrows, rrows, grows)
                            if cost < best_cost:
                                best_cost = cost
                                winner = (ph.NestedLoopsJoin, gexpr)
                        continue

                    if isinstance(node, lg.LogicalGet):
                        candidates = (self._scan_candidate(task, gexpr),)
                    else:
                        child = gexpr.children[0]
                        ccost = costs[child]
                        if ccost == inf:
                            continue
                        candidates = self._unary_candidates(
                            cm, gexpr, ccost, rows[child], grows)
                    for cost, choice in candidates:
                        if cost < best_cost:
                            best_cost = cost
                            winner = choice
                if winner is not None:
                    costs[gid] = best_cost
                    winners[gid] = winner
        return costs, winners, sizes

    def _scan_candidate(self, task, gexpr) -> tuple:
        """A scan's ``(cost, winner)``; the same in every pass.  A scan
        group's one expression is the task's own node: its predicate
        sets the window."""
        gid = gexpr.group_id
        candidate = task._scan_cache.get(gid)
        if candidate is None:
            node = task.nodes[gid]
            offset, length = task.opt.estimator.clustered_scan_window(
                node.table, node.predicate)
            table = task.opt.catalog.table(node.table)
            candidate = task._scan_cache[gid] = (
                task.opt.cost_model.scan_cost(table.nbytes, length,
                                              task.rows[gid]),
                (ph.TableScan, gexpr, offset, length))
        return candidate

    def _unary_candidates(self, cm, gexpr, ccost: float, crows: float,
                          rows: float) -> List[tuple]:
        """``(cost, winner)`` candidates of a one-input operator whose
        input costs ``ccost`` and yields ``crows`` rows."""
        node = gexpr.node
        if isinstance(node, lg.LogicalFilter):
            return [(ccost + cm.filter_cost(crows), (ph.Filter, gexpr))]
        if isinstance(node, lg.LogicalAggregate):
            out = [(ccost + cm.hash_agg_cost(crows, rows),
                    (ph.HashAggregate, gexpr))]
            if node.keys:
                sort_cost = cm.sort_cost(crows)
                out.append((ccost + sort_cost + cm.stream_agg_cost(crows),
                            (ph.StreamAggregate, gexpr, sort_cost)))
            return out
        if isinstance(node, lg.LogicalProject):
            return [(ccost + cm.project_cost(crows), (ph.Project, gexpr))]
        if isinstance(node, lg.LogicalSort):
            return [(ccost + cm.sort_cost(crows), (ph.Sort, gexpr))]
        raise SimulationError(f"no implementation for {node!r}")

    def _build(self, task, gid: int, costs: List[float],
               winners: List[Optional[tuple]],
               sizes: List[float]) -> ph.PhysicalNode:
        """Materialize the winning tree below group ``gid``."""
        winner = winners[gid]
        op, gexpr = winner[:2]
        node = gexpr.node
        rows = task.rows
        cm = task.opt.cost_model
        inputs = [self._build(task, child, costs, winners, sizes)
                  for child in gexpr.children]
        memory = 0.0
        if op is ph.TableScan:
            node = task.nodes[gid]
            plan = ph.TableScan(node.alias, node.table, node.predicate)
            plan.scan_offset, plan.scan_fraction = winner[2:]
        elif op is ph.HashJoin:
            memory, build_left = winner[2:]
            build_keys, probe_keys, residual = gexpr.split
            if build_left:
                plan = ph.HashJoin(inputs[0], inputs[1],
                                   build_keys, probe_keys, residual)
            else:
                plan = ph.HashJoin(inputs[1], inputs[0],
                                   probe_keys, build_keys, residual)
        elif op is ph.NestedLoopsJoin:
            plan = ph.NestedLoopsJoin(inputs[0], inputs[1], node.condition)
            memory = min(sizes[gexpr.children[0]], 64 * MiB)
        elif op is ph.Filter:
            plan = ph.Filter(inputs[0], node.predicate)
        elif op is ph.HashAggregate:
            plan = ph.HashAggregate(inputs[0], node.keys, node.aggregates)
            memory = cm.hash_agg_memory(rows[gid],
                                        task.memo.groups[gid].stats.width)
        elif op is ph.StreamAggregate:
            child = gexpr.children[0]
            sort = ph.Sort(inputs[0], node.keys)
            sort.estimates = ph.Estimates(
                rows=rows[child], bytes=sizes[child],
                memory=cm.sort_memory(sizes[child]),
                cost=costs[child] + winner[2])
            plan = ph.StreamAggregate(sort, node.keys, node.aggregates)
        elif op is ph.Project:
            plan = ph.Project(inputs[0], node.exprs)
        else:  # ph.Sort
            plan = ph.Sort(inputs[0], node.keys, node.descending)
            memory = cm.sort_memory(sizes[gexpr.children[0]])
        plan.estimates = ph.Estimates(rows=rows[gid], bytes=sizes[gid],
                                      memory=memory, cost=costs[gid])
        return plan


# -------------------------------------------------------------- tree helpers
def _split_join_keys(condition: Optional[ex.Expr],
                     left_aliases: FrozenSet[str],
                     right_aliases: FrozenSet[str]):
    """Separate equi-join keys (build/probe) from residual predicates."""
    build_keys: List[ex.ColumnRef] = []
    probe_keys: List[ex.ColumnRef] = []
    residual: List[ex.Expr] = []
    for conjunct in ex.conjuncts(condition):
        if (isinstance(conjunct, ex.Comparison) and conjunct.is_equi_join):
            lref = conjunct.left
            rref = conjunct.right
            assert isinstance(lref, ex.ColumnRef)
            assert isinstance(rref, ex.ColumnRef)
            if lref.alias in left_aliases and rref.alias in right_aliases:
                build_keys.append(lref)
                probe_keys.append(rref)
                continue
            if rref.alias in left_aliases and lref.alias in right_aliases:
                build_keys.append(rref)
                probe_keys.append(lref)
                continue
        residual.append(conjunct)
    return (tuple(build_keys), tuple(probe_keys),
            ex.make_conjunction(residual))
