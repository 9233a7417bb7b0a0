"""Physical operator selection — pipeline stage 3.

A selection strategy turns the memo's logical expressions into one
best physical plan per implementation pass.  The enumerator decides
*when* passes run (at its stage boundaries); the strategy decides
*which* candidate implementation wins inside each pass.

A pass costs every candidate as a scalar and keeps each group's winner
as plain data — the physical operator, the group expression and the
few scalars its node needs.  Physical nodes are built afterwards, for
the root's winning tree only, and only when the pass does not lose to
the plan the task already holds.

``CostBasedSelection`` (``cost``) compares every candidate.
``HeuristicSelection`` (``heuristic``) skips the comparisons and fixes
the classic choices — hash-build on the smaller input, hash
aggregation — the way a syntax-driven optimizer would.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import SimulationError
from repro.optimizer.memo import GroupStats
from repro.plans import expressions as ex
from repro.plans import logical as lg
from repro.plans import physical as ph
from repro.units import MiB

#: what a group with no feasible implementation costs
_INFEASIBLE = (math.inf, None)


class CostBasedSelection:
    """Cost every candidate implementation, keep the cheapest."""

    __slots__ = ()

    name = "cost"

    def implement(self, task, root_gid: int, stage: int) -> None:
        """(Re-)cost the memo bottom-up and record the best full plan."""
        from repro.optimizer.optimizer import OptimizationResult

        best: Dict[int, tuple] = {}
        cost, winner = self._cost_group(task, root_gid, best, set())
        if winner is None:
            raise SimulationError("no physical plan produced")
        previous = task._best
        if previous is None or cost <= previous.cost:
            plan = self._build(task, root_gid, best)
        else:
            # keep the better previous plan but refresh bookkeeping
            plan, cost = previous.plan, previous.cost
        task._best = OptimizationResult(
            plan=plan, cost=cost, memo_bytes=task.memo.bytes_used,
            work_units=task._work_units, stage=stage)

    def _cost_group(self, task, gid: int, best: Dict[int, tuple],
                    visiting: set) -> tuple:
        """``(cost, winner)`` of one group in this pass.

        ``winner`` is a tuple starting ``(physical class, group
        expression)`` followed by the scalars :meth:`_build` needs, or
        None when no expression can be implemented.  Candidates are
        compared in a stable order (the group's expression order, hash
        build-left before build-right, hash aggregate before
        sort + stream) under a strict ``<``, so cost ties keep resolving
        to the first candidate.  ``visiting`` is one mutable set shared
        down the recursion (add/discard, not a frozenset per group).
        """
        found = best.get(gid)
        if found is not None:
            return found
        if gid in visiting:
            return _INFEASIBLE
        groups = task.memo.groups
        group = groups[gid]
        stats = group.stats
        cm = task.opt.cost_model
        visiting.add(gid)
        best_cost = math.inf
        winner = None
        try:
            for gexpr in group.expressions:
                node = gexpr.node
                if isinstance(node, lg.LogicalJoin):
                    # nearly every expression of an explored memo is a
                    # join: costed in place, no candidate list
                    left, right = gexpr.children
                    lcost, lwinner = (best.get(left) or self._cost_group(
                        task, left, best, visiting))
                    rcost, rwinner = (best.get(right) or self._cost_group(
                        task, right, best, visiting))
                    if lwinner is None or rwinner is None:
                        continue
                    lstats = groups[left].stats
                    rstats = groups[right].stats
                    if gexpr.split[0]:
                        # hash join; the memory term biases the choice
                        # toward building on the smaller input
                        for build_left in self._hash_join_orders(lstats,
                                                                 rstats):
                            build, probe = ((lstats, rstats) if build_left
                                            else (rstats, lstats))
                            memory = cm.hash_join_memory(build.bytes)
                            cost = (lcost + rcost
                                    + cm.hash_join_cost(build.rows,
                                                        probe.rows,
                                                        stats.rows)
                                    + cm.memory_pressure_cost(memory))
                            if cost < best_cost:
                                best_cost = cost
                                winner = (ph.HashJoin, gexpr, memory,
                                          build_left)
                    else:
                        cost = (lcost + rcost + cm.nl_join_cost(
                            lstats.rows, rstats.rows, stats.rows))
                        if cost < best_cost:
                            best_cost = cost
                            winner = (ph.NestedLoopsJoin, gexpr)
                    continue

                if isinstance(node, lg.LogicalGet):
                    candidates = (self._scan_candidate(task, gexpr),)
                else:
                    child = gexpr.children[0]
                    ccost, cwinner = self._cost_group(task, child, best,
                                                      visiting)
                    if cwinner is None:
                        continue
                    candidates = self._unary_candidates(
                        cm, gexpr, ccost, groups[child].stats.rows,
                        stats.rows)
                for cost, choice in candidates:
                    if cost < best_cost:
                        best_cost = cost
                        winner = choice
        finally:
            visiting.discard(gid)
        if winner is None:
            return _INFEASIBLE
        found = best[gid] = (best_cost, winner)
        return found

    def _scan_candidate(self, task, gexpr) -> tuple:
        """A scan's ``(cost, winner)``; the same in every pass."""
        candidate = task._scan_cache.get(id(gexpr))
        if candidate is None:
            node = gexpr.node
            offset, length = task.opt.estimator.clustered_scan_window(
                node.table, node.predicate)
            table = task.opt.catalog.table(node.table)
            rows = task.memo.groups[gexpr.group_id].stats.rows
            candidate = task._scan_cache[id(gexpr)] = (
                task.opt.cost_model.scan_cost(table.nbytes, length, rows),
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
            if node.keys and self._consider_stream_aggregate():
                sort_cost = cm.sort_cost(crows)
                out.append((ccost + sort_cost + cm.stream_agg_cost(crows),
                            (ph.StreamAggregate, gexpr, sort_cost)))
            return out
        if isinstance(node, lg.LogicalProject):
            return [(ccost + cm.project_cost(crows), (ph.Project, gexpr))]
        if isinstance(node, lg.LogicalSort):
            return [(ccost + cm.sort_cost(crows), (ph.Sort, gexpr))]
        raise SimulationError(f"no implementation for {node!r}")

    def _build(self, task, gid: int,
               best: Dict[int, tuple]) -> ph.PhysicalNode:
        """Materialize the winning tree below group ``gid``."""
        cost, winner = best[gid]
        op, gexpr = winner[:2]
        node = gexpr.node
        groups = task.memo.groups
        stats = groups[gid].stats
        cm = task.opt.cost_model
        inputs = [self._build(task, child, best)
                  for child in gexpr.children]
        memory = 0.0
        if op is ph.TableScan:
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
            memory = min(groups[gexpr.children[0]].stats.bytes, 64 * MiB)
        elif op is ph.Filter:
            plan = ph.Filter(inputs[0], node.predicate)
        elif op is ph.HashAggregate:
            plan = ph.HashAggregate(inputs[0], node.keys, node.aggregates)
            memory = cm.hash_agg_memory(stats.rows, stats.width)
        elif op is ph.StreamAggregate:
            child = gexpr.children[0]
            cstats = groups[child].stats
            sort = ph.Sort(inputs[0], node.keys)
            sort.estimates = ph.Estimates(
                rows=cstats.rows, bytes=cstats.bytes,
                memory=cm.sort_memory(cstats.bytes),
                cost=best[child][0] + winner[2])
            plan = ph.StreamAggregate(sort, node.keys, node.aggregates)
        elif op is ph.Project:
            plan = ph.Project(inputs[0], node.exprs)
        else:  # ph.Sort
            plan = ph.Sort(inputs[0], node.keys, node.descending)
            memory = cm.sort_memory(groups[gexpr.children[0]].stats.bytes)
        plan.estimates = ph.Estimates(rows=stats.rows, bytes=stats.bytes,
                                      memory=memory, cost=cost)
        return plan

    # --------------------------------------------------- strategy points
    def _hash_join_orders(self, lstats: GroupStats,
                          rstats: GroupStats) -> Tuple[bool, ...]:
        """Which hash builds to cost, as "build on the left input?"
        flags: cost-based tries both."""
        return (True, False)

    def _consider_stream_aggregate(self) -> bool:
        """Whether sort+stream competes with the hash aggregate."""
        return True


class HeuristicSelection(CostBasedSelection):
    """Fix the classic physical choices without comparing candidates.

    Hash joins always build on the smaller (fewer estimated bytes)
    input and aggregation is always hash-based — one candidate per
    expression, so implementation passes cost less and never flip a
    plan on a marginal estimate.  The cost model still prices the one
    chosen candidate: estimates and memory grants stay meaningful.
    """

    __slots__ = ()

    name = "heuristic"

    def _hash_join_orders(self, lstats: GroupStats,
                          rstats: GroupStats) -> Tuple[bool, ...]:
        return (lstats.bytes <= rstats.bytes,)

    def _consider_stream_aggregate(self) -> bool:
        return False


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
