"""The staged optimization driver.

One :class:`OptimizationTask` optimizes one bound query.  Its
:meth:`~OptimizationTask.steps` generator emits :class:`OptStep`
increments — (work units, CPU seconds, newly allocated bytes) — so the
compilation pipeline can charge memory to the task's account and CPU to
the scheduler *between* optimizer steps.  That is the integration point
the paper's gateways need: blocking keyed to the bytes the task has
allocated so far, not to fixed pipeline stages.

The search itself is delegated to an
:class:`~repro.optimizer.pipeline.OptimizerPipeline` — support
pre-check, join enumeration, physical operator selection, plan
parameterization — selected by an
:class:`~repro.optimizer.spec.OptimizerSpec`.  The default pipeline
emulates SQL Server's dynamic optimization exactly as the pre-pipeline
monolith did: a greedy heuristic join order seeds the memo (stage 0 —
this plan is always available as the best-plan-so-far fallback);
exploration rounds then apply transformation rules under a work budget
that scales with the estimated cost of the query, with an
implementation (costing) pass at each stage boundary.

The task keeps the state every stage shares — how far it sees into its
memo, its row counts, a per-task cache, the running best plan — while
the stage strategies hold the swappable logic.  The optimizer keeps the
one thing searches share: a trace per query shape holding the shape's
memo and rule exploration (see
:class:`~repro.optimizer.enumeration.ShapeTrace`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.errors import SimulationError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.enumeration import ShapeTrace, shape_key
from repro.optimizer.memo import (GroupExpression, GroupStats, Memo,
                                  memo_bytes)
from repro.optimizer.pipeline import OptimizerPipeline
from repro.optimizer.rules import DEFAULT_RULES, Rule
from repro.optimizer.selection import _split_join_keys
from repro.optimizer.spec import OptimizerSpec
from repro.plans import logical as lg
from repro.plans import physical as ph
from repro.sql.binder import BoundQuery
from repro.units import KiB

#: simulated bytes of parse/bind structures per referenced table
BASE_BYTES_PER_TABLE = 192 * KiB
#: CPU seconds per exploration work unit (on one paper-testbed CPU)
CPU_PER_UNIT = 0.011


@dataclass
class OptStep:
    """One increment of optimization progress."""

    phase: str
    work_units: int
    cpu_seconds: float
    alloc_bytes: int


@dataclass
class OptimizationResult:
    """The optimizer's output for one query."""

    plan: ph.PhysicalNode
    cost: float
    memo_bytes: int
    work_units: int
    stage: int
    #: True when this is a best-plan-so-far fallback rather than the
    #: fully-optimized plan (extension (b) of the paper)
    degraded: bool = False


class Optimizer:
    """Per-server optimizer factory.

    Queries share no cost, cardinality or plan; the only state kept
    across them is what no literal can influence, per query shape: how
    the bound tree lays out as memo groups and what the rules add.
    """

    #: exploration traces kept (LRU; a full-length one holds 1.6 to
    #: 12 MB of host memory); a search holds its own reference, so
    #: eviction never disturbs one in flight
    SHAPE_TRACE_SIZE = 32

    def __init__(self, catalog: Catalog,
                 cost_model: Optional[CostModel] = None,
                 rules: Tuple[Rule, ...] = DEFAULT_RULES,
                 effort_multiplier: float = 1.0,
                 memory_multiplier: float = 1.0,
                 spec: Optional[OptimizerSpec] = None):
        self.catalog = catalog
        self.estimator = CardinalityEstimator(catalog)
        self.cost_model = cost_model or CostModel()
        self.rules = rules
        #: scales every budget; lets experiments ablate optimizer effort
        self.effort_multiplier = effort_multiplier
        #: scales simulated memo bytes; paired with a reduced effort it
        #: preserves the full-effort memory profile at lower CPU cost
        self.memory_multiplier = memory_multiplier
        #: the resolved stage strategies, shared by every task
        self.pipeline = OptimizerPipeline(spec)
        #: shape key -> the exploration every search of that shape reads
        self._traces: "OrderedDict[tuple, ShapeTrace]" = OrderedDict()

    @property
    def spec(self) -> OptimizerSpec:
        return self.pipeline.spec

    def task(self, bound: BoundQuery) -> "OptimizationTask":
        """A fresh optimization task for one bound query."""
        return OptimizationTask(self, bound)

    def optimize(self, bound: BoundQuery) -> OptimizationResult:
        """Run a task to completion synchronously (tests, examples)."""
        task = self.task(bound)
        for _ in task.steps():
            pass
        result = task.result
        if result is None:
            raise SimulationError("optimization finished without a result")
        return result

    def shape_trace(self, task: "OptimizationTask") -> ShapeTrace:
        """The trace for ``task``'s query shape: its memo and its rule
        exploration.  A new shape's is built from ``task``'s bound
        tree."""
        key = task.bound.shape_key
        if key is None:
            key = shape_key(task.bound.root)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = ShapeTrace(task)
            if len(self._traces) > self.SHAPE_TRACE_SIZE:
                self._traces.popitem(last=False)
        else:
            self._traces.move_to_end(key)
        return trace

    def close(self) -> None:
        """Forget every exploration trace (each pins a memo)."""
        self._traces.clear()


class OptimizationTask:
    """State of one in-flight query optimization.

    A task reads a memo it does not own — its shape's, shared with
    every other search of the shape, or a private one an enumerator
    built — and holds what is its own: a row count per group id, its
    own stage-0 nodes (its scans carry its predicates), how many groups
    it sees (the row counts') and its expression horizon (it sees the
    expressions whose index is below it).  Around that it keeps the
    running best plan and a per-task cache, and exposes the small
    protocol the stages drive it through: :meth:`_insert` /
    :meth:`_derive_rows` / :meth:`_make_step` for enumerators,
    :meth:`_implement` to hand a costing pass to the selection strategy.
    """

    def __init__(self, optimizer: Optimizer, bound: BoundQuery):
        self.opt = optimizer
        self.bound = bound
        #: the memo this search reads; set by the enumerator
        self.memo: Optional[Memo] = None
        #: row count per visible group, by group id
        self.rows: List[float] = []
        #: this query's own node per stage-0 group, by group id
        self.nodes: List[lg.LogicalNode] = []
        #: the memo's expressions with an index below this are visible
        self.expression_count = 0
        self._base_bytes = BASE_BYTES_PER_TABLE * max(1, bound.table_count)
        self._charged_bytes = 0
        self._work_units = 0
        self._best: Optional[OptimizationResult] = None
        self.result: Optional[OptimizationResult] = None
        #: worst-case cost bound, published by bounding enumerators
        #: (``ues``); None under the exhaustive memo search
        self.cost_upper_bound: Optional[float] = None
        self._alias_tables = dict(bound.aliases)
        #: group id -> a scan's ``(cost, winner)``: its window and cost
        #: depend on this query's literals but not on the pass
        self._scan_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ API
    def steps(self) -> Iterator[OptStep]:
        """The incremental search generator (see module docstring)."""
        pipeline = self.opt.pipeline
        pipeline.precheck.check(self.bound)
        yield from pipeline.enumerator.steps(self)
        self.result = pipeline.parameterization.finalize(self)
        return

    def has_best_plan(self) -> bool:
        """Cheap probe for :meth:`best_plan_so_far` (no construction)."""
        return self._best is not None

    def best_plan_so_far(self) -> Optional[OptimizationResult]:
        """The best complete plan found so far, flagged as degraded.

        This is the paper's extension (b): under memory pressure the
        server returns "the best plan from the set of already explored
        plans instead of simply returning out-of-memory errors."
        """
        if self._best is None:
            return None
        best = self._best
        return OptimizationResult(
            plan=best.plan, cost=best.cost, memo_bytes=self.bytes_used,
            work_units=self._work_units, stage=best.stage, degraded=True)

    @property
    def group_count(self) -> int:
        """Groups this search sees."""
        return len(self.rows)

    @property
    def bytes_used(self) -> int:
        """Simulated footprint of what this search sees of its memo."""
        return memo_bytes(len(self.rows), self.expression_count,
                          self._base_bytes, self.opt.memory_multiplier)

    # ------------------------------------------------------ stage protocol
    def _make_step(self, phase: str, units: int) -> OptStep:
        used = self.bytes_used
        delta = used - self._charged_bytes
        self._charged_bytes = used
        # CPU per unit is scaled inversely with effort so a low-effort
        # search models the same optimization *time* with fewer steps
        cpu = units * CPU_PER_UNIT / self.opt.effort_multiplier
        return OptStep(phase=phase, work_units=units,
                       cpu_seconds=cpu, alloc_bytes=max(0, delta))

    def _implement(self, root_gid: int, stage: int) -> None:
        """Hand one implementation pass to the selection strategy."""
        self.opt.pipeline.selection.implement(self, root_gid, stage)

    def _insert(self, node: lg.LogicalNode) -> int:
        """Insert a logical tree (deduplicated) into this task's private
        memo as its stage 0; returns the tree's root group.

        For an enumerator that builds its own stage-0 tree; one that
        searches from the bound tree reads its shape's memo
        (:meth:`ShapeTrace.seed`).
        """
        child_ids = tuple([self._insert(child) for child in node.children])
        gexpr, created = self.memo.insert_expression(node, child_ids, None)
        if created:
            self.nodes.append(node)
            self._admit(gexpr, opened=True)
        return gexpr.group_id

    def _admit(self, gexpr: GroupExpression, opened: bool) -> None:
        """Make an expression just created in this task's private memo
        visible: set a join's key split and, when it ``opened`` a group,
        describe the group and derive its row count."""
        memo, rows = self.memo, self.rows
        node, children = gexpr.node, gexpr.children
        child_stats = [memo.groups[child].stats for child in children]
        if opened:
            factor, width, aliases = self.opt.estimator.shape_stats(
                node, child_stats, self._alias_tables)
            memo.set_stats(gexpr.group_id, GroupStats(width, aliases))
            rows.append(self._derive_rows(
                node, [rows[child] for child in children], factor))
        if isinstance(node, lg.LogicalJoin):
            gexpr.split = _split_join_keys(
                node.condition, child_stats[0].aliases,
                child_stats[1].aliases)
        self.expression_count += 1

    # -------------------------------------------------------------- statistics
    def _derive_rows(self, node: lg.LogicalNode, child_rows: List[float],
                     factor: Optional[float]) -> float:
        """The row count of the group ``node`` opens, from its
        children's and ``factor``, the part of it no literal can change
        (:meth:`CardinalityEstimator.shape_stats`)."""
        if isinstance(node, lg.LogicalGet):
            sel = self.opt.estimator.local_selectivity(node.table,
                                                       node.predicate)
            return max(1.0, factor * sel)
        if isinstance(node, lg.LogicalJoin):
            left, right = child_rows
            return max(1.0, left * right * factor)
        if isinstance(node, lg.LogicalFilter):
            return max(1.0, child_rows[0] * factor)
        if isinstance(node, lg.LogicalAggregate):
            return self.opt.estimator.group_count(
                node.keys, self._alias_tables, child_rows[0])
        return child_rows[0]
