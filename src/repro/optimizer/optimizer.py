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

The task keeps the state every stage shares — the memo, derived
statistics, per-task caches, the running best plan — while the stage
strategies hold the swappable logic.  The optimizer keeps the one thing
searches share: a trace per query shape holding its stage-0 memo layout
and rule exploration (see
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
from repro.optimizer.memo import GroupStats, Memo
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

    #: exploration traces kept (LRU; a full-length one holds about 3 MB
    #: of host memory); a search holds its own reference, so eviction
    #: never disturbs one in flight
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
        """The trace for ``task``'s query shape: its stage-0 memo and
        its rule exploration.  A new shape's is built from ``task``'s
        bound tree."""
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

    The task owns everything the pipeline stages share — memo, derived
    statistics, caches, the running best plan — and exposes the small
    protocol the stages drive it through: :meth:`_insert` /
    :meth:`_derive_stats` / :meth:`_make_step` for enumerators,
    :meth:`_implement` to hand a costing pass to the selection strategy.
    """

    def __init__(self, optimizer: Optimizer, bound: BoundQuery):
        self.opt = optimizer
        self.bound = bound
        self.memo = Memo()
        self.memo.base_bytes = BASE_BYTES_PER_TABLE * max(1, bound.table_count)
        self.memo.byte_multiplier = optimizer.memory_multiplier
        self._charged_bytes = 0
        self._work_units = 0
        self._best: Optional[OptimizationResult] = None
        self.result: Optional[OptimizationResult] = None
        #: worst-case cost bound, published by bounding enumerators
        #: (``ues``); None under the exhaustive memo search
        self.cost_upper_bound: Optional[float] = None
        self._alias_tables = dict(bound.aliases)
        #: id(gexpr) -> a scan's ``(cost, winner)``: its window and cost
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
            plan=best.plan, cost=best.cost, memo_bytes=self.memo.bytes_used,
            work_units=self._work_units, stage=best.stage, degraded=True)

    @property
    def bytes_used(self) -> int:
        return self.memo.bytes_used

    # ------------------------------------------------------ stage protocol
    def _make_step(self, phase: str, units: int) -> OptStep:
        delta = self.memo.bytes_used - self._charged_bytes
        self._charged_bytes = self.memo.bytes_used
        # CPU per unit is scaled inversely with effort so a low-effort
        # search models the same optimization *time* with fewer steps
        cpu = units * CPU_PER_UNIT / self.opt.effort_multiplier
        return OptStep(phase=phase, work_units=units,
                       cpu_seconds=cpu, alloc_bytes=max(0, delta))

    def _implement(self, root_gid: int, stage: int) -> None:
        """Hand one implementation pass to the selection strategy."""
        self.opt.pipeline.selection.implement(self, root_gid, stage)

    def _insert(self, node: lg.LogicalNode) -> int:
        """Insert a logical tree (deduplicated); returns its root group.

        For an enumerator that builds its own stage-0 tree; one that
        searches from the bound tree gets stage 0 from the shape's
        trace (:meth:`ShapeTrace.seed`).
        """
        child_ids = tuple([self._insert(child) for child in node.children])
        gexpr, created = self.memo.insert_expression(node, child_ids, None)
        self._ensure_stats(gexpr.group_id)
        if created and isinstance(node, lg.LogicalJoin):
            groups = self.memo.groups
            gexpr.split = _split_join_keys(
                node.condition, groups[child_ids[0]].stats.aliases,
                groups[child_ids[1]].stats.aliases)
        return gexpr.group_id

    # -------------------------------------------------------------- statistics
    def _ensure_stats(self, gid: int) -> GroupStats:
        group = self.memo.groups[gid]
        stats = group.stats
        if stats is not None:
            return stats
        gexpr = group.expressions[0]
        child_stats = [self._ensure_stats(c) for c in gexpr.children]
        group.stats = self._derive_stats(gexpr.node, child_stats)
        return group.stats

    def _derive_stats(self, node: lg.LogicalNode,
                      child_stats: List[GroupStats],
                      shared: Optional[tuple] = None) -> GroupStats:
        """A group's statistics from its first expression.

        ``shared`` is the part no literal can change
        (:meth:`CardinalityEstimator.shape_stats`); a search whose
        shape has a trace gets it from there and derives only the row
        count.
        """
        if shared is None:
            shared = self.opt.estimator.shape_stats(
                node, child_stats, self._alias_tables)
        factor, width, aliases = shared
        if isinstance(node, lg.LogicalGet):
            sel = self.opt.estimator.local_selectivity(node.table,
                                                       node.predicate)
            rows = max(1.0, factor * sel)
        elif isinstance(node, lg.LogicalJoin):
            left, right = child_stats
            rows = max(1.0, left.rows * right.rows * factor)
        elif isinstance(node, lg.LogicalFilter):
            rows = max(1.0, child_stats[0].rows * factor)
        elif isinstance(node, lg.LogicalAggregate):
            rows = self.opt.estimator.group_count(
                node.keys, self._alias_tables, child_stats[0].rows)
        else:
            rows = child_stats[0].rows
        return GroupStats(rows=rows, width=width, aliases=aliases)
