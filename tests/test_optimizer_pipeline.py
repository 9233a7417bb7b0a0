"""Property tests for the staged optimizer pipeline.

Seeded randomized join graphs drive every registered enumerator: the
join trees must be *valid* (each relation scanned exactly once, every
join predicate applied somewhere in the plan), byte-deterministic for
a fixed seed, and the ``ues`` enumerator's pessimistic cost bound must
never undercut the memo search's actual optimum.

The spec-plumbing half pins the :class:`OptimizerSpec` wire format:
dict round-trips, unknown-name errors that list the valid strategies,
and the full spec surviving a ``CellTask`` document round-trip.
"""

import json

import pytest

from repro.catalog import Catalog, Column, ColumnType, Index, Table
from repro.errors import ConfigurationError
from repro.experiments.executors import CellTask
from repro.experiments.shards import ShardCell
from repro.optimizer import Optimizer
from repro.optimizer.pipeline import (
    ENUMERATORS,
    PARAMETERIZATIONS,
    PRECHECKS,
    SELECTIONS,
    OptimizerPipeline,
)
from repro.optimizer.spec import (
    ENUMERATOR_NAMES,
    PARAMETERIZATION_NAMES,
    PRECHECK_NAMES,
    SELECTION_NAMES,
    STAGE_CHOICES,
    OptimizerSpec,
)
from repro.plans import expressions as ex
from repro.plans import physical as ph
from repro.scenarios import ScenarioSpec, VariantSpec
from repro.sql import Binder, parse

INT = ColumnType.INTEGER


# ------------------------------------------------- random join graphs
class _Rng:
    """A tiny deterministic LCG so graph shapes never depend on the
    stdlib's (stable but opaque) Mersenne Twister stream."""

    def __init__(self, seed):
        self.state = (seed * 2654435761 + 1) % (2 ** 31)

    def next(self, bound):
        self.state = (self.state * 1103515245 + 12345) % (2 ** 31)
        return self.state % bound


def random_join_graph(seed, max_tables=6):
    """A connected random join graph: catalog, SQL text and the
    expected (alias, alias, column-pair) join conjuncts."""
    rng = _Rng(seed)
    n = 2 + rng.next(max_tables - 1)
    catalog = Catalog()
    rows = []
    for i in range(n):
        row_count = 100 + rng.next(200_000)
        rows.append(row_count)
        catalog.create_table(Table(
            name=f"t{i}",
            columns=(
                Column("pk", INT, ndv=row_count, low=0,
                       high=row_count - 1),
                Column("fk", INT, ndv=max(1, row_count // 10), low=0,
                       high=max(0, row_count // 10 - 1)),
            ),
            row_count=row_count,
            indexes=(Index(f"pk_t{i}", ("pk",), clustered=True,
                           unique=True),),
        ))
    joins = []
    for i in range(1, n):
        parent = rng.next(i)   # attach to an earlier table: connected
        joins.append((f"a{i}", "fk", f"a{parent}", "pk"))
    where = [f"{la}.{lc} = {ra}.{rc}" for la, lc, ra, rc in joins]
    # one local range predicate on a random relation keeps the
    # selectivity machinery in the loop
    pick = rng.next(n)
    hi = max(1, rows[pick] // 4)
    where.append(f"a{pick}.pk BETWEEN 0 AND {hi}")
    tables = ", ".join(f"t{i} a{i}" for i in range(n))
    sql = f"SELECT a0.pk FROM {tables} WHERE {' AND '.join(where)}"
    return catalog, sql, joins, n


def result_for(catalog, sql, enumerator):
    opt = Optimizer(catalog,
                    spec=OptimizerSpec(enumerator=enumerator))
    bound = Binder(catalog).bind(parse(sql))
    return opt.optimize(bound)


def task_for(catalog, sql, enumerator):
    opt = Optimizer(catalog,
                    spec=OptimizerSpec(enumerator=enumerator))
    bound = Binder(catalog).bind(parse(sql))
    return opt.task(bound)


def equality_pairs(plan):
    """Every alias-column equality the plan applies, as frozensets.

    Hash joins contribute their key zips; nested-loops conditions,
    filters, scan predicates and hash-join residuals contribute their
    ``col = col`` conjuncts.
    """
    pairs = set()

    def from_predicate(predicate):
        for conjunct in ex.conjuncts(predicate):
            if isinstance(conjunct, ex.Comparison) \
                    and conjunct.op == "=" \
                    and isinstance(conjunct.left, ex.ColumnRef) \
                    and isinstance(conjunct.right, ex.ColumnRef):
                pairs.add(frozenset({
                    (conjunct.left.alias, conjunct.left.column),
                    (conjunct.right.alias, conjunct.right.column)}))

    for node in plan.walk():
        if isinstance(node, ph.HashJoin):
            for bk, pk in zip(node.build_keys, node.probe_keys):
                pairs.add(frozenset({(bk.alias, bk.column),
                                     (pk.alias, pk.column)}))
            from_predicate(node.residual)
        elif isinstance(node, ph.NestedLoopsJoin):
            from_predicate(node.condition)
        elif isinstance(node, ph.Filter):
            from_predicate(node.predicate)
        elif isinstance(node, ph.TableScan):
            from_predicate(node.predicate)
    return pairs


SEEDS = range(8)


@pytest.mark.parametrize("enumerator", ENUMERATOR_NAMES)
def test_enumerators_emit_valid_join_trees(enumerator):
    """Each relation exactly once; every join predicate applied."""
    for seed in SEEDS:
        catalog, sql, joins, n = random_join_graph(seed)
        result = result_for(catalog, sql, enumerator)
        scans = [node for node in result.plan.walk()
                 if isinstance(node, ph.TableScan)]
        assert sorted(scan.alias for scan in scans) \
            == [f"a{i}" for i in range(n)], \
            f"seed {seed} [{enumerator}]: relations scanned wrong"
        applied = equality_pairs(result.plan)
        for la, lc, ra, rc in joins:
            assert frozenset({(la, lc), (ra, rc)}) in applied, \
                f"seed {seed} [{enumerator}]: dropped {la}.{lc}={ra}.{rc}"


@pytest.mark.parametrize("enumerator", ENUMERATOR_NAMES)
def test_enumerators_are_deterministic(enumerator):
    """Fixed seed, fixed plan: costs, bytes and step streams match."""
    for seed in SEEDS:
        catalog, sql, _, _ = random_join_graph(seed)
        first = task_for(catalog, sql, enumerator)
        second = task_for(catalog, sql, enumerator)
        trace = [(s.phase, s.work_units, s.alloc_bytes, s.cpu_seconds)
                 for s in first.steps()]
        assert trace == [
            (s.phase, s.work_units, s.alloc_bytes, s.cpu_seconds)
            for s in second.steps()]
        assert first.result.cost == second.result.cost
        assert first.result.memo_bytes == second.result.memo_bytes
        assert first.result.plan.describe() \
            == second.result.plan.describe()


def test_ues_bound_never_undercuts_memo_optimum():
    """The UES pessimistic bound caps the memo search's actual cost."""
    for seed in SEEDS:
        catalog, sql, _, _ = random_join_graph(seed)
        memo = result_for(catalog, sql, "memo")
        task = task_for(catalog, sql, "ues")
        for _ in task.steps():
            pass
        assert task.cost_upper_bound is not None
        assert task.cost_upper_bound >= memo.cost, \
            f"seed {seed}: bound {task.cost_upper_bound} < " \
            f"memo optimum {memo.cost}"
        # the bound also caps the greedy plan's own estimated cost
        assert task.cost_upper_bound >= task.result.cost


# ----------------------------------------------------- spec plumbing
def test_optimizer_spec_round_trips():
    for spec in (OptimizerSpec(), OptimizerSpec(enumerator="ues")):
        doc = spec.to_dict()
        assert set(doc) == set(STAGE_CHOICES)
        assert OptimizerSpec.from_dict(doc) == spec
        assert OptimizerSpec.from_dict(
            json.loads(json.dumps(doc))) == spec


def test_unknown_strategy_names_list_the_valid_ones():
    cases = (
        ({"precheck": "strict"}, PRECHECK_NAMES),
        ({"precheck": "none"}, PRECHECK_NAMES),
        ({"enumerator": "dp"}, ENUMERATOR_NAMES),
        ({"selection": "random"}, SELECTION_NAMES),
        ({"selection": "heuristic"}, SELECTION_NAMES),
        ({"parameterization": "exact"}, PARAMETERIZATION_NAMES),
        ({"parameterization": "padded"}, PARAMETERIZATION_NAMES),
    )
    for kwargs, valid in cases:
        with pytest.raises(ConfigurationError) as err:
            OptimizerSpec(**kwargs)
        for name in valid:
            assert name in str(err.value)


def test_from_dict_rejects_unknown_stages():
    with pytest.raises(ConfigurationError) as err:
        OptimizerSpec.from_dict({"rewrite": "none"})
    for stage in STAGE_CHOICES:
        assert stage in str(err.value)


def test_registries_cover_every_declared_strategy():
    """Every name the spec validates against resolves to a strategy
    whose ``name`` matches its registry key."""
    for names, registry in ((PRECHECK_NAMES, PRECHECKS),
                            (ENUMERATOR_NAMES, ENUMERATORS),
                            (SELECTION_NAMES, SELECTIONS),
                            (PARAMETERIZATION_NAMES, PARAMETERIZATIONS)):
        assert set(names) == set(registry)
        for name, strategy_cls in registry.items():
            strategy = strategy_cls()
            assert strategy.name == name
            assert not hasattr(strategy, "__dict__")  # __slots__ only
            assert strategy_cls.__doc__


def test_pipeline_resolves_spec_strategies():
    pipeline = OptimizerPipeline(OptimizerSpec(enumerator="ues"))
    assert pipeline.enumerator.name == "ues"
    assert pipeline.selection.name == "cost"
    assert pipeline.precheck.name == "basic"
    assert pipeline.parameterization.name == "estimates"
    assert OptimizerPipeline().spec == OptimizerSpec()


def test_cell_task_carries_the_optimizer_axis():
    """The stream executor's wire form round-trips both spec levels."""
    spec = ScenarioSpec(
        scenario_id="wire", title="Wire", family="test",
        workload="sales", clients=2,
        optimizer=OptimizerSpec(enumerator="ues"),
        variants=(
            VariantSpec("memo", optimizer=OptimizerSpec()),
            VariantSpec("default"),
        ))
    task = CellTask(cell=ShardCell("wire", "memo", 3), spec=spec)
    doc = json.loads(json.dumps(task.to_doc()))
    rebuilt = CellTask.from_doc(doc)
    assert rebuilt.spec == spec
    assert rebuilt.spec.optimizer == OptimizerSpec(enumerator="ues")
    assert rebuilt.spec.variants[0].optimizer == OptimizerSpec()
    assert rebuilt.spec.variants[1].optimizer is None
