"""Every search's step stream, pinned.

The compilation pipeline charges a search by its ``OptStep`` stream —
phase, work units, CPU seconds and allocated bytes — so no change to
how the optimizer holds its memo may move a single step.
``tests/data/optimizer/streams/search_streams.json`` holds, for SALES
and OLTP templates at seeded literals (at the smoke and paper presets'
effort) and for the seeded random join graphs of
``test_optimizer_pipeline``, under both enumerators and cost-based
selection:

* per yield, the step and the task's group count, expression count and
  simulated bytes right after it;
* per implementation pass, the stage and cost of the plan the task
  then holds;
* the final plan's ``describe()``.

Two more entries run two same-shape searches step by step, turn about,
where the second asks for a longer prefix of the shape's exploration
than the first has explored.

The goldens were written by ``write_goldens()`` against the commit
before searches shared their shape's memo, where a task's counts were
read from its own memo.
"""

import json
import os
import random

import pytest

from test_optimizer_pipeline import random_join_graph

from repro.experiments.runner import ExperimentConfig, make_workload
from repro.optimizer import Optimizer
from repro.optimizer.spec import (
    ENUMERATOR_NAMES,
    SELECTION_NAMES,
    OptimizerSpec,
)
from repro.sql import Binder, parse

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "optimizer",
                      "streams", "search_streams.json")

PRESETS = ("smoke", "paper")
#: literal draws per template
DRAWS = 2


def optimizer(catalog, preset, enumerator, selection):
    config = ExperimentConfig(preset=preset).build_server_config()
    return Optimizer(catalog, effort_multiplier=config.optimizer_effort,
                     memory_multiplier=config.optimizer_memory_multiplier,
                     spec=OptimizerSpec(enumerator=enumerator,
                                        selection=selection))


def catalogs():
    """``(catalog, [(name, sql), ...])`` per catalog; one optimizer
    serves each list, so later searches read traces earlier ones
    built."""
    for name in ("sales", "oltp"):
        workload = make_workload(name)
        texts = []
        for template in workload.template_names():
            rng = random.Random(f"{template}/streams")
            texts += [(f"{template}/{draw}",
                       workload.generate_named(template, rng).text)
                      for draw in range(DRAWS)]
        yield workload.build_catalog(), texts
    for seed in range(8):
        catalog, sql, _joins, _n = random_join_graph(seed)
        yield catalog, [(f"graph-{seed}", sql)]


def observe(task, step, into):
    """Append what one yield shows from outside the task."""
    into["steps"].append([step.phase, step.work_units, step.cpu_seconds,
                          step.alloc_bytes, task.group_count,
                          task.expression_count, task.bytes_used])
    if step.phase == "implement":
        into["passes"].append([task._best.stage, task._best.cost])


def fresh_record():
    return {"steps": [], "passes": []}


def finish(task, record):
    record["plan"] = task.result.plan.describe()
    return record


def stream(opt, catalog, sql):
    task = opt.task(Binder(catalog).bind(parse(sql)))
    record = fresh_record()
    for step in task.steps():
        observe(task, step, record)
    return finish(task, record)


def streams(enumerator, selection):
    out = {}
    for preset in PRESETS:
        for catalog, texts in catalogs():
            opt = optimizer(catalog, preset, enumerator, selection)
            for name, sql in texts:
                out[f"{name}/{preset}/{enumerator}/{selection}"] = \
                    stream(opt, catalog, sql)
    return out


#: two texts of one SALES template whose budgets differ: the second
#: reads further into the shared exploration than the first ever does
INTERLEAVED_TEMPLATE = "q01_revenue_by_region"


def interleaved_texts():
    workload = make_workload("sales")
    rng = random.Random(f"{INTERLEAVED_TEMPLATE}/streams")
    texts = [workload.generate_named(INTERLEAVED_TEMPLATE, rng).text
             for _ in range(DRAWS)]
    # the first draw has the larger budget: it goes second
    return workload.build_catalog(), texts[::-1]


def interleaved(selection):
    """Both searches of one optimizer, one step each in turn."""
    catalog, texts = interleaved_texts()
    opt = optimizer(catalog, "paper", "memo", selection)
    binder = Binder(catalog)
    runs = []
    for text in texts:
        task = opt.task(binder.bind(parse(text)))
        runs.append((task, task.steps(), fresh_record()))
    live = list(runs)
    while live:
        for run in list(live):
            task, steps, record = run
            step = next(steps, None)
            if step is None:
                live.remove(run)
            else:
                observe(task, step, record)
    return {f"interleaved/{i}/{selection}": finish(task, record)
            for i, (task, _steps, record) in enumerate(runs)}


def write_goldens():
    doc = {}
    for enumerator in ENUMERATOR_NAMES:
        for selection in SELECTION_NAMES:
            doc.update(streams(enumerator, selection))
    for selection in SELECTION_NAMES:
        doc.update(interleaved(selection))
    # one search per line
    lines = [f"{json.dumps(key)}: "
             + json.dumps(doc[key], separators=(",", ":"))
             for key in sorted(doc)]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("selection", SELECTION_NAMES)
@pytest.mark.parametrize("enumerator", ENUMERATOR_NAMES)
def test_every_search_streams_as_pinned(golden, enumerator, selection):
    got = streams(enumerator, selection)
    assert got, "no searches ran"
    for key, record in got.items():
        assert record == golden[key], f"{key} diverged"


@pytest.mark.parametrize("selection", SELECTION_NAMES)
def test_interleaved_searches_stream_as_pinned(golden, selection):
    got = interleaved(selection)
    for key, record in got.items():
        assert record == golden[key], f"{key} diverged"
    first, second = got.values()
    # the second search explores past where the first one stopped
    assert second["steps"][-1][4] > first["steps"][-1][4]
