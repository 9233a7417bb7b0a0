"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scenarios``    the declarative scenario API:
                 ``list`` / ``describe <id>`` / ``run <id>…``
``results``      the cross-run results warehouse: ``load`` BENCH
                 artifact dirs / journals, then ``query`` / ``diff``
                 across runs
``traces``       open-loop trace tooling: ``validate`` / ``summarize``
                 a CSV/JSONL query log, ``synth`` one from an arrival
                 process (``scenarios run --capture-trace DIR`` writes
                 a replayable admission trace from a run)
``query``        compile + execute one ad-hoc query and print the report

``scenarios run`` is the one command that runs a selection: the paper's
figures (``fig1``…``fig5``), ablations and saturation sweep are
registered scenarios, and a static shard is ``scenarios run --shard
k/N --journal PATH``: it runs every N-th cell and writes only its
journal; ``cat`` the shard journals (from one machine or several) and
resume them with ``--out`` to write the artifacts.

Every run surface submits its cells through one
:class:`~repro.experiments.executors.CellExecutor`; ``--executor
{inline,stream}`` picks the implementation (default: inline for
``--workers 1``, otherwise a stream executor that forks ``--workers``
worker processes) and results are canonically byte-identical
whichever one runs the cells.  ``--journal PATH`` makes the queue
durable (kill the coordinator, restart with ``--resume``: completed
cells replay from the journal) — a durability concern only, never
visible in artifact bytes.

See ``docs/cli.md`` for the full command reference,
``docs/sharding.md`` for the shard execution model,
``docs/executors.md`` for the executor protocol and wire format and
``docs/operations.md`` for the journal/shard runbook.

Examples
--------
::

    python -m repro scenarios list
    python -m repro scenarios run fig3 mixed-rush --workers 4
    python -m repro scenarios run --scenario my_scenario.json
    python -m repro scenarios run abl-dyn --executor stream --workers 2
    python -m repro scenarios run --all --shard 2/4 --journal shard-2.journal
    python -m repro scenarios run --all --journal run.journal --resume --out bench
    python -m repro scenarios run --all --journal run.journal --workers 2 --out bench
    python -m repro scenarios run --all --journal run.journal --workers 2 --resume --out bench
    python -m repro scenarios run fig1
    python -m repro scenarios run fig3 fig4 fig5 --preset smoke --out bench
    python -m repro scenarios run abl-gates --clients 30
    python -m repro results load bench --db results.sqlite
    python -m repro results diff prev latest --db results.sqlite
    python -m repro traces validate examples/sample_trace.jsonl
    python -m repro traces synth --out burst.jsonl --arrivals flash_crowd
    python -m repro scenarios run burst-flash --capture-trace traces
    python -m repro scenarios run burst-flash --clients 4
    python -m repro query --workload mixed --seed 7
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from repro.config import paper_server_config
from repro.errors import ReproError
from repro.experiments.runner import PRESETS, make_workload
from repro.metrics.report import render_table
from repro.server.server import DatabaseServer
from repro.units import format_bytes, format_duration


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    """Scenario-selection arguments of ``scenarios run`` — every shard
    of a selection, and the resume that joins them, must resolve the
    exact same selection."""
    parser.add_argument("ids", nargs="*",
                        help="registered scenario ids to select")
    parser.add_argument("--all", action="store_true",
                        help="select every registered scenario")
    parser.add_argument("--family", default=None,
                        help="select every scenario of this family")
    parser.add_argument("--scenario", action="append", default=[],
                        metavar="FILE",
                        help="path to a user-authored JSON ScenarioSpec "
                             "(repeatable)")
    parser.add_argument("--preset", default=None, choices=sorted(PRESETS),
                        help="override each spec's preset")
    parser.add_argument("--seed", type=int, default=None,
                        help="override each spec's seed")
    parser.add_argument("--clients", type=int, default=None,
                        help="override each spec's client count")
    from repro.optimizer.spec import ENUMERATOR_NAMES
    parser.add_argument("--optimizer", default=None,
                        choices=ENUMERATOR_NAMES,
                        help="override each spec's optimizer join "
                             "enumerator (memo = staged search, ues = "
                             "greedy upper-bound ordering)")


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    """Cell-executor arguments shared by every run surface."""
    from repro.experiments.executors import EXECUTOR_NAMES

    parser.add_argument("--executor", default=None,
                        choices=EXECUTOR_NAMES,
                        help="cell executor: inline (serial, default "
                             "for --workers 1) or stream (forked worker "
                             "pool, default for N > 1)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes a stream executor forks "
                             "(N >= 1)")
    parser.add_argument("--snapshot", action="store_true",
                        help="embed the end-of-run DMV snapshot "
                             "(ServerViews.snapshot) in result "
                             "artifacts")
    parser.add_argument("--capture-trace", default=None, metavar="DIR",
                        help="write each cell's replayable JSONL "
                             "admission trace (TRACE_*.jsonl) into "
                             "this directory")


def _add_queue_args(parser: argparse.ArgumentParser) -> None:
    """Queue durability and static shards: both live in the run
    journal."""
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="record every dispatched/completed cell "
                             "to this append-only newline-JSON file; "
                             "a killed run restarts with --resume")
    parser.add_argument("--resume", action="store_true",
                        help="replay completed cells from --journal "
                             "and run only the outstanding ones")
    parser.add_argument("--shard", default=None, metavar="K/N",
                        help="run only every N-th cell from the K-th on "
                             "(1-based) and record them in --journal; "
                             "cat the shard journals and --resume them "
                             "with --out to write artifacts")


def _journal_from_args(args, shard=None):
    """Check the journal flags, and the journal they name, before any
    executor starts; returns what wraps the surface's executor in that
    journal (the executor itself without ``--journal``).

    The wrapper owns the inner executor and the journal file; callers
    close the returned executor exactly as they would the bare one.
    ``shard`` is a parsed ``(k, N)`` selector the journal filters by.
    """
    from repro.errors import ConfigurationError

    if args.journal is None:
        if args.resume:
            raise ConfigurationError(
                "--resume replays a journal; pass --journal PATH too")
        return lambda executor: executor
    from repro.experiments.journal import (CellJournal, JournaledExecutor,
                                           journal_resume_state)

    state = journal_resume_state(args.journal, resume=args.resume)
    return lambda executor: JournaledExecutor(
        executor, CellJournal(args.journal), resume_state=state,
        shard=shard)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CIDR'07 compilation-memory-throttling reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    scen = sub.add_parser(
        "scenarios",
        help="declarative scenario API (list / describe / run)")
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)

    s_list = scen_sub.add_parser("list", help="list registered scenarios")
    s_list.add_argument("--family", default=None,
                        help="only scenarios of this family")

    s_desc = scen_sub.add_parser(
        "describe",
        help="print one scenario's JSON spec (registered id or file)")
    s_desc.add_argument("id", nargs="?", default=None,
                        help="registered scenario id")
    s_desc.add_argument("--scenario", default=None, metavar="FILE",
                        help="validate and print a user-authored JSON "
                             "ScenarioSpec file instead of a "
                             "registered id")

    s_run = scen_sub.add_parser(
        "run", help="run scenarios by id, family or JSON spec file")
    _add_selection_args(s_run)
    _add_executor_args(s_run)
    _add_queue_args(s_run)
    s_run.add_argument("--out", default=None,
                       help="directory for BENCH_scenario_*.json artifacts")

    res = sub.add_parser(
        "results",
        help="cross-run results warehouse (load / query / diff)")
    res_sub = res.add_subparsers(dest="results_command", required=True)

    def _add_db(sub_parser) -> None:
        sub_parser.add_argument(
            "--db", default="results.sqlite", metavar="PATH",
            help="warehouse sqlite file")

    r_load = res_sub.add_parser(
        "load", help="ingest BENCH_*.json artifact dirs and/or run "
                     "journals as warehouse runs (idempotent)")
    r_load.add_argument("sources", nargs="+", metavar="PATH",
                        help="artifact directory or journal file")
    _add_db(r_load)
    r_load.add_argument("--label", default=None,
                        help="run label for later reference (default: "
                             "the source path; needs a single source)")
    r_load.add_argument("--git-sha", default=None, metavar="SHA",
                        help="code identity of the run (default: git "
                             "rev-parse HEAD, or 'unknown')")
    r_load.add_argument("--host", default=None,
                        help="host the run executed on (default: this "
                             "machine's hostname)")

    r_query = res_sub.add_parser(
        "query", help="per-scenario / per-variant metric facts "
                      "across runs")
    _add_db(r_query)
    r_query.add_argument("--run", default=None,
                         help="restrict to one run (id, label, "
                              "fingerprint prefix, latest, prev)")
    r_query.add_argument("--scenario", default=None,
                         help="restrict to one scenario id")
    r_query.add_argument("--variant", default=None,
                         help="restrict to one variant name")
    r_query.add_argument("--metric", default=None,
                         help="restrict to one metric name")

    r_diff = res_sub.add_parser(
        "diff", help="cell-by-cell metric deltas between two runs "
                     "(volatile fields excluded; exit 1 on any "
                     "non-volatile delta)")
    r_diff.add_argument("runs", nargs=2, metavar="RUN",
                        help="baseline and candidate run refs")
    _add_db(r_diff)
    r_diff.add_argument("--include-volatile", action="store_true",
                        help="also list wall-clock/cache-locality "
                             "deltas (informational, never failing)")

    from repro.traffic.arrivals import ARRIVAL_FACTORIES

    traces = sub.add_parser(
        "traces",
        help="open-loop trace tooling (validate / summarize / synth)")
    traces_sub = traces.add_subparsers(dest="traces_command",
                                       required=True)

    def _add_tail(sub_parser) -> None:
        sub_parser.add_argument(
            "--tolerate-tail", action="store_true",
            help="skip a truncated trailing line (torn tails only; a "
                 "malformed line mid-file always fails)")

    t_validate = traces_sub.add_parser(
        "validate", help="stream-parse a trace, failing on the first "
                         "malformed line (exit 2)")
    t_validate.add_argument("trace", metavar="FILE",
                            help="a .jsonl/.ndjson/.csv query log")
    _add_tail(t_validate)

    t_summarize = traces_sub.add_parser(
        "summarize", help="one streaming pass: event count, time span, "
                          "mean rate, tenants and templates")
    t_summarize.add_argument("trace", metavar="FILE",
                             help="a .jsonl/.ndjson/.csv query log")
    _add_tail(t_summarize)

    t_synth = traces_sub.add_parser(
        "synth", help="synthesize a JSONL trace from a seeded arrival "
                      "process")
    t_synth.add_argument("--out", required=True, metavar="FILE",
                         help="JSONL file to write")
    t_synth.add_argument("--arrivals", default="poisson",
                         choices=sorted(ARRIVAL_FACTORIES),
                         help="arrival process to sample")
    t_synth.add_argument("--param", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="arrival-process parameter (repeatable; "
                              "values parse as JSON, falling back to "
                              "strings)")
    t_synth.add_argument("--duration", type=float, default=3000.0,
                         help="schedule horizon in paper seconds")
    t_synth.add_argument("--seed", type=int, default=3)
    t_synth.add_argument("--workload", default=None,
                         help="stamp events with this workload's "
                              "template names (sales, tpch, oltp, "
                              "mixed)")
    t_synth.add_argument("--tenant", default="default",
                         help="tenant label for single-tenant "
                              "processes")

    query = sub.add_parser("query", help="run one ad-hoc query")
    query.add_argument("--workload", default="sales",
                       help="workload name (sales, tpch, oltp, mixed)")
    query.add_argument("--no-throttle", action="store_true")
    query.add_argument("--seed", type=int, default=7)
    return parser


# ----------------------------------------------------------- scenarios
def _run_specs(specs, executor, out: Optional[str] = None,
               snapshot: bool = False,
               capture: Optional[str] = None) -> int:
    """Run resolved specs; print each render; write artifacts.

    One executor, one submission: all specs' cells go down together
    (see :func:`repro.scenarios.facade.run_scenarios`), so a stream
    executor's workers drain a single queue across the selection —
    but each scenario renders and persists as soon as it completes,
    so a long run keeps its finished artifacts even if a later
    scenario fails.
    """
    from repro.scenarios import run_scenarios, write_scenario_artifact

    state = {"failed": False, "emitted": 0}

    def emit(result) -> None:
        if state["emitted"]:
            print()
        state["emitted"] += 1
        print(result.render())
        if out:
            path = write_scenario_artifact(out, result)
            print(f"   artifact -> {path}")
        if not result.ok:
            state["failed"] = True

    run_scenarios(specs, executor=executor, snapshot=snapshot,
                  capture=capture, on_result=emit)
    return 1 if state["failed"] else 0


def _resolve_run_specs(args) -> list:
    from repro.errors import ConfigurationError
    from repro.scenarios import get_scenario, list_scenarios, \
        load_scenario_file

    specs = []
    if args.all:
        specs.extend(list_scenarios())
    elif args.family:
        family_specs = list_scenarios(family=args.family)
        if not family_specs:
            from repro.scenarios import scenario_families

            raise ConfigurationError(
                f"no scenarios in family {args.family!r}; families: "
                f"{', '.join(scenario_families())}")
        specs.extend(family_specs)
    specs.extend(get_scenario(scenario_id) for scenario_id in args.ids)
    specs.extend(load_scenario_file(path) for path in args.scenario)
    if not specs:
        raise ConfigurationError(
            "nothing to run: give scenario ids, --family, --all or "
            "--scenario FILE")
    # overlapping selection flags (`--family ablations abl-dyn`) name
    # the same scenario twice; run it once.  Two *different* specs
    # under one id (a --scenario FILE shadowing a registered id) are a
    # conflict, never a silent last-wins
    unique = {}
    for spec in specs:
        known = unique.get(spec.scenario_id)
        if known is not None and known != spec:
            raise ConfigurationError(
                f"scenario {spec.scenario_id!r} is selected twice with "
                f"different specs; rename the --scenario file's "
                f"scenario_id or drop one selection")
        unique[spec.scenario_id] = spec
    # the optimizer knob only exists on experiment scenarios; a
    # selection mixing in monitors/trace scenarios keeps those on
    # their default
    optimizer = getattr(args, "optimizer", None)
    return [spec.customized(preset=args.preset, seed=args.seed,
                            clients=args.clients,
                            optimizer=(optimizer
                                       if spec.kind == "experiment"
                                       else None))
            for spec in unique.values()]


def cmd_scenarios(args) -> int:
    from repro.errors import ConfigurationError
    from repro.experiments.executors import make_executor
    from repro.scenarios import get_scenario, list_scenarios, \
        load_scenario_file

    if args.scenarios_command == "list":
        specs = list_scenarios(family=args.family)
        rows = [(spec.scenario_id, spec.family, spec.kind, spec.workload,
                 spec.clients, len(spec.variants), spec.title)
                for spec in specs]
        print(render_table(
            ("id", "family", "kind", "workload", "clients", "variants",
             "title"), rows))
        print(f"{len(specs)} scenarios")
        return 0
    if args.scenarios_command == "describe":
        if (args.id is None) == (args.scenario is None):
            raise ConfigurationError(
                "describe needs a registered scenario id or "
                "--scenario FILE (exactly one)")
        # loading a file validates it: unknown top-level keys are a
        # ConfigurationError listing the valid ones, same as `run`
        spec = (load_scenario_file(args.scenario) if args.scenario
                else get_scenario(args.id))
        print(json.dumps(spec.to_dict(), indent=2))
        return 0
    specs = _resolve_run_specs(args)
    shard = _shard_from_args(args)
    wrap = _journal_from_args(args, shard)
    executor = make_executor(args.executor, workers=args.workers)
    try:
        executor = wrap(executor)
        if shard is not None:
            return _run_shard(specs, executor, shard, args)
        return _run_specs(specs, executor, out=args.out,
                          snapshot=args.snapshot,
                          capture=args.capture_trace)
    finally:
        executor.close()


def _shard_from_args(args):
    """The parsed ``--shard`` selector (``None`` without one), checked
    against the flags it needs: a shard writes its journal and nothing
    else."""
    if args.shard is None:
        return None
    from repro.errors import ConfigurationError
    from repro.experiments.shards import parse_shard_selector

    if args.journal is None:
        raise ConfigurationError(
            "--shard records its cells in a run journal; pass "
            "--journal PATH")
    if args.out is not None:
        raise ConfigurationError(
            "--shard writes no artifacts; cat the shard journals into "
            "one and resume it with --journal PATH --resume --out DIR")
    return parse_shard_selector(args.shard)


def _run_shard(specs, executor, shard, args) -> int:
    """Run one shard's cells into its journal; 1 if any cell errored."""
    from repro.experiments.executors import tasks_for_specs

    tasks = tasks_for_specs(specs, snapshot=args.snapshot,
                            capture=args.capture_trace)
    index, count = shard
    print(f"== shard {index}/{count}: {len(tasks[index - 1::count])} of "
          f"{len(tasks)} cells, journal {args.journal}")
    failed = False
    for result in executor.submit(tasks,
                                  progress=lambda line: print(f"   {line}")):
        failed = failed or not result.ok
    return 1 if failed else 0


# ------------------------------------------------------ results warehouse
def _format_value(value) -> str:
    return "-" if value is None else f"{value:g}"


def cmd_results(args) -> int:
    """Handle the ``results`` family (load / query / diff) — a thin
    shell over :mod:`repro.results`."""
    from repro.errors import ConfigurationError
    from repro.results.warehouse import Warehouse

    if args.results_command == "load":
        if args.label is not None and len(args.sources) > 1:
            raise ConfigurationError(
                "--label names one run; load labelled sources one at "
                "a time")
        with Warehouse(args.db, create=True) as warehouse:
            for source in args.sources:
                report = warehouse.load(source, label=args.label,
                                        git_sha=args.git_sha,
                                        host=args.host)
                verb = "loaded" if report.created else "already loaded"
                print(f"== {verb} run {report.run.run_id} "
                      f"({report.run.label}): {report.run.cells} "
                      f"cell(s), {report.metrics} metric fact(s) "
                      f"[{report.run.fingerprint[:12]}]")
                for note in report.skipped:
                    print(f"   skipped {note}")
        return 0

    with Warehouse(args.db) as warehouse:
        if args.results_command == "query":
            rows = warehouse.query(run=args.run, scenario=args.scenario,
                                   variant=args.variant,
                                   metric=args.metric)
            print(render_table(
                ("run", "scenario", "variant", "seed", "metric",
                 "value", "volatile"),
                [(run_id, scenario, variant, seed, metric,
                  _format_value(value), "yes" if volatile else "")
                 for run_id, scenario, variant, seed, metric, value,
                 volatile in rows]))
            print(f"{len(rows)} fact(s)")
            return 0

        report = warehouse.diff(*args.runs)
        print(f"== diff {report.baseline.describe()} -> "
              f"{report.candidate.describe()}: "
              f"{report.shared_cells} shared cell(s)")
        shown = report.pinned_deltas + (
            report.volatile_deltas if args.include_volatile else [])
        if shown:
            print(render_table(
                ("cell", "metric", "baseline", "candidate", "volatile"),
                [(delta.cell, delta.metric,
                  _format_value(delta.baseline),
                  _format_value(delta.candidate),
                  "yes" if delta.volatile else "")
                 for delta in shown]))
        for note in report.missing:
            print(f"   MISSING {note}")
        print(f"{len(report.pinned_deltas)} non-volatile delta(s), "
              f"{len(report.volatile_deltas)} volatile"
              + ("" if args.include_volatile
                 else " (show with --include-volatile)"))
        return 0 if report.ok else 1


# ----------------------------------------------------------- traces
def _parse_synth_params(pairs: List[str]) -> dict:
    """``KEY=VALUE`` pairs with JSON-parsed values (string fallback)."""
    from repro.errors import ConfigurationError

    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--param takes KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def cmd_traces(args) -> int:
    """Handle the ``traces`` family (validate / summarize / synth)."""
    from repro.traffic.arrivals import make_arrival_process
    from repro.traffic.trace import (
        read_trace,
        summarize_trace,
        synthesize_trace,
    )

    if args.traces_command == "validate":
        events = 0
        for _ in read_trace(args.trace,
                            tolerate_tail=args.tolerate_tail):
            events += 1
        print(f"== trace {args.trace}: valid ({events} event(s))")
        return 0

    if args.traces_command == "summarize":
        summary = summarize_trace(args.trace,
                                  tolerate_tail=args.tolerate_tail)
        print(f"== trace {args.trace}")
        print(f"   events       {summary['events']}")
        span = summary["span_seconds"]
        first, last = summary["t_first"], summary["t_last"]
        if summary["events"]:
            print(f"   span         {span:g}s "
                  f"(t={first:g} .. t={last:g})")
        rate = summary["mean_rate"]
        print(f"   mean rate    "
              f"{'-' if rate is None else f'{rate:g}/s'}")
        rows = [(tenant, count) for tenant, count
                in summary["tenants"].items()]
        if rows:
            print(render_table(("tenant", "events"), rows))
        rows = [(template, count) for template, count
                in summary["templates"].items()]
        if rows:
            print(render_table(("template", "events"), rows))
        rows = [(tenant, counts["offered"], counts["admitted"],
                 counts["dropped"])
                for tenant, counts in summary["tenant_outcomes"].items()]
        if rows:
            # captured traces carry admission outcomes; synthetic and
            # external query logs usually do not, so the table only
            # appears when there is something to break down
            print(render_table(
                ("tenant", "offered", "admitted", "dropped"), rows))
        return 0

    # synth
    process = make_arrival_process(args.arrivals,
                                   **_parse_synth_params(args.param))
    workload = make_workload(args.workload) if args.workload else None
    count = synthesize_trace(args.out, process, duration=args.duration,
                             seed=args.seed, workload=workload,
                             tenant=args.tenant)
    print(f"== wrote {count} event(s) over {args.duration:g}s to "
          f"{args.out} ({args.arrivals}, seed {args.seed})")
    return 0


# ------------------------------------------------------------ one-offs
def cmd_query(args) -> int:
    workload = make_workload(args.workload)
    query = workload.generate(random.Random(args.seed))
    print(f"-- template: {query.template}")
    print(query.text)
    print()
    with DatabaseServer(
            paper_server_config(throttling=not args.no_throttle),
            workload.build_catalog()) as server:
        outcome = server.execute_sync(query.text)
    if not outcome.ok:
        print(f"FAILED: {outcome.error_kind}: {outcome.error_message}")
        return 1
    print(f"compile  {format_duration(outcome.compile_time)}  "
          f"peak {format_bytes(outcome.compile_peak_bytes)}"
          f"{'  [degraded]' if outcome.degraded_plan else ''}")
    print(f"execute  {format_duration(outcome.execution_time)}  "
          f"spilled={outcome.spilled}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "scenarios": cmd_scenarios,
        "results": cmd_results,
        "traces": cmd_traces,
        "query": cmd_query,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
