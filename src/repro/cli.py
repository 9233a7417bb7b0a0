"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scenarios``    the declarative scenario API:
                 ``list`` / ``describe <id>`` / ``run <id>…``
``shards``       distribute a scenario selection across processes or
                 machines: ``plan`` / ``run --shard k/N`` / ``merge``
``workers``      stream cells to a worker pool over TCP:
                 ``serve`` a selection / ``join`` a coordinator
``figure``       reproduce one of the paper's figures (1, 2, 3, 4, 5)
``sweep``        client sweep (the CLAIM-SAT saturation experiment)
``ablation``     run one of the design ablations
``experiments``  run a named suite of registered scenarios (figures,
                 ablations, saturation) and write their artifacts
``results``      the cross-run results warehouse: ``load`` BENCH
                 artifact dirs / journals, then ``query`` / ``diff`` /
                 ``trend`` / ``radar`` across runs
``traces``       open-loop trace tooling: ``validate`` / ``summarize``
                 a CSV/JSONL query log, ``synth`` one from an arrival
                 process, ``capture`` a replayable admission trace
                 from a scenario run
``query``        compile + execute one ad-hoc query and print the report
``monitors``     print the memory-monitor ladder

``figure``/``sweep``/``ablation``/``experiments`` are shims over the
scenario registry: ``repro figure 3`` and ``repro scenarios run fig3``
execute the same spec through the same facade and print identical
output.

Every run surface submits its cells through one
:class:`~repro.experiments.executors.CellExecutor`; ``--executor
{inline,stream}`` picks the implementation (default: inline for
``--workers 1``, otherwise a stream executor that spawns ``--workers``
local worker processes) and results are canonically byte-identical
whichever one runs the cells.  ``--journal PATH`` makes the queue
durable (kill the coordinator, restart with ``--resume``: completed
cells replay from the journal) and ``--order {spec,cost}`` picks the
queue order — both are scheduling/durability concerns only and never
change artifact bytes.

See ``docs/cli.md`` for the full command reference,
``docs/sharding.md`` for the shard execution model,
``docs/executors.md`` for the executor protocol and wire format and
``docs/operations.md`` for the worker-pool/journal runbook.

Examples
--------
::

    python -m repro scenarios list
    python -m repro scenarios run fig3 mixed-rush --workers 4
    python -m repro scenarios run --scenario my_scenario.json
    python -m repro scenarios run abl-dyn --executor stream --workers 2
    python -m repro shards run --shard 2/4 --all --out shard-artifacts
    python -m repro shards merge shard-artifacts --out bench-artifacts
    python -m repro workers serve --all --bind 127.0.0.1:7731 --out bench
    python -m repro workers serve --all --journal run.journal --order cost --out bench
    python -m repro workers serve --all --journal run.journal --resume --out bench
    python -m repro workers join --connect 127.0.0.1:7731
    python -m repro figure 3 --preset smoke
    python -m repro experiments --suite figures --workers 4 --out bench
    python -m repro results load bench --db results.sqlite
    python -m repro results diff prev latest --db results.sqlite
    python -m repro results radar prev latest --db results.sqlite
    python -m repro traces validate examples/sample_trace.jsonl
    python -m repro traces synth --out burst.jsonl --arrivals flash_crowd
    python -m repro traces capture fairness-noisy --out traces
    python -m repro scenarios run burst-flash --capture-trace traces
    python -m repro scenarios run burst-flash --clients 4
    python -m repro query --workload mixed --seed 7
    python -m repro ablation gateways --clients 30
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="smoke", choices=sorted(PRESETS),
                        help="fidelity/runtime preset")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="local worker processes to spawn "
                             "(1 = run inline)")


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    """Scenario-selection arguments shared by ``scenarios run`` and the
    ``shards`` family — every shard invocation must resolve the exact
    same selection, so they take the exact same flags."""
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
                             "for --workers 1) or stream (TCP worker "
                             "pool, default for --workers N > 1)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="local worker processes a stream executor "
                             "spawns (0 = external workers only)")
    parser.add_argument("--bind", default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="address a stream executor serves on "
                             "(port 0 picks an ephemeral port)")
    parser.add_argument("--snapshot", action="store_true",
                        help="embed the end-of-run DMV snapshot "
                             "(ServerViews.snapshot) in result "
                             "artifacts")
    parser.add_argument("--capture-trace", default=None, metavar="DIR",
                        help="write each cell's replayable JSONL "
                             "admission trace (TRACE_*.jsonl) into "
                             "this directory")


def _add_queue_args(parser: argparse.ArgumentParser) -> None:
    """Queue durability and ordering, shared by every run surface."""
    parser.add_argument("--order", default="spec",
                        choices=("spec", "cost"),
                        help="queue order: spec (selection order) or "
                             "cost (expected-slowest cells first, from "
                             "prior journals/artifacts or workload-"
                             "size heuristics)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="record every dispatched/completed cell "
                             "to this append-only newline-JSON file; "
                             "a killed run restarts with --resume")
    parser.add_argument("--resume", action="store_true",
                        help="replay completed cells from --journal "
                             "and run only the outstanding ones")
    parser.add_argument("--warehouse", default=None, metavar="PATH",
                        help="results-warehouse sqlite file (see "
                             "`repro results`) whose observed per-cell "
                             "wall seconds feed --order cost")


def _executor_from_args(args):
    from repro.experiments.executors import StreamExecutor, make_executor

    executor = make_executor(args.executor, workers=args.workers,
                             bind=args.bind)
    if isinstance(executor, StreamExecutor):
        # announce the bound address up front: with --workers 0
        # the queue waits for external joiners, who need somewhere to
        # point `repro workers join --connect`
        host, port = executor.start()
        print(f"== stream executor on {host}:{port} "
              f"({executor.spawn_workers} local worker(s); join with: "
              f"repro workers join --connect {host}:{port})")
    return executor


def _wrap_journal(executor, args):
    """Wrap the surface's executor in a run journal when asked to.

    The wrapper owns the inner executor and the journal file; callers
    close the returned executor exactly as they would the bare one.
    """
    from repro.errors import ConfigurationError

    if args.journal is None:
        if args.resume:
            raise ConfigurationError(
                "--resume replays a journal; pass --journal PATH too")
        return executor
    from repro.experiments.journal import journaled_executor

    return journaled_executor(executor, args.journal, resume=args.resume)


def _scheduler_from_args(args, executor=None):
    """A cost scheduler fed from whatever history this machine has:
    the run's own journal (already parsed by the --resume wrapper, so
    its state is reused rather than re-read), any artifacts already
    in --out, and the --warehouse trajectory when given.  Only built
    when --order cost asks for one."""
    if args.order != "cost":
        return None
    from repro.experiments.scheduler import (
        CellScheduler,
        history_from_state,
    )

    out_dir = getattr(args, "out", None)
    warehouse = getattr(args, "warehouse", None)
    scheduler = CellScheduler.from_sources(
        artifact_dirs=[out_dir] if out_dir else [],
        warehouses=[warehouse] if warehouse else [])
    state = getattr(executor, "resume_state", None)
    if state is not None:
        scheduler.history.update(history_from_state(state))
    return scheduler


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

    shards = sub.add_parser(
        "shards",
        help="sharded scenario execution (plan / run --shard k/N / merge)")
    shards_sub = shards.add_subparsers(dest="shards_command", required=True)

    sh_plan = shards_sub.add_parser(
        "plan", help="show how a selection partitions into shards")
    _add_selection_args(sh_plan)
    sh_plan.add_argument("--shards", type=int, default=4, metavar="N",
                         help="number of shards to partition into")

    sh_run = shards_sub.add_parser(
        "run", help="execute one shard of a selection and write its "
                    "BENCH_shard_*.json artifact")
    _add_selection_args(sh_run)
    sh_run.add_argument("--shard", required=True, metavar="K/N",
                        help="which shard this process executes "
                             "(1-based), e.g. 2/4")
    _add_executor_args(sh_run)
    _add_queue_args(sh_run)
    sh_run.add_argument("--out", default="shard-artifacts",
                        help="directory for the BENCH_shard_*.json "
                             "artifact")

    sh_merge = shards_sub.add_parser(
        "merge", help="merge shard artifacts (and/or pre-shard scenario "
                      "artifacts) into BENCH_scenario_*.json")
    sh_merge.add_argument("artifacts", nargs="+", metavar="PATH",
                          help="BENCH_*.json files, or directories to "
                               "scan for BENCH_shard_*.json")
    sh_merge.add_argument("--out", default="bench-artifacts",
                          help="directory for the merged artifacts")

    workers = sub.add_parser(
        "workers",
        help="stream cells to a TCP worker pool (serve / join)")
    workers_sub = workers.add_subparsers(dest="workers_command",
                                         required=True)

    w_serve = workers_sub.add_parser(
        "serve", help="serve a selection's cell queue to joining "
                      "workers and write BENCH_scenario_*.json")
    _add_selection_args(w_serve)
    w_serve.add_argument("--bind", default="127.0.0.1:7731",
                         metavar="HOST:PORT",
                         help="address to serve the cell queue on")
    w_serve.add_argument("--workers", type=int, default=0,
                         metavar="N",
                         help="local worker processes to spawn in "
                              "addition to external joiners")
    w_serve.add_argument("--snapshot", action="store_true",
                         help="embed the end-of-run DMV snapshot in "
                              "result artifacts")
    w_serve.add_argument("--capture-trace", default=None, metavar="DIR",
                         help="write each cell's replayable JSONL "
                              "admission trace into this directory")
    _add_queue_args(w_serve)
    w_serve.add_argument("--out", default=None,
                         help="directory for BENCH_scenario_*.json "
                              "artifacts")

    w_join = workers_sub.add_parser(
        "join", help="join a coordinator and execute streamed cells "
                     "until the queue drains")
    w_join.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address (from `repro workers "
                             "serve`)")
    w_join.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress output")

    fig = sub.add_parser("figure", help="reproduce a paper figure")
    fig.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    _add_common(fig)

    sweep = sub.add_parser("sweep", help="client-count saturation sweep")
    sweep.add_argument("--clients", type=int, nargs="+",
                       default=[5, 15, 30, 40])
    _add_common(sweep)

    abl = sub.add_parser("ablation", help="run a design ablation")
    abl.add_argument("which", choices=("gateways", "dynamic", "best-plan"))
    abl.add_argument("--clients", type=int, default=None)
    _add_common(abl)

    exp = sub.add_parser(
        "experiments",
        help="run a suite of registered scenarios and write "
             "BENCH_scenario_*.json artifacts")
    exp.add_argument("--suite", default="figures",
                     choices=("figures", "ablations", "saturation", "all"))
    exp.add_argument("--out", default="bench-artifacts",
                     help="directory for BENCH_scenario_*.json artifacts")
    exp.add_argument("--snapshot", action="store_true",
                     help="embed the end-of-run DMV snapshot in each "
                          "run's artifact summary")
    _add_common(exp)

    from repro.results.radar import DEFAULT_REGRESSION_THRESHOLD

    res = sub.add_parser(
        "results",
        help="cross-run results warehouse (load / query / diff / "
             "trend / radar)")
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

    r_trend = res_sub.add_parser(
        "trend", help="wall_seconds_percentiles series per scenario "
                      "across all loaded runs")
    _add_db(r_trend)
    r_trend.add_argument("--scenario", default=None,
                         help="restrict the series to one scenario id")

    r_radar = res_sub.add_parser(
        "radar", help="fail (exit 1) when p50/p90 wall-seconds of any "
                      "pinned scenario regress beyond the threshold")
    r_radar.add_argument("runs", nargs=2, metavar="RUN",
                         help="baseline and candidate run refs "
                              "(e.g. prev latest)")
    _add_db(r_radar)
    r_radar.add_argument(
        "--threshold", type=float, default=None, metavar="FRACTION",
        help=f"regression tolerance as a fraction of the baseline "
             f"(default {DEFAULT_REGRESSION_THRESHOLD:g}, from "
             f"repro.results.radar)")
    r_radar.add_argument(
        "--min-seconds", type=float, default=None, metavar="SECONDS",
        help="skip percentiles where both runs are under this floor "
             "(near-free cells measure scheduler noise)")
    r_radar.add_argument(
        "--pin", action="append", default=[], metavar="SCENARIO",
        help="pinned scenario that must exist in both runs "
             "(repeatable; default: every scenario the runs share)")

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

    t_capture = traces_sub.add_parser(
        "capture", help="run a registered scenario and write each "
                        "cell's replayable JSONL admission trace")
    t_capture.add_argument("id", help="registered scenario id")
    t_capture.add_argument("--out", default="traces", metavar="DIR",
                           help="directory for the TRACE_*.jsonl files")
    t_capture.add_argument("--preset", default=None,
                           choices=sorted(PRESETS),
                           help="override the scenario's preset")
    t_capture.add_argument("--seed", type=int, default=None,
                           help="override the scenario's seed")
    t_capture.add_argument("--clients", type=int, default=None,
                           help="override the scenario's client count")

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

    sub.add_parser("monitors", help="print the monitor ladder")
    return parser


# ----------------------------------------------------------- scenarios
def _run_specs(specs, workers: int = 1, out: Optional[str] = None,
               executor=None, snapshot: bool = False,
               capture: Optional[str] = None,
               order: str = "spec", scheduler=None) -> int:
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

    run_scenarios(specs, workers=workers, executor=executor,
                  snapshot=snapshot, capture=capture, on_result=emit,
                  order=order, scheduler=scheduler)
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
    executor = _wrap_journal(_executor_from_args(args), args)
    try:
        return _run_specs(specs, out=args.out, executor=executor,
                          snapshot=args.snapshot,
                          capture=args.capture_trace, order=args.order,
                          scheduler=_scheduler_from_args(args, executor))
    finally:
        executor.close()


# ------------------------------------------------------------- sharding
def _collect_merge_paths(arguments: List[str]) -> List[str]:
    """Expand merge arguments: files stay, directories are scanned for
    ``BENCH_shard_*.json`` (sorted, so runs are deterministic)."""
    import glob
    import os

    from repro.errors import ConfigurationError

    paths = []
    for argument in arguments:
        if os.path.isdir(argument):
            found = sorted(glob.glob(
                os.path.join(argument, "BENCH_shard_*of*.json")))
            if not found:
                raise ConfigurationError(
                    f"no BENCH_shard_*.json artifacts in directory "
                    f"{argument!r}")
            paths.extend(found)
        else:
            paths.append(argument)
    return paths


def cmd_shards(args) -> int:
    """Handle the ``shards`` family (plan / run / merge)."""
    from repro.experiments.shards import (
        ShardPlan,
        merge_artifact_files,
        parse_shard_selector,
        run_shard,
        write_merged_artifacts,
        write_shard_artifact,
    )

    if args.shards_command == "merge":
        paths = _collect_merge_paths(args.artifacts)
        merge = merge_artifact_files(paths)
        rows = [(scenario_id, "ok" if payload["ok"] else "FAILED")
                for scenario_id, payload in merge.scenarios.items()]
        print(f"== merged {merge.sources} artifacts "
              f"({merge.shard_count} shards, {merge.cells_total} cells)")
        print(render_table(("scenario", "status"), rows))
        for path in write_merged_artifacts(args.out, merge):
            print(f"   artifact -> {path}")
        return 0 if merge.ok else 1

    specs = _resolve_run_specs(args)
    if args.shards_command == "plan":
        plan = ShardPlan.partition(specs, args.shards)
        rows = [(f"{index}/{plan.count}", len(cells),
                 " ".join(f"{c.scenario_id}/{c.variant}" for c in cells))
                for index, cells in enumerate(plan.assignments, start=1)]
        print(render_table(("shard", "cells", "assignment"), rows))
        print(f"{len(plan.all_cells())} cells over {plan.count} shards")
        return 0

    index, count = parse_shard_selector(args.shard)
    plan = ShardPlan.partition(specs, count)
    print(f"== shard {index}/{count}: {len(plan.cells_for(index))} of "
          f"{len(plan.all_cells())} cells, workers={args.workers}")
    executor = _wrap_journal(_executor_from_args(args), args)
    try:
        payload = run_shard(plan, index, executor=executor,
                            snapshot=args.snapshot,
                            capture=args.capture_trace, order=args.order,
                            scheduler=_scheduler_from_args(args, executor),
                            progress=lambda line: print(f"   {line}"))
    finally:
        executor.close()
    path = write_shard_artifact(args.out, payload)
    print(f"   artifact -> {path}")
    failed = False
    for scenario_id, entry in payload["scenarios"].items():
        for variant, error in entry.get("errors", {}).items():
            failed = True
            print(f"   FAILED {scenario_id}/{variant}: {error}")
    return 1 if failed else 0


# ------------------------------------------------------- worker pools
def cmd_workers(args) -> int:
    """Handle the ``workers`` family (serve / join)."""
    from repro.experiments.wire import parse_address, run_worker

    if args.workers_command == "join":
        host, port = parse_address(args.connect)
        progress = None if args.quiet else \
            (lambda line: print(f"   {line}"))
        executed = run_worker(host, port, progress=progress)
        print(f"worker drained after {executed} cell(s)")
        return 0

    from repro.experiments.executors import StreamExecutor

    specs = _resolve_run_specs(args)
    host, port = parse_address(args.bind)
    stream = StreamExecutor(host=host, port=port,
                            spawn_workers=args.workers)
    executor = _wrap_journal(stream, args)
    try:
        bound_host, bound_port = stream.start()
        cells = sum(len(spec.variant_names()) for spec in specs)
        print(f"== serving {cells} cells on {bound_host}:{bound_port} "
              f"(join with: repro workers join "
              f"--connect {bound_host}:{bound_port})")
        return _run_specs(specs, out=args.out, executor=executor,
                          snapshot=args.snapshot,
                          capture=args.capture_trace, order=args.order,
                          scheduler=_scheduler_from_args(args, executor))
    finally:
        executor.close()


# -------------------------------------------------------- legacy shims
def cmd_figure(args) -> int:
    from repro.scenarios import get_scenario

    spec = get_scenario(f"fig{args.number}")
    if args.number in (1, 2):
        # fig1 renders a configuration; fig2 traces compilations —
        # neither takes a preset, but the seed still applies to fig2
        spec = spec.customized(seed=args.seed)
    else:
        spec = spec.customized(preset=args.preset, seed=args.seed)
    return _run_specs([spec], workers=args.workers, out=None)


def cmd_sweep(args) -> int:
    from repro.scenarios import saturation_scenario

    # duplicate counts would be identical runs (same config, same
    # seed) and would collide as variant names; keep first occurrences
    spec = saturation_scenario(tuple(dict.fromkeys(args.clients)),
                               preset=args.preset, seed=args.seed)
    return _run_specs([spec], workers=args.workers, out=None)


def cmd_ablation(args) -> int:
    from repro.scenarios import get_scenario

    scenario_ids = {
        "gateways": "abl-gates",
        "dynamic": "abl-dyn",
        "best-plan": "abl-bpsf",
    }
    spec = get_scenario(scenario_ids[args.which]).customized(
        preset=args.preset, seed=args.seed, clients=args.clients)
    return _run_specs([spec], workers=args.workers, out=None)


# ---------------------------------------------------- experiment suites
#: ``repro experiments --suite`` name -> the registered scenarios it runs
EXPERIMENT_SUITES = {
    "figures": ("fig3", "fig4", "fig5"),
    "ablations": ("abl-gates", "abl-dyn", "abl-bpsf"),
    "saturation": ("saturation",),
}


def experiment_suite_specs(suite: str, preset: str, seed: int) -> list:
    """The registered scenarios of one suite (``all`` = every suite),
    customized to ``preset`` and ``seed``."""
    from repro.scenarios import get_scenario

    names = list(EXPERIMENT_SUITES) if suite == "all" else [suite]
    return [get_scenario(scenario_id).customized(preset=preset, seed=seed)
            for name in names for scenario_id in EXPERIMENT_SUITES[name]]


def cmd_experiments(args) -> int:
    """Run a suite's scenarios and write their BENCH artifacts."""
    specs = experiment_suite_specs(args.suite, args.preset, args.seed)
    return _run_specs(specs, workers=args.workers, out=args.out,
                      snapshot=args.snapshot)


# ------------------------------------------------------ results warehouse
def _format_value(value) -> str:
    return "-" if value is None else f"{value:g}"


def cmd_results(args) -> int:
    """Handle the ``results`` family (load / query / diff / trend /
    radar) — a thin shell over :mod:`repro.results`."""
    from repro.errors import ConfigurationError
    from repro.results import radar as radar_module
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

        if args.results_command == "diff":
            report = warehouse.diff(*args.runs)
            print(f"== diff {report.baseline.describe()} -> "
                  f"{report.candidate.describe()}: "
                  f"{report.shared_cells} shared cell(s)")
            shown = report.pinned_deltas + (
                report.volatile_deltas if args.include_volatile else [])
            if shown:
                print(render_table(
                    ("cell", "metric", "baseline", "candidate",
                     "volatile"),
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

        if args.results_command == "trend":
            series = warehouse.trend(scenario=args.scenario)
            rows = [(scenario_id, run.run_id, run.label,
                     digest["cells"], _format_value(digest["p50"]),
                     _format_value(digest["p90"]),
                     _format_value(digest["max"]))
                    for scenario_id, points in series.items()
                    for run, digest in points]
            print(render_table(
                ("scenario", "run", "label", "cells", "p50", "p90",
                 "max"), rows))
            print(f"{len(series)} scenario(s) over "
                  f"{len(warehouse.runs())} run(s)")
            return 0

        # radar: the CI lane runs `radar prev latest` on every build —
        # the very first build has nothing to compare, and that is a
        # seeded baseline, not a failure
        if "prev" in args.runs and len(warehouse.runs()) < 2:
            print("== regression radar: baseline seeded (one run in "
                  "the warehouse); nothing to compare yet")
            return 0
        report = radar_module.scan(
            warehouse, args.runs[0], args.runs[1],
            threshold=args.threshold, min_seconds=args.min_seconds,
            scenarios=args.pin or None)
        print(f"== regression radar: {report.baseline.describe()} -> "
              f"{report.candidate.describe()}, threshold "
              f"{report.threshold * 100:g}%")
        for label, why in sorted(report.skipped.items()):
            print(f"   skipped {label}: {why}")
        print(f"   compared {len(report.compared)} scenario "
              f"percentile(s)")
        for finding in report.findings:
            print(f"   REGRESSION {finding.describe()}")
        if report.ok:
            print("   ok: no regressions beyond the threshold")
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

    if args.traces_command == "capture":
        import os

        from repro.experiments.executors import tasks_for_specs
        from repro.scenarios import get_scenario, run_scenario

        spec = get_scenario(args.id).customized(
            preset=args.preset, seed=args.seed, clients=args.clients)
        result = run_scenario(spec, capture=args.out)
        print(result.render())
        written = [task.trace_path()
                   for task in tasks_for_specs([spec], capture=args.out)
                   if os.path.exists(task.trace_path())]
        for path in written:
            print(f"   trace -> {path}")
        if not written:
            print("   (no traces written: the scenario has no "
                  "experiment cells)")
        return 0 if result.ok else 1

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


def cmd_monitors(_args) -> int:
    from repro.experiments import figure1_monitors

    print(figure1_monitors())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "scenarios": cmd_scenarios,
        "shards": cmd_shards,
        "workers": cmd_workers,
        "figure": cmd_figure,
        "sweep": cmd_sweep,
        "ablation": cmd_ablation,
        "experiments": cmd_experiments,
        "results": cmd_results,
        "traces": cmd_traces,
        "query": cmd_query,
        "monitors": cmd_monitors,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
