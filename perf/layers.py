"""The seams this repository's layers are measured at, and the
per-layer metrics derived from one traced pass.

Layer names are the repository's package names.  Every seam is a public
function of its layer (ISSUE 12: spans inside the program are a later
change), so a layer's ``_s`` is the self time of those functions plus
whatever private code they call that no other seam covers.

Modelled-component counts (gateway acquires, buffer-pool hit rate, ...)
are simulated numbers; they come from the end-of-run snapshot each cell
carries in the traced pass, never from the wall clock.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Seam, Tracer

#: every per-layer metric a traced run reports, with its unit, in
#: display order; BENCHMARK.json's ``per_layer`` list is this table
PER_LAYER = (
    ("sql.lex_s", "s"), ("sql.lex_calls", "count"),
    ("sql.lex_tokens", "count"),
    ("sql.parse_s", "s"), ("sql.parse_calls", "count"),
    ("sql.bind_s", "s"), ("sql.bind_calls", "count"),
    ("optimizer.task_setup_s", "s"), ("optimizer.tasks", "count"),
    ("optimizer.precheck_s", "s"),
    ("optimizer.enumeration_s", "s"), ("optimizer.steps", "count"),
    ("optimizer.selection_s", "s"), ("optimizer.selection_calls", "count"),
    ("optimizer.parameterization_s", "s"),
    ("compilation.compile_s", "s"), ("compilation.compiles", "count"),
    ("compilation.search_replays", "count"),
    ("compilation.replay_ratio", "ratio"),
    ("compilation.degraded_plans", "count"),
    ("compilation.soft_denials", "count"),
    ("compilation.oom_failures", "count"),
    ("sim.run_s", "s"), ("sim.self_s", "s"),
    ("sim.events_scheduled", "count"), ("sim.host_us_per_event", "us"),
    ("broker.sweep_s", "s"), ("broker.sweeps", "count"),
    ("broker.advise_s", "s"), ("broker.advise_calls", "count"),
    ("memory.request_s", "s"), ("memory.request_calls", "count"),
    ("memory.oom_count", "count"),
    ("throttle.ensure_s", "s"), ("throttle.ensure_calls", "count"),
    ("throttle.gateway_acquires", "count"),
    ("throttle.gateway_timeouts", "count"),
    ("throttle.mean_wait_sim_s", "s"),
    ("execution.execute_s", "s"), ("execution.execute_calls", "count"),
    ("execution.grants", "count"), ("execution.grant_timeouts", "count"),
    ("storage.read_range_s", "s"), ("storage.read_range_calls", "count"),
    ("storage.buffer_pool_hit_rate", "ratio"),
    ("plancache.hit_rate", "ratio"), ("plancache.lookups", "count"),
    ("server.session_run_s", "s"), ("server.queries", "count"),
    ("server.queries_per_wall_s", "1/s"),
    ("workload.generate_s", "s"), ("workload.generate_calls", "count"),
    ("workload.build_catalog_s", "s"),
    ("workload.build_catalog_calls", "count"),
    ("traffic.offered", "count"), ("traffic.dropped", "count"),
    ("admission.request_s", "s"), ("admission.request_calls", "count"),
    ("metrics.record_s", "s"), ("metrics.record_calls", "count"),
    ("experiments.cell_self_s", "s"), ("experiments.cells", "count"),
    ("experiments.overhead_s_per_cell", "s"),
    ("experiments.wire_serve_s", "s"),
    ("experiments.journal_append_s", "s"),
    ("experiments.journal_appends", "count"),
    ("experiments.journal_bytes", "bytes"),
    ("experiments.requeues", "count"),
    ("scenarios.lower_s", "s"), ("scenarios.finalize_s", "s"),
    ("scenarios.finalize_calls", "count"),
    ("scenarios.artifact_write_s", "s"),
    ("scenarios.artifact_bytes", "bytes"),
    ("results.load_s", "s"),
    ("trace.wall_s_per_cell", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.share_sql", "ratio"), ("trace.share_optimizer", "ratio"),
    ("trace.share_compilation", "ratio"),
    ("trace.share_sim_broker", "ratio"),
    ("trace.share_harness", "ratio"),
    ("sql.probe_tokens_per_s", "1/s"),
    ("sql.probe_parse_stmts_per_s", "1/s"),
    ("sql.probe_bind_stmts_per_s", "1/s"),
    ("optimizer.probe_sales_queries_per_s", "1/s"),
    ("optimizer.probe_oltp_queries_per_s", "1/s"),
    ("sim.probe_timer_events_per_s_1e4", "1/s"),
    ("sim.probe_timer_events_per_s_1e5", "1/s"),
    ("experiments.probe_journal_appends_per_s", "1/s"),
)



def better(name: str) -> str:
    """Which way a per-layer metric improves (rates up, the rest down)."""
    rate = name.endswith(("_per_s", "hit_rate", "replay_ratio"))
    return "higher" if rate else "lower"


#: per-layer counts that are simulated numbers: for one seed they must
#: repeat exactly on any commit that keeps the simulation unchanged
#: (the other counts measure host work, which an optimisation may cut)
SIMULATED_COUNTS = (
    "compilation.compiles", "compilation.degraded_plans",
    "compilation.soft_denials", "compilation.oom_failures",
    "broker.sweeps", "memory.oom_count", "throttle.gateway_acquires",
    "throttle.gateway_timeouts", "execution.grants",
    "execution.grant_timeouts", "server.queries", "traffic.offered",
    "traffic.dropped",
)

#: the span that covers a whole measured round; its self time is what
#: no seam accounts for
ROOT = "trace.root"

#: layer-name prefixes summed into each reported share of traced wall
SHARES = {
    "trace.share_sql": ("sql.",),
    "trace.share_optimizer": ("optimizer.",),
    "trace.share_compilation": ("compilation.",),
    "trace.share_sim_broker": ("sim.", "broker."),
    "trace.share_harness": ("experiments.", "scenarios.", "results."),
}


def _count_tokens(tracer: Tracer, _args, tokens) -> None:
    tracer.counts["sql.lex_tokens"] += len(tokens)


def _note_requeues(tracer: Tracer, args, _result) -> None:
    # read when the stream executor closes its server: serve() is a
    # generator, so its return is not a point a func hook can see
    tracer.counts["experiments.requeues"] += args[0].requeues


def seams() -> List[Seam]:
    """Every seam, resolved against the imported program."""
    from repro.admission import policies
    from repro.broker.broker import MemoryBroker
    from repro.compilation.pipeline import CompilationPipeline
    from repro.execution.executor import QueryExecutor
    from repro.experiments import executors, journal, runner, wire
    from repro.memory.account import MemoryAccount
    from repro.metrics.collector import MetricsCollector
    from repro.optimizer import pipeline as stages
    from repro.optimizer.optimizer import Optimizer
    from repro.results.warehouse import Warehouse
    from repro.scenarios import facade
    from repro.server.session import Session
    from repro.sim.environment import Environment
    from repro.sql import binder, lexer, parser
    from repro.storage.bufferpool import BufferPool
    from repro.throttle.governor import CompilationGovernor

    table = [
        Seam("sql.lex", lexer, "tokenize", on_result=_count_tokens),
        Seam("sql.parse", parser, "parse"),
        Seam("sql.bind", binder.Binder, "bind"),
        Seam("optimizer.task_setup", Optimizer, "task"),
        Seam("compilation.compile", CompilationPipeline, "compile", "gen"),
        Seam("throttle.ensure", CompilationGovernor, "ensure", "gen"),
        Seam("broker.sweep", MemoryBroker, "sweep"),
        Seam("broker.advise", MemoryBroker, "advise_compile_grant"),
        Seam("memory.request", MemoryAccount, "request"),
        Seam("execution.execute", QueryExecutor, "execute", "gen"),
        Seam("storage.read_range", BufferPool, "read_range", "gen"),
        Seam("server.session_run", Session, "run", "gen"),
        Seam("metrics.record", MetricsCollector, "record_query"),
        Seam("sim.run", Environment, "run"),
        Seam("sim.schedule", Environment, "schedule", "count"),
        Seam("experiments.cell", runner, "run_experiment"),
        Seam("experiments.wire_serve", wire.CellQueueServer, "serve", "gen"),
        Seam("experiments.wire_close", wire.CellQueueServer, "close",
             on_result=_note_requeues),
        Seam("experiments.journal_append", journal.CellJournal, "append"),
        Seam("scenarios.lower", executors, "tasks_for_specs"),
        Seam("scenarios.finalize", facade, "scenario_result_from_cells"),
        Seam("scenarios.artifact_write", facade, "write_scenario_artifact"),
        Seam("results.load", Warehouse, "load"),
    ]
    # every strategy class the optimizer pipeline can resolve; a subclass
    # that inherits a stage method is covered by its base's wrapper
    for layer, registry, attr, kind in (
            ("optimizer.precheck", stages.PRECHECKS, "check", "func"),
            ("optimizer.enumeration", stages.ENUMERATORS, "steps", "steps"),
            ("optimizer.selection", stages.SELECTIONS, "implement", "func"),
            ("optimizer.parameterization", stages.PARAMETERIZATIONS,
             "finalize", "func")):
        table += [Seam(layer, cls, attr, kind)
                  for cls in registry.values() if attr in cls.__dict__]
    table += [Seam("admission.request", cls, "request")
              for cls in vars(policies).values()
              if isinstance(cls, type) and cls.__module__ == policies.__name__
              and "request" in cls.__dict__]
    for cls in runner.WORKLOAD_FACTORIES.values():
        for layer, attr in (("workload.generate", "generate"),
                            ("workload.build_catalog", "build_catalog")):
            if attr in cls.__dict__:
                table.append(Seam(layer, cls, attr))
    return table


def _snapshot_totals(summaries: List[dict]) -> Dict[str, float]:
    """Sum the modelled-component counters over every cell snapshot."""
    out: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0.0) + value

    waits = hit_cells = 0.0
    for summary in summaries:
        snap = summary["snapshot"]
        facts = snap["summary"]
        add("compilation.degraded_plans", facts["degraded_plans"])
        add("compilation.soft_denials", facts["soft_denials"])
        add("compilation.search_replays", facts["search_replays"])
        add("compilation.oom_failures",
            summary["error_counts"].get("compile_oom", 0))
        add("broker.sweeps", facts["broker_sweeps"])
        add("memory.oom_count", facts["oom_count"])
        add("storage.buffer_pool_hit_rate", facts["buffer_pool_hit_rate"])
        add("plancache.hit_rate", facts["plan_cache_hit_rate"])
        hit_cells += 1
        for row in snap["memory_gateways"]:
            add("throttle.gateway_acquires", row["acquires"])
            add("throttle.gateway_timeouts", row["timeouts"])
            waits += row["mean_wait"] * row["acquires"]
        add("execution.grants", snap["grant_queue"]["grants"])
        add("execution.grant_timeouts", snap["grant_queue"]["timeouts"])
        open_loop = summary.get("open_loop", {})
        add("traffic.offered", open_loop.get("offered", 0.0))
        add("traffic.dropped", open_loop.get("dropped", 0.0))
    # rates are averaged over cells, waits over acquires
    for name in ("storage.buffer_pool_hit_rate", "plancache.hit_rate"):
        if hit_cells:
            out[name] /= hit_cells
    acquires = out.get("throttle.gateway_acquires", 0.0)
    out["throttle.mean_wait_sim_s"] = waits / acquires if acquires else 0.0
    return out


def derive(tracer: Tracer, summaries: List[dict], *, cells: int,
           wall_s: float, cell_wall_s: float, journal_bytes: int,
           artifact_bytes: int) -> Dict[str, float]:
    """The in-situ per-layer metrics of one traced pass (no probes).

    ``summaries`` are the experiment cells' result summaries (with
    snapshots); ``wall_s`` the traced rounds' wall and ``cell_wall_s``
    the sum of the cells' own ``wall_seconds``.
    """
    self_s, calls = tracer.self_s, tracer.calls
    out: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER
                             if ".probe_" not in name}
    for name in out:
        layer = name[:-2] if name.endswith("_s") else None
        if layer in self_s:
            out[name] = self_s[layer]
        if name.endswith("_calls") and name[:-6] in calls:
            out[name] = float(calls[name[:-6]])
    out.update(_snapshot_totals(summaries))
    out["sql.lex_tokens"] = tracer.counts["sql.lex_tokens"]
    out["optimizer.tasks"] = float(calls["optimizer.task_setup"])
    out["optimizer.steps"] = float(tracer.yields["optimizer.enumeration"])
    compiles = float(calls["compilation.compile"])
    out["compilation.compiles"] = compiles
    out["compilation.replay_ratio"] = \
        out["compilation.search_replays"] / compiles if compiles else 0.0
    out["sim.run_s"] = tracer.total_s["sim.run"]
    out["sim.self_s"] = self_s["sim.run"]
    events = float(calls["sim.schedule"])
    out["sim.events_scheduled"] = events
    out["sim.host_us_per_event"] = \
        self_s["sim.run"] / events * 1e6 if events else 0.0
    queries = float(calls["server.session_run"])
    out["server.queries"] = queries
    out["plancache.lookups"] = queries
    out["server.queries_per_wall_s"] = \
        queries / cell_wall_s if cell_wall_s else 0.0
    out["experiments.cell_self_s"] = self_s["experiments.cell"]
    out["experiments.cells"] = float(cells)
    out["experiments.overhead_s_per_cell"] = (wall_s - cell_wall_s) / cells
    out["experiments.wire_serve_s"] = \
        self_s["experiments.wire_serve"] + self_s["experiments.wire_close"]
    out["experiments.journal_appends"] = \
        float(calls["experiments.journal_append"])
    out["experiments.journal_bytes"] = float(journal_bytes)
    out["experiments.requeues"] = tracer.counts["experiments.requeues"]
    out["scenarios.artifact_bytes"] = float(artifact_bytes)
    out["trace.wall_s_per_cell"] = wall_s / cells
    out["trace.unattributed_share"] = self_s[ROOT] / wall_s
    for name, prefixes in SHARES.items():
        out[name] = sum(seconds for layer, seconds in self_s.items()
                        if layer.startswith(prefixes)) / wall_s
    return out
