"""Generic experiment runner and the artifact envelope.

All durations are expressed in *paper seconds* (the testbed's wall
clock): one simulated second is one second of the paper's runs, so
every series is directly comparable to the figures.

:func:`summarize_result` turns a result into its JSON summary, and
:func:`write_bench_document` writes every ``BENCH_*.json`` under one
:data:`ARTIFACT_SCHEMA` envelope.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.admission.spec import AdmissionSpec, SloSpec
from repro.config import ServerConfig, paper_server_config
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.optimizer.spec import OptimizerSpec
from repro.server.server import DatabaseServer
from repro.sim import Environment
from repro.traffic.spec import TrafficSpec
from repro.workload.base import Workload
from repro.workload.loadgen import ClientStats, LoadGenerator
from repro.workload.mixed import MixedWorkload
from repro.workload.oltp import OltpWorkload
from repro.workload.sales import SalesWorkload
from repro.workload.tpch import TpchWorkload


@dataclass(frozen=True)
class Preset:
    """A fidelity/runtime trade-off for the harness."""

    name: str
    #: warm-up excluded from measurements (paper: first 10 800 s)
    warmup: float
    #: measured window after warm-up (paper: 10 800 s → 28 800 s)
    measure: float
    #: figure bucket width (one point = completions per bucket)
    bucket: float
    #: optimizer effort/memory trade (ServerConfig.fast factor)
    fast_factor: float


#: fidelity presets: "paper" replays the full experiment; "scaled"
#: shortens warm-up and measurement for benchmarks; "smoke" is for tests
PRESETS: Dict[str, Preset] = {
    "paper": Preset("paper", warmup=10800.0, measure=18000.0,
                    bucket=600.0, fast_factor=1.0),
    "scaled": Preset("scaled", warmup=2400.0, measure=4800.0,
                     bucket=600.0, fast_factor=4.0),
    "smoke": Preset("smoke", warmup=1200.0, measure=1800.0,
                    bucket=600.0, fast_factor=8.0),
}


def get_preset(name: str) -> Preset:
    """Look a preset up by name, with a helpful configuration error."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; valid presets: "
            f"{', '.join(sorted(PRESETS))}") from None


@dataclass
class ExperimentConfig:
    """One fully-specified run."""

    workload: str = "sales"
    clients: int = 30
    throttling: bool = True
    preset: str = "scaled"
    seed: int = 1
    think_time: float = 15.0
    #: extra keyword arguments for the workload factory, as a sorted
    #: tuple of (name, value) pairs so configs stay hashable/picklable
    workload_params: Tuple[Tuple[str, object], ...] = ()
    #: open-loop traffic shape (arrival process or trace replay);
    #: ``None`` keeps the closed-loop think-time clients, byte-for-byte
    traffic: Optional[TrafficSpec] = None
    #: admission policy arbitrating the open-loop slots (``None`` =
    #: FIFO, pinned byte-identical to the pre-policy behavior); only
    #: meaningful with a ``traffic`` spec
    admission: Optional[AdmissionSpec] = None
    #: latency objectives evaluated against the ``open_loop`` facts
    #: (only meaningful with a ``traffic`` spec)
    slo: Optional[SloSpec] = None
    #: optimizer pipeline (``None`` = the default
    #: basic/memo/cost/estimates pipeline, pinned byte-identical to
    #: the pre-pipeline optimizer; only the enumerator can be ``ues``)
    optimizer: Optional[OptimizerSpec] = None
    #: overrides applied to the ServerConfig after preset handling
    server_overrides: Optional[ServerConfig] = None
    #: capture a final :meth:`ServerViews.snapshot` with the result
    #: (execution metadata, not a simulation parameter: the flag never
    #: changes any simulated number)
    capture_snapshot: bool = False
    #: path to write a replayable JSONL admission trace of this run
    #: (execution metadata like ``capture_snapshot``: capturing never
    #: changes any simulated number)
    capture_trace: Optional[str] = None

    def build_server_config(self) -> ServerConfig:
        preset = get_preset(self.preset)
        base = self.server_overrides or paper_server_config()
        cfg = base.with_throttling(self.throttling)
        if preset.fast_factor != 1.0:
            cfg = cfg.fast(preset.fast_factor)
        if self.optimizer is not None:
            cfg = replace(cfg, optimizer=self.optimizer)
        return cfg

    def build_workload(self) -> Workload:
        return make_workload(self.workload, **dict(self.workload_params))


#: workload factories by name (the CLI and ScenarioSpec validation use
#: the key set as the list of valid workload names)
WORKLOAD_FACTORIES = {
    "sales": SalesWorkload,
    "tpch": TpchWorkload,
    "oltp": OltpWorkload,
    "mixed": MixedWorkload,
}


def make_workload(name: str, scale: float = 1.0, **params) -> Workload:
    """Instantiate a workload by name."""
    try:
        factory = WORKLOAD_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; valid workloads: "
            f"{', '.join(sorted(WORKLOAD_FACTORIES))}") from None
    try:
        return factory(scale=scale, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad parameters for workload {name!r}: {exc}") from None


@dataclass
class ExperimentResult:
    """Everything measured in one run (times in paper seconds)."""

    config: ExperimentConfig
    #: (bucket_start, completions) covering the measured window
    throughput: List[Tuple[float, int]]
    completed: int
    failed: int
    error_counts: Dict[str, int]
    degraded: int
    retries: int
    mean_compile_time: float
    mean_execution_time: float
    #: mean memory by clerk over the measured window (bytes)
    memory_by_clerk: Dict[str, float]
    gateway_stats: List[Tuple[str, int, int, float]]
    wall_seconds: float
    #: compiles served by replaying a recorded optimizer search (host
    #: work saved inside this cell's server; never changes results)
    search_replays: int = 0
    #: broker soft-grant denials that degraded to a best-so-far plan
    soft_denials: int = 0
    #: open-loop admission facts (offered/admitted/drops/queue waits);
    #: only present for runs with a ``traffic`` spec
    open_loop: Optional[Dict[str, float]] = None
    #: SLO evaluation facts (``<target>.observed/.target/.ok`` plus
    #: ``ok``/``violations``); only present when the config declares
    #: objectives over an open-loop run
    slo: Optional[Dict[str, float]] = None
    #: end-of-run DMV snapshot (``ServerViews.snapshot()``), captured
    #: only when the config asked for one
    snapshot: Optional[Dict] = None

    @property
    def mean_per_bucket(self) -> float:
        """Mean completions per figure bucket over the measured window."""
        if not self.throughput:
            return 0.0
        return sum(c for _, c in self.throughput) / len(self.throughput)


def run_experiment(config: ExperimentConfig,
                   workload: Optional[Workload] = None,
                   ) -> ExperimentResult:
    """Execute one run and collect its results.

    ``workload`` can be passed pre-built so a catalog is shared between
    runs of a comparison (building it is cheap, but sharing guarantees
    identical schemas).

    The run owns its server and closes it before returning, so the
    cell's heap — every compile cache included — is freed by reference
    counting on the way out; only the result outlives the call.
    """
    preset = get_preset(config.preset)
    # The simulation allocates millions of small, mostly refcounted
    # objects; pausing the cyclic collector for a short run is
    # measurably faster.  It comes back on only once the run has been
    # torn down and its frame is gone, so the next collection looks at
    # what outlives the cell rather than at the cell.  Long
    # (paper-fidelity) runs keep the collector on so their heap stays
    # bounded.
    pause_gc = (preset.warmup + preset.measure) <= 12_000 and gc.isenabled()
    if pause_gc:
        gc.disable()
    try:
        return _run_cell(config, preset, workload)
    finally:
        if pause_gc:
            gc.enable()


def _run_cell(config: ExperimentConfig, preset: Preset,
              workload: Optional[Workload]) -> ExperimentResult:
    """Build, run, measure and tear down one cell's server."""
    server_config = config.build_server_config()
    workload = workload or config.build_workload()
    catalog = workload.build_catalog()

    metrics = MetricsCollector(bucket_width=preset.bucket)
    env = Environment()
    with DatabaseServer(server_config, catalog, env=env,
                        metrics=metrics) as server:
        duration = preset.warmup + preset.measure
        if config.traffic is not None:
            from repro.traffic.openloop import OpenLoopGenerator

            generator = OpenLoopGenerator(
                server, workload, traffic=config.traffic,
                duration=duration, metrics=metrics, seed=config.seed,
                clients=config.clients, admission=config.admission,
                capture=config.capture_trace is not None)
        else:
            generator = LoadGenerator(
                server, workload, clients=config.clients,
                duration=duration, metrics=metrics, seed=config.seed,
                think_time=config.think_time,
                capture=config.capture_trace is not None)

        started = time.perf_counter()
        generator.run()
        wall = time.perf_counter() - started

        snapshot = None
        if config.capture_snapshot:
            from repro.server.dmv import ServerViews

            snapshot = ServerViews(server).snapshot()

        if config.capture_trace is not None:
            from repro.admission.capture import write_capture

            write_capture(config.capture_trace,
                          generator.captured_events())

        series = metrics.throughput_series(preset.warmup, duration)
        totals = generator.totals()
        memory = metrics.memory_means(preset.warmup, duration)
        gateways = [(g.name, g.stats.acquires, g.stats.timeouts,
                     g.stats.mean_wait())
                    for g in server.governor.gateways]
        open_loop = (generator.facts()
                     if config.traffic is not None else None)
        slo = None
        if config.slo is not None and open_loop is not None:
            from repro.admission.slo import evaluate_slo

            slo = evaluate_slo(config.slo, open_loop)
        return ExperimentResult(
            config=config,
            throughput=series,
            completed=metrics.successes(preset.warmup, duration),
            failed=metrics.failure_total(),
            error_counts=dict(metrics.error_counts),
            degraded=metrics.degraded_count(),
            retries=totals.retries,
            mean_compile_time=metrics.mean_compile_time(),
            mean_execution_time=metrics.mean_execution_time(),
            memory_by_clerk=memory,
            gateway_stats=gateways,
            wall_seconds=wall,
            search_replays=server.pipeline.search_replays,
            soft_denials=server.pipeline.soft_denials,
            open_loop=open_loop,
            slo=slo,
            snapshot=snapshot,
        )


# ------------------------------------------------------------- artifacts
#: artifact schema version — bump when the JSON layout changes
#: (2: workload_params in configs, search_replays/soft_denials counters;
#: 3: versioned scenario specs, shard artifacts with shard/selection
#: metadata and mergeable per-variant results;
#: 4: optional per-run DMV ``snapshot`` behind ``--snapshot``,
#: cross-variant expectation checks carrying a ``reference`` value.
#: Amendment under 4 (backward compatible, no bump): open-loop runs add
#: a ``traffic`` key to their config doc and an ``open_loop`` fact
#: block to their summary; both appear only when a run carries a
#: traffic spec, so closed-loop artifacts are byte-identical.
#: Second amendment under 4, since withdrawn: runs on a non-default
#: scheduler core added a ``kernel`` key to their config doc.  Configs
#: no longer choose a core, so no run writes it; readers ignore it in
#: old artifacts.
#: Third amendment under 4: runs with an admission policy and/or SLO
#: objectives add ``admission``/``slo`` keys to their config doc and an
#: ``slo`` fact block to their summary — all three appear only when the
#: config carries them, so policy-free artifacts keep their exact bytes.
#: Fourth amendment under 4: runs with an explicit optimizer pipeline
#: spec add an ``optimizer`` key to their config doc — only when the
#: config carries one, so spec-free artifacts keep their exact bytes)
ARTIFACT_SCHEMA = 4


def summarize_result(result: ExperimentResult) -> dict:
    """The JSON-ready summary of one run (stable key order).

    The optional trailing ``snapshot`` key (the end-of-run DMV dump,
    present only when the run was configured with
    ``capture_snapshot``) is execution metadata: it is zeroed by
    :func:`~repro.experiments.shards.canonical_document` and never
    feeds back into metrics.
    """
    config = result.config
    config_doc = {
        "workload": config.workload,
        "workload_params": dict(config.workload_params),
        "clients": config.clients,
        "throttling": config.throttling,
        "preset": config.preset,
        "seed": config.seed,
        "think_time": config.think_time,
    }
    if config.traffic is not None:
        config_doc["traffic"] = config.traffic.to_dict()
    if config.admission is not None:
        config_doc["admission"] = config.admission.to_dict()
    if config.slo is not None:
        config_doc["slo"] = config.slo.to_dict()
    if config.optimizer is not None:
        config_doc["optimizer"] = config.optimizer.to_dict()
    summary = {
        "config": config_doc,
        "completed": result.completed,
        "failed": result.failed,
        "error_counts": dict(sorted(result.error_counts.items())),
        "degraded": result.degraded,
        "retries": result.retries,
        "search_replays": result.search_replays,
        "soft_denials": result.soft_denials,
        "mean_per_bucket": result.mean_per_bucket,
        "mean_compile_time": result.mean_compile_time,
        "mean_execution_time": result.mean_execution_time,
        "memory_by_clerk": dict(sorted(result.memory_by_clerk.items())),
        "gateway_stats": [list(row) for row in result.gateway_stats],
        "throughput": [[t, c] for t, c in result.throughput],
        "wall_seconds": result.wall_seconds,
    }
    if result.open_loop is not None:
        # deterministic simulated admission facts — pinned, unlike the
        # wall-clock fields above
        summary["open_loop"] = dict(sorted(result.open_loop.items()))
    if result.slo is not None:
        # SLO verdicts over the open-loop facts — pinned as well
        summary["slo"] = dict(sorted(result.slo.items()))
    if result.snapshot is not None:
        summary["snapshot"] = result.snapshot
    return summary


def write_bench_document(out_dir: str, name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` with the standard envelope.

    Every artifact (scenario documents, the benchmark session summary)
    goes through here so the schema version, filename convention and
    serialization stay uniform for CI consumers.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    doc = {
        "schema": ARTIFACT_SCHEMA,
        "name": name,
        "python": platform.python_version(),
    }
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
