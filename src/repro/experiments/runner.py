"""Generic experiment runner.

All durations in :class:`ExperimentConfig` are expressed in *paper
seconds* (the testbed's wall clock); ``time_scale`` compresses them for
simulation and results are reported back in paper seconds, so every
harness prints series directly comparable to the figures.
"""

from __future__ import annotations

import gc
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
    #: simulation time compression
    time_scale: float
    #: optimizer effort/memory trade (ServerConfig.fast factor)
    fast_factor: float


#: fidelity presets: "paper" replays the full experiment; "scaled" keeps
#: every ratio but compresses the run for benchmarks; "smoke" is for tests
PRESETS: Dict[str, Preset] = {
    "paper": Preset("paper", warmup=10800.0, measure=18000.0,
                    bucket=600.0, time_scale=1.0, fast_factor=1.0),
    "scaled": Preset("scaled", warmup=2400.0, measure=4800.0,
                     bucket=600.0, time_scale=1.0, fast_factor=4.0),
    "smoke": Preset("smoke", warmup=1200.0, measure=1800.0,
                    bucket=600.0, time_scale=1.0, fast_factor=8.0),
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
    #: optimizer pipeline stage strategies (``None`` = the default
    #: basic/memo/cost/estimates pipeline, pinned byte-identical to
    #: the pre-pipeline optimizer)
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
        cfg = cfg.scaled(preset.time_scale)
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
    scale = preset.time_scale
    server_config = config.build_server_config()
    workload = workload or config.build_workload()
    catalog = workload.build_catalog()

    metrics = MetricsCollector(bucket_width=preset.bucket / scale)
    env = Environment()
    with DatabaseServer(server_config, catalog, env=env,
                        metrics=metrics) as server:
        duration_sim = (preset.warmup + preset.measure) / scale
        if config.traffic is not None:
            from repro.traffic.openloop import OpenLoopGenerator

            generator = OpenLoopGenerator(
                server, workload, traffic=config.traffic,
                duration=duration_sim, metrics=metrics, seed=config.seed,
                clients=config.clients, admission=config.admission,
                capture=config.capture_trace is not None)
        else:
            generator = LoadGenerator(
                server, workload, clients=config.clients,
                duration=duration_sim, metrics=metrics, seed=config.seed,
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

        warm_sim = preset.warmup / scale
        series = [(t * scale, count)
                  for t, count in metrics.throughput_series(
                      warm_sim, duration_sim)]
        totals = generator.totals()
        memory = {clerk: trace.mean(warm_sim, duration_sim)
                  for clerk, trace in metrics.memory.items()}
        gateways = [(g.name, g.stats.acquires, g.stats.timeouts,
                     g.stats.mean_wait() * scale)
                    for g in server.governor.gateways]
        open_loop = (generator.facts(scale)
                     if config.traffic is not None else None)
        slo = None
        if config.slo is not None and open_loop is not None:
            from repro.admission.slo import evaluate_slo

            slo = evaluate_slo(config.slo, open_loop)
        return ExperimentResult(
            config=config,
            throughput=series,
            completed=metrics.successes(warm_sim, duration_sim),
            failed=metrics.failure_total(),
            error_counts=dict(metrics.error_counts),
            degraded=metrics.degraded_count(),
            retries=totals.retries,
            mean_compile_time=metrics.mean_compile_time() * scale,
            mean_execution_time=metrics.mean_execution_time() * scale,
            memory_by_clerk=memory,
            gateway_stats=gateways,
            wall_seconds=wall,
            search_replays=server.pipeline.search_replays,
            soft_denials=server.pipeline.soft_denials,
            open_loop=open_loop,
            slo=slo,
            snapshot=snapshot,
        )
