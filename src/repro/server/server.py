"""The integrated database server."""

from __future__ import annotations

from typing import Optional

from repro.broker.broker import BrokerSignal, MemoryBroker
from repro.catalog.catalog import Catalog
from repro.compilation.pipeline import CompilationPipeline
from repro.config import ServerConfig
from repro.execution.executor import QueryExecutor
from repro.execution.grants import ResourceSemaphore
from repro.memory.manager import MemoryManager
from repro.metrics.collector import MetricsCollector
from repro.optimizer.optimizer import Optimizer
from repro.plancache.cache import PlanCache
from repro.server.scheduler import CpuScheduler
from repro.server.session import QueryOutcome, Session
from repro.sim import Environment
from repro.sql.binder import Binder
from repro.storage.bufferpool import BufferPool
from repro.storage.disk import DiskModel
from repro.throttle.governor import CompilationGovernor


class DatabaseServer:
    """A simulated DBMS with the paper's memory-management stack.

    Parameters
    ----------
    config:
        Full server configuration (hardware, throttling, broker, …).
    catalog:
        Schema + statistics of the attached database (workload modules
        build this).
    env:
        Optional existing simulation environment; a fresh one is
        created when omitted.
    metrics:
        Optional existing collector (experiments share one between the
        server and the load generator).
    """

    def __init__(self, config: ServerConfig, catalog: Catalog,
                 env: Optional[Environment] = None,
                 metrics: Optional[MetricsCollector] = None):
        self.config = config
        self.catalog = catalog
        self.env = env or Environment()
        self.metrics = metrics or MetricsCollector()
        hw = config.hardware

        # -- substrates -----------------------------------------------------
        self.memory = MemoryManager(hw.physical_memory)
        self.disk = DiskModel(self.env, hw)
        floor = int(hw.physical_memory
                    * config.broker.buffer_pool_floor_fraction)
        self.buffer_pool = BufferPool(self.env, self.memory, self.disk,
                                      floor_bytes=floor)
        self.plan_cache = PlanCache(self.memory, config.plan_cache)
        self.scheduler = CpuScheduler(self.env, hw)

        # -- compilation side --------------------------------------------------
        self.compile_clerk = self.memory.clerk("compilation")
        self.governor = CompilationGovernor(self.env, config.throttle, hw.cpus)
        self.optimizer = Optimizer(
            catalog,
            effort_multiplier=config.optimizer_effort,
            memory_multiplier=config.optimizer_memory_multiplier,
            spec=config.optimizer)
        self.binder = Binder(catalog)
        self.broker = MemoryBroker(self.env, self.memory, config.broker)
        best_plan = (config.throttle.enabled
                     and config.throttle.best_plan_so_far)
        if config.broker.enabled:
            # soft-grant handshake: compilation allocations consult the
            # broker before touching physical memory (extension (b))
            self.compile_clerk.advisor = self.broker.advise_compile_grant
        self.pipeline = CompilationPipeline(
            self.env, self.scheduler, self.governor, self.optimizer,
            self.binder, self.compile_clerk,
            broker=self.broker if config.broker.enabled else None,
            best_plan_so_far=best_plan)

        # -- execution side -----------------------------------------------------
        workspace_clerk = self.memory.clerk("workspace")
        workspace_bytes = int(hw.physical_memory
                              * config.execution.workspace_fraction)
        self.grant_semaphore = ResourceSemaphore(
            self.env, workspace_clerk, workspace_bytes)
        self.executor = QueryExecutor(
            self.env, self.scheduler, self.buffer_pool,
            self.grant_semaphore, config.execution)

        self._wire_broker()
        self._started = False

    # -- broker wiring ------------------------------------------------------
    def _wire_broker(self) -> None:
        self.broker.subscribe("buffer_pool", self._on_buffer_pool_note)
        self.broker.subscribe("plan_cache",
                              self.plan_cache.on_broker_notification)
        self.broker.subscribe("compilation", self._on_compilation_note)

    def _on_buffer_pool_note(self, note) -> None:
        if note.signal is BrokerSignal.GROW:
            self.buffer_pool.set_target(None)
        else:
            self.buffer_pool.set_target(note.target)

    def _on_compilation_note(self, note) -> None:
        """Feed the broker's compilation target to the dynamic
        gateway-threshold computation (extension (a))."""
        if note.signal is BrokerSignal.GROW:
            self.governor.set_compile_target(None)
        else:
            self.governor.set_compile_target(self.broker.compile_target())

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Launch the server tick (broker sweep, then memory sample)."""
        if self._started:
            return
        self._started = True
        self.env.process(self._tick())

    def close(self) -> None:
        """End this server's run and release what it holds (idempotent).

        Closes the environment — every in-flight query unwinds through
        its ``finally`` blocks, so monitors, grants and compilation
        accounts are returned — then drops the pipeline's recorded
        searches and statement skeletons, the optimizer's shape traces
        and the wiring that points back up the object graph
        (broker subscriptions, the clerk's grant advisor, the memory
        manager's shrink callbacks and release listeners).  Read
        results and views before closing; afterwards the
        server is only good for inspection of its counters, and plain
        reference counting frees it when the last user lets go.
        """
        self.env.close()
        self.pipeline.close()
        self.optimizer.close()
        self.broker.unsubscribe_all()
        self.compile_clerk.advisor = None
        self.memory.close()

    def __enter__(self) -> "DatabaseServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _tick(self):
        """The one periodic process: every broker interval, sweep (when
        the broker is enabled), then sample per-clerk memory into the
        metrics.  Both read one usage snapshot; it is read again for the
        sample only when the sweep sent a notification, since only a
        notification's handlers can change usage in between (by
        shrinking the caches).  A snapshot equal to the previous tick's
        is replaced by that previous object, so the broker and the
        sampler can tell "nothing changed" by identity."""
        env = self.env
        interval = self.config.broker.interval
        sweep = self.broker.sweep if self.config.broker.enabled else None
        usage_by_clerk = self.memory.usage_by_clerk
        sample = self.metrics.sample_memory
        last = None
        while True:
            yield env.timeout(interval)
            usage = usage_by_clerk()
            if usage == last:
                usage = last
            if sweep is not None and sweep(usage):
                usage = usage_by_clerk()
            sample(env.now, usage)
            last = usage

    # -- introspection -----------------------------------------------------------
    def views(self):
        """DMV-style snapshot views (see :mod:`repro.server.dmv`)."""
        from repro.server.dmv import ServerViews

        return ServerViews(self)

    # -- query entry points --------------------------------------------------------
    def session(self) -> Session:
        return Session(self)

    def run_query(self, text: str, label: str = ""):
        """Process generator: run one query, returning QueryOutcome."""
        return Session(self).run(text, label)

    def submit(self, text: str, label: str = ""):
        """Start a query as a detached process; returns the Process
        (wait on it to get the QueryOutcome)."""
        return self.env.process(self.run_query(text, label))

    # -- convenience for tests/examples ------------------------------------------------
    def execute_sync(self, text: str) -> QueryOutcome:
        """Run one query to completion on a quiet server."""
        process = self.submit(text)
        self.env.run()
        return process.value
