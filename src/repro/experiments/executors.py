"""The cell-execution protocol: one contract, two executors.

A **cell** (scenario × variant × seed, :class:`ShardCell`) is the
atomic unit of experiment work everywhere in this codebase; this
module makes its *execution* pluggable.  A :class:`CellExecutor`
accepts :class:`CellTask`\\ s (cell + spec, self-describing enough to
run anywhere) and yields :class:`CellResult`\\ s (JSON-ready summaries,
the same shapes shard documents carry).  Every surface — the
``run_scenario`` facade, ``repro shards run``, and the ``repro
workers`` pair — submits through this protocol, so single-machine,
sharded and remote runs are one code path differing only in executor
choice:

* :class:`InlineExecutor` — serial, in-process.
* :class:`StreamExecutor` — serves the cell queue to worker processes
  over the TCP wire protocol (:mod:`repro.experiments.wire`): local
  ones it spawns itself (``--workers N``) and/or remote joiners.
  Workers *pull* cells one at a time, so slow cells rebalance
  automatically (work stealing), and a cell claimed by a worker that
  dies is re-queued for the survivors.

Determinism contract: every number in a result summary but its wall
clock is a pure function of the cell's config and seed (each cell
builds and tears down its own server, so no cache outlives it), and
both executors produce canonically byte-identical artifacts
(pinned by tests; see :func:`repro.experiments.shards.canonical_document`).

Two layers compose with any executor rather than being executors
themselves: :mod:`repro.experiments.journal` wraps one in a durable
run journal (checkpoint/restart — ``--journal``/``--resume``), and
:mod:`repro.experiments.scheduler` reorders the submitted queue by
expected cost (``--order cost``) before it reaches ``submit``.
"""

from __future__ import annotations

import abc
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiment, summarize_result

Progress = Optional[Callable[[str], None]]


# ----------------------------------------------------------- the cells
@dataclass(frozen=True)
class CellTask:
    """One self-describing unit of work an executor can run anywhere.

    Carries the cell identity plus the full spec (so a remote worker
    needs nothing but the task document), the ``snapshot`` flag
    (whether the run should capture an end-of-run DMV snapshot) and
    the optional ``capture`` directory (where the run writes its
    replayable JSONL admission trace).
    """

    cell: "ShardCell"
    spec: "ScenarioSpec"
    snapshot: bool = False
    capture: Optional[str] = None

    def key(self) -> str:
        """A batch-unique label: ``scenario/variant#seed``."""
        cell = self.cell
        return f"{cell.scenario_id}/{cell.variant}#{cell.seed}"

    def trace_path(self) -> Optional[str]:
        """Where this cell's admission trace goes (None = no capture)."""
        if self.capture is None:
            return None
        cell = self.cell
        scenario = cell.scenario_id.replace("/", "_")
        return os.path.join(
            self.capture,
            f"TRACE_{scenario}_{cell.variant}_{cell.seed}.jsonl")

    def to_doc(self) -> dict:
        """The JSON wire form (shard-document shapes throughout)."""
        doc = {
            "cell": self.cell.as_doc(),
            "spec": self.spec.to_dict(),
            "snapshot": self.snapshot,
        }
        if self.capture is not None:
            doc["capture"] = self.capture
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "CellTask":
        from repro.experiments.shards import ShardCell
        from repro.scenarios.spec import ScenarioSpec

        if not isinstance(doc, dict) or "cell" not in doc \
                or "spec" not in doc:
            raise ConfigurationError(
                f"cell task must be an object with cell and spec, "
                f"got {doc!r}")
        return cls(cell=ShardCell.from_doc(doc["cell"]),
                   spec=ScenarioSpec.from_dict(doc["spec"]),
                   snapshot=bool(doc.get("snapshot", False)),
                   capture=doc.get("capture"))


@dataclass
class CellResult:
    """Everything one executed cell produced, in JSON-ready form.

    Experiment cells carry a ``summary`` (the exact
    :func:`~repro.experiments.runner.summarize_result` document) or an
    ``error``; monitors/trace cells carry ``scenario_metrics`` (JSON-
    safe, sorted — the shard-document form) plus the rendered ``body``.
    ``wall_seconds`` is execution-dependent and canonically volatile.
    """

    cell: "ShardCell"
    wall_seconds: float = 0.0
    summary: Optional[dict] = None
    error: Optional[str] = None
    scenario_metrics: Optional[dict] = None
    body: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_doc(self) -> dict:
        doc: dict = {"cell": self.cell.as_doc(),
                     "wall_seconds": self.wall_seconds}
        for name in ("summary", "error", "scenario_metrics", "body"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "CellResult":
        from repro.experiments.shards import ShardCell

        if not isinstance(doc, dict) or "cell" not in doc:
            raise ConfigurationError(
                f"cell result must be an object with a cell, got {doc!r}")
        return cls(cell=ShardCell.from_doc(doc["cell"]),
                   wall_seconds=float(doc.get("wall_seconds", 0.0)),
                   summary=doc.get("summary"),
                   error=doc.get("error"),
                   scenario_metrics=doc.get("scenario_metrics"),
                   body=doc.get("body"))


def tasks_for_specs(specs, snapshot: bool = False,
                    capture: Optional[str] = None) -> List[CellTask]:
    """Lower a scenario selection to cell tasks, in selection order.

    The same cell enumeration :class:`~repro.experiments.shards.
    ShardPlan` uses, so an executor submission and a shard plan always
    agree about what the unit of work is.
    """
    from repro.experiments.shards import ShardCell

    ids = [spec.scenario_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(
            f"duplicate scenario ids in selection: {ids}")
    return [CellTask(cell=ShardCell(spec.scenario_id, variant, spec.seed),
                     spec=spec, snapshot=snapshot, capture=capture)
            for spec in specs for variant in spec.variant_names()]


def execute_cell(task: CellTask) -> CellResult:
    """Run one cell in-process — the primitive every executor shares.

    Experiment cells lower to their variant's config and run through
    :func:`run_experiment`; failures come back as error results (error
    accounting, not control flow).  Monitors/trace cells render whole.
    """
    from repro.scenarios.facade import jobs_for_scenario, run_cell_scenario

    spec, cell = task.spec, task.cell
    if spec.kind != "experiment":
        started = time.perf_counter()
        result = run_cell_scenario(spec)
        metrics = {
            name: (repr(value) if isinstance(value, float)
                   and not math.isfinite(value) else value)
            for name, value in sorted(result.scenario_metrics.items())}
        return CellResult(cell=cell,
                          wall_seconds=time.perf_counter() - started,
                          scenario_metrics=metrics, body=result.body)
    try:
        job = next((job for job in jobs_for_scenario(spec)
                    if job.name == cell.variant), None)
        if job is None:
            raise ConfigurationError(
                f"scenario {spec.scenario_id!r} has no variant "
                f"{cell.variant!r}")
        config = replace(job.config, capture_snapshot=task.snapshot,
                         capture_trace=task.trace_path())
        result = run_experiment(config)
    except Exception as exc:  # noqa: BLE001 - error accounting
        return CellResult(cell=cell,
                          error=f"{type(exc).__name__}: {exc}")
    return CellResult(cell=cell, wall_seconds=result.wall_seconds,
                      summary=summarize_result(result))


def _note(progress: Progress, result: CellResult) -> None:
    if progress is None:
        return
    label = f"{result.cell.scenario_id}/{result.cell.variant}"
    if result.error is not None:
        progress(f"{label}: FAILED ({result.error})")
    elif result.summary is not None:
        progress(f"{label}: completed={result.summary['completed']} "
                 f"failed={result.summary['failed']} "
                 f"wall={result.wall_seconds:.1f}s")
    else:
        progress(f"{label}: rendered")


# --------------------------------------------------------- the protocol
class CellExecutor(abc.ABC):
    """The cell-execution contract every surface submits through.

    ``submit`` consumes tasks and yields one :class:`CellResult` per
    cell (possibly out of order — consumers aggregate by spec variant
    order, so yield order never affects artifacts).  ``close`` releases
    whatever the executor holds (sockets, worker processes); ``cancel``
    asks it to stop handing out new cells.  Executors are context
    managers closing themselves on exit.
    """

    @abc.abstractmethod
    def submit(self, tasks: Iterable[CellTask],
               progress: Progress = None) -> Iterator[CellResult]:
        """Execute ``tasks``; yields one result per cell."""

    def close(self) -> None:
        """Release resources; further submissions are undefined."""

    def cancel(self) -> None:
        """Stop handing out new cells (in-flight cells may finish)."""

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InlineExecutor(CellExecutor):
    """Serial in-process execution — the facade's default."""

    def __init__(self):
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def submit(self, tasks: Iterable[CellTask],
               progress: Progress = None) -> Iterator[CellResult]:
        for task in tasks:
            if self._cancelled:
                return
            result = execute_cell(task)
            _note(progress, result)
            yield result


class StreamExecutor(CellExecutor):
    """Serve the cell queue to workers over TCP (pull = work stealing).

    ``start()`` binds the listener (``port=0`` picks an ephemeral
    port); workers join with ``repro workers join --connect
    host:port`` — or this executor spawns ``spawn_workers`` local
    ones itself.  Each worker pulls one cell at a time, so a slow cell
    never blocks the rest of the queue, and a cell claimed by a worker
    that disconnects is re-queued for the survivors (the recovery the
    kill-one-worker test pins).
    """

    #: optional claim hook: ``on_dispatch(task)`` fires the moment a
    #: worker claims a cell (the wire-level dispatch a run journal
    #: records; see :mod:`repro.experiments.journal`)
    on_dispatch: Optional[Callable[[CellTask], None]] = None

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 spawn_workers: int = 0,
                 timeout: Optional[float] = None):
        self.host = host
        self.port = port
        self.spawn_workers = int(spawn_workers)
        self.timeout = timeout
        self._server = None
        self._spawned: List[subprocess.Popen] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> tuple:
        """Bind the listener; returns the ``(host, port)`` address."""
        if self._server is None:
            from repro.experiments.wire import CellQueueServer

            self._server = CellQueueServer(self.host, self.port)
            self._server.start()
        return self._server.address

    @property
    def address(self) -> tuple:
        return self.start()

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
        for proc in self._spawned:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._spawned:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
        self._spawned = []

    def cancel(self) -> None:
        if self._server is not None:
            self._server.cancel()

    # -- execution -------------------------------------------------------
    def submit(self, tasks: Iterable[CellTask],
               progress: Progress = None) -> Iterator[CellResult]:
        host, port = self.start()
        for _ in range(max(0, self.spawn_workers - len(self._spawned))):
            self._spawned.append(self._spawn_worker(host, port))
        for result in self._server.serve(tasks, timeout=self.timeout,
                                         liveness=self._check_spawned,
                                         on_dispatch=self.on_dispatch):
            _note(progress, result)
            yield result

    def _check_spawned(self) -> None:
        """Fail loudly when every worker we spawned has died.

        Without this, a queue whose only workers were our own
        subprocesses would block forever after they crash.  External
        joiners keep the queue alive, so only the no-workers-left
        state aborts.
        """
        if not self._spawned or self._server is None:
            return
        if self._server.active_workers > 0:
            return
        codes = [proc.poll() for proc in self._spawned]
        if all(code is not None for code in codes):
            from repro.experiments.wire import WireError

            raise WireError(
                f"all {len(self._spawned)} spawned worker(s) exited "
                f"(exit codes {codes}) with cells outstanding; see "
                f"their stderr above")

    @staticmethod
    def _spawn_worker(host: str, port: int) -> subprocess.Popen:
        # the worker imports the same repro as this process, even when
        # that is a checkout on sys.path rather than an installed package
        import repro

        root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (root, env.get("PYTHONPATH"))))
        # stdout is noise (per-cell progress is suppressed) but stderr
        # is kept: a crashing worker must leave a diagnosable trace
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "workers", "join",
             "--connect", f"{host}:{port}", "--quiet"],
            stdout=subprocess.DEVNULL, env=env)


# ------------------------------------------------------------- factory
#: executor names the CLI accepts
EXECUTOR_NAMES = ("inline", "stream")


def make_executor(name: Optional[str] = None, workers: int = 1,
                  bind: str = "127.0.0.1:0",
                  timeout: Optional[float] = None) -> CellExecutor:
    """Build an executor from CLI-ish knobs.

    ``name=None`` picks :class:`InlineExecutor` for ``workers <= 1``
    and otherwise a :class:`StreamExecutor` that spawns ``workers``
    local worker processes.  An explicit ``"stream"`` spawns
    ``workers`` of them too, so ``workers=0`` serves external joiners
    only.
    """
    if name is None:
        name = "inline" if workers <= 1 else "stream"
    if name == "inline":
        return InlineExecutor()
    if name == "stream":
        from repro.experiments.wire import parse_address

        host, port = parse_address(bind)
        return StreamExecutor(host=host, port=port,
                              spawn_workers=max(0, workers),
                              timeout=timeout)
    raise ConfigurationError(
        f"unknown executor {name!r}; valid executors: "
        f"{', '.join(EXECUTOR_NAMES)}")
