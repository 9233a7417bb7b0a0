"""The run journal: checkpoint/restart for any cell-executing surface.

A coordinator used to be a single point of loss — kill a ``repro
workers serve`` (or a ``repro shards run``) halfway through its queue
and the whole selection re-ran from zero.  This module makes the
queue durable instead: a :class:`CellJournal` is an append-only
newline-JSON file recording every **dispatched** and **completed**
cell (the shard-document shapes again — the journal format is the
wire format is the artifact format), and a :class:`JournaledExecutor`
wraps any :class:`~repro.experiments.executors.CellExecutor` so that

* a fresh run opens the journal with the selection's fingerprint and
  records each result as it is delivered, and
* a restarted run (``--resume``) **replays** the journal's completed
  cells without re-executing them and submits only the outstanding
  ones to the wrapped executor.

Because every simulated number is a pure function of the cell's config
and seed, a replayed result is indistinguishable from a re-executed
one, so a resumed run's merged artifact is canonically byte-identical
to an uninterrupted run — pinned by tests and the ``resume-smoke`` CI
lane.

A journal is also a complete record of *what the run produced*: every
``result`` record carries the exact summary document an artifact
would, so ``repro results load`` ingests a journal into the results
warehouse (:mod:`repro.results`) interchangeably with the run's
``BENCH_*.json`` directory.

Crash tolerance: records are flushed line-by-line, and a process
killed mid-append leaves at most one truncated trailing line, which
:func:`load_journal` ignores.  A journal is bound to one selection:
the fingerprint (cells + specs + snapshot flag, order-insensitive so
``--order`` never invalidates a journal) must match on resume, and an
existing journal is never silently overwritten — pass ``--resume`` or
remove the file.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import ARTIFACT_SCHEMA
from repro.experiments.executors import (
    CellExecutor,
    CellResult,
    CellTask,
    Progress,
)

# deferred at runtime (the shards module pulls in the scenario facade,
# which would re-enter this package's __init__ mid-import)
if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.shards import ShardCell

#: record ops a journal may contain (one JSON object per line):
#: ``open`` (run header: schema + selection fingerprint), ``resume``
#: (a restart appended onto an earlier run), ``dispatch`` (a cell was
#: handed to a worker/executor) and ``result`` (a cell completed,
#: carrying the full :class:`CellResult` document)
JOURNAL_OPS = ("open", "resume", "dispatch", "result")


def selection_fingerprint(tasks: Iterable[CellTask]) -> dict:
    """The order-insensitive identity of a submission.

    Cells are sorted and specs keyed by scenario id, so re-ordering
    the queue (``--order cost``) or re-resolving the same selection in
    a different order never invalidates a journal — but any change to
    what actually runs (cells, spec configuration, the ``--snapshot``
    flag) does.
    """
    tasks = list(tasks)
    specs: Dict[str, dict] = {}
    for task in tasks:
        specs.setdefault(task.spec.scenario_id, task.spec.to_dict())
    return {
        "cells": sorted(task.cell.as_doc() for task in tasks),
        "specs": [specs[scenario_id] for scenario_id in sorted(specs)],
        "snapshot": any(task.snapshot for task in tasks),
    }


# ------------------------------------------------------------- writing
class CellJournal:
    """Append-only newline-JSON journal of one run's cell progress.

    Thread-safe (the stream coordinator records dispatches from its
    connection handlers) and flushed per record, so a killed process
    loses at most the line it was writing.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        try:
            self._repair_tail(path)
            self._fh = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open journal {path!r}: {exc}") from None

    @staticmethod
    def _repair_tail(path: str) -> None:
        """Repair a newline-less trailing line before appending.

        A killed process can leave a final line without its
        terminating newline.  Appending onto it would fuse two
        records into one malformed *middle* line and make the journal
        permanently unloadable, so the tail is repaired first: a tail
        that still parses as a record (the kill landed between write
        and newline flush) gets its newline back — it is real data
        :func:`load_journal` accepts, and must not be lost — while a
        genuinely partial tail is truncated away, losing exactly what
        ``load_journal`` would have ignored anyway.
        """
        try:
            with open(path, "rb+") as fh:
                data = fh.read()
                if not data or data.endswith(b"\n"):
                    return
                tail = data[data.rfind(b"\n") + 1:]
                try:
                    doc = json.loads(tail.decode("utf-8"))
                    intact = isinstance(doc, dict) and "op" in doc
                except (UnicodeDecodeError, ValueError):
                    intact = False
                if intact:
                    fh.write(b"\n")
                else:
                    fh.truncate(data.rfind(b"\n") + 1)
        except FileNotFoundError:
            return

    def append(self, doc: dict) -> None:
        with self._lock:
            self._fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
            self._fh.flush()

    def open_run(self, fingerprint: dict) -> None:
        self.append({"op": "open", "schema": ARTIFACT_SCHEMA,
                     "selection": fingerprint})

    def record_resume(self, replayed: int, outstanding: int) -> None:
        self.append({"op": "resume", "replayed": replayed,
                     "outstanding": outstanding})

    def record_dispatch(self, task: CellTask) -> None:
        self.append({"op": "dispatch", "cell": task.cell.as_doc()})

    def record_result(self, result: CellResult) -> None:
        self.append({"op": "result", "result": result.to_doc()})

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


# ------------------------------------------------------------- reading
@dataclass
class JournalState:
    """Everything a journal file says about its run."""

    #: the run's selection fingerprint (``None`` for an empty journal)
    selection: Optional[dict] = None
    #: schema the journal was recorded under
    schema: Optional[int] = None
    #: completed cells, latest record wins (duplicates are harmless —
    #: results are deterministic, either copy is correct)
    results: Dict[ShardCell, CellResult] = field(default_factory=dict)
    #: every dispatch record, in journal order.  Observability: cells
    #: dispatched but never completed were in flight — or queued, for
    #: executors that take the whole batch up front (see
    #: :meth:`JournaledExecutor._run_outstanding`) — when a dead
    #: coordinator stopped writing
    dispatched: List[ShardCell] = field(default_factory=list)
    #: how many times this journal was resumed before
    resumes: int = 0

    def in_flight(self) -> List[ShardCell]:
        """Dispatched-but-never-completed cells, in dispatch order.

        Exact for streamed runs (dispatch = a worker's wire-level
        claim) and inline ones (dispatch = the cell being run).
        """
        return [cell for cell in self.dispatched
                if cell not in self.results]


def load_journal(path: str) -> JournalState:
    """Parse a journal file back into a :class:`JournalState`.

    A *truncated* trailing line — no final newline, the record a
    killed process was mid-append on — is ignored; the writer always
    terminates records with a newline, so that is the only shape a
    kill can leave.  A malformed record anywhere else (including a
    newline-terminated final line) raises :class:`ConfigurationError`
    — a journal is evidence, and evidence that does not parse must
    fail loudly, not merge silently.
    """
    from repro.experiments.shards import ShardCell

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read journal {path!r}: {exc}") from None
    truncated_tail = bool(text) and not text.endswith("\n")
    lines = text.splitlines()
    state = JournalState()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict) or "op" not in doc:
                raise ValueError("record must be an object with an op")
        except ValueError as exc:
            if number == len(lines) and truncated_tail:
                break  # the kill interrupted this append; drop it
            raise ConfigurationError(
                f"journal {path!r} line {number} is malformed: "
                f"{exc}") from None
        op = doc["op"]
        if op == "open":
            if state.selection is not None:
                raise ConfigurationError(
                    f"journal {path!r} line {number} opens a second "
                    f"run; one journal records one selection")
            state.selection = doc.get("selection")
            state.schema = doc.get("schema")
        elif op == "resume":
            state.resumes += 1
        elif op == "dispatch":
            state.dispatched.append(ShardCell.from_doc(doc.get("cell")))
        elif op == "result":
            result = CellResult.from_doc(doc.get("result"))
            state.results[result.cell] = result
        else:
            raise ConfigurationError(
                f"journal {path!r} line {number} has unknown op "
                f"{op!r}; valid ops: {', '.join(JOURNAL_OPS)}")
    return state


def split_tasks(tasks: Iterable[CellTask], state: JournalState
                ) -> Tuple[List[CellResult], List[CellTask]]:
    """Split a submission against a journal: (replayed, outstanding).

    Only *successful* results replay; a journaled **error** result
    leaves its cell outstanding, so a resume retries it.  A
    deterministic failure just fails identically again (artifacts
    unchanged), but a transient one — a worker OOM, a killed process —
    gets the second chance that is the whole point of restarting.
    Replayed results come back in task order; outstanding tasks keep
    the submission's order (so a cost-ordered queue stays cost-ordered
    across a restart).
    """
    replayed: List[CellResult] = []
    outstanding: List[CellTask] = []
    for task in tasks:
        recorded = state.results.get(task.cell)
        if recorded is not None and recorded.ok:
            replayed.append(recorded)
        else:
            outstanding.append(task)
    return replayed, outstanding


# ------------------------------------------------------------ executor
class JournaledExecutor(CellExecutor):
    """Wrap any executor with journal recording and resume replay.

    Owns both the wrapped executor and the journal: ``close()``
    releases them in that order.  One submission per journal — the
    journal is the durable record of *one* queue.
    """

    def __init__(self, inner: CellExecutor, journal: CellJournal,
                 resume_state: Optional[JournalState] = None):
        self.inner = inner
        self.journal = journal
        self.resume_state = resume_state
        self._submitted = False

    def close(self) -> None:
        self.inner.close()
        self.journal.close()

    def cancel(self) -> None:
        self.inner.cancel()

    def submit(self, tasks: Iterable[CellTask],
               progress: Progress = None):
        tasks = list(tasks)
        if self._submitted:
            raise ConfigurationError(
                "a journaled executor accepts one submission; use a "
                "fresh journal per run")
        self._submitted = True
        fingerprint = selection_fingerprint(tasks)
        if self.resume_state is None:
            self.journal.open_run(fingerprint)
            outstanding = tasks
        else:
            self._check_resumable(fingerprint)
            replayed, outstanding = split_tasks(tasks, self.resume_state)
            self.journal.record_resume(len(replayed), len(outstanding))
            for result in replayed:
                if progress is not None:
                    progress(f"{result.cell.scenario_id}/"
                             f"{result.cell.variant}: replayed from "
                             f"journal")
                yield result
        if not outstanding:
            return
        for result in self._run_outstanding(outstanding, progress):
            self.journal.record_result(result)
            yield result

    def _run_outstanding(self, outstanding: List[CellTask],
                         progress: Progress):
        """Submit to the wrapped executor, recording dispatches.

        A stream executor reports the truthful wire-level dispatch
        (the moment a worker claims the cell) through its
        ``on_dispatch`` hook.  Other executors record a dispatch as
        they pull tasks from this generator — one at a time for the
        inline executor.
        """
        if hasattr(type(self.inner), "on_dispatch"):
            self.inner.on_dispatch = self.journal.record_dispatch
            task_source: Iterable[CellTask] = outstanding
        else:
            def dispatching() -> Iterable[CellTask]:
                for task in outstanding:
                    self.journal.record_dispatch(task)
                    yield task

            task_source = dispatching()
        return self.inner.submit(task_source, progress=progress)

    def _check_resumable(self, fingerprint: dict) -> None:
        state = self.resume_state
        if state.selection is None:
            raise ConfigurationError(
                f"journal {self.journal.path!r} has no run header; "
                f"it cannot be resumed")
        if state.schema != ARTIFACT_SCHEMA:
            raise ConfigurationError(
                f"journal {self.journal.path!r} was recorded under "
                f"artifact schema {state.schema!r}; this build resumes "
                f"schema {ARTIFACT_SCHEMA} journals only")
        if state.selection != fingerprint:
            raise ConfigurationError(
                f"journal {self.journal.path!r} was recorded for a "
                f"different selection; resume with the exact flags of "
                f"the original run (or start a fresh journal)")


def journaled_executor(inner: CellExecutor, path: str,
                       resume: bool = False) -> JournaledExecutor:
    """The CLI entry point: wrap ``inner`` with a journal at ``path``.

    Without ``resume`` the journal must not already carry records (an
    operator pointing a fresh run at an old journal gets an error, not
    a corrupted append); with ``resume`` it must exist and parse.
    """
    if resume:
        if not os.path.exists(path):
            raise ConfigurationError(
                f"cannot resume: journal {path!r} does not exist")
        state = load_journal(path)
    else:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            raise ConfigurationError(
                f"journal {path!r} already exists; pass --resume to "
                f"continue that run or remove the file first")
        state = None
    return JournaledExecutor(inner, CellJournal(path), resume_state=state)
