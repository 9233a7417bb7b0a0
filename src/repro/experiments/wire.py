"""The cell wire protocol: stream cells to forked workers over socketpairs.

One coordinator (:class:`CellQueueServer`, usually wrapped by
:class:`~repro.experiments.executors.StreamExecutor`) owns the cell
queue; each worker (:func:`run_worker`) holds one end of a
``socket.socketpair()`` and the coordinator serves the other
(:meth:`CellQueueServer.attach`), so a connection can only come from
this process's own fork (or, in tests, a thread).  Workers *pull*
cells one at a time — pull-based scheduling is the work stealing: a
fast worker simply asks again sooner, so runtime imbalance never
strands cells the way a static ``k/N`` shard assignment can.

Messages are newline-delimited JSON objects; every payload reuses the
shapes journals and artifacts use (cells as ``[scenario, variant,
seed]`` triples, specs as their ``to_dict`` documents, results as
``summarize_result`` summaries), so the wire format is the artifact
format and nothing needs a second serializer.

The conversation::

    worker                        coordinator
    ------                        -----------
    {"op": "next"}           ->
                             <-   {"op": "cell", "task": {...}}
    {"op": "result", ...}    ->
    {"op": "next"}           ->
                             <-   {"op": "drain"}        (queue is done)

Fault model: a worker that disconnects mid-cell, sends a frame that
is oversized, torn or malformed, or sends a result for any cell but
the one its connection holds, is dropped like a dead one: its cell is
re-queued for the survivors and the offending frame is never merged.
A result for a cell that is already done is ignored (results are
deterministic, so either copy is correct).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError, ReproError

#: longest frame (JSON plus newline) either side reads, so a peer that
#: never sends a newline cannot make the other buffer without limit.
#: The largest result document the test suite and the benchmark
#: produce is 2.3 KB (3.4 KB with a ``--snapshot`` DMV dump).
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: how long ``close()`` waits for idle workers to collect their drain
#: frames before it severs every connection still open
DRAIN_GRACE_SECONDS = 1.0


class WireError(ReproError):
    """A wire-protocol failure (a malformed frame, a result for a cell
    the connection does not hold, or a queue served to
    completion-impossible state)."""


# ------------------------------------------------------------- framing
def send_message(stream, doc: dict) -> None:
    """Write one newline-delimited JSON message."""
    stream.write(json.dumps(doc, separators=(",", ":")).encode("utf-8")
                 + b"\n")
    stream.flush()


def recv_message(stream) -> Optional[dict]:
    """Read one message; ``None`` means the peer disconnected.

    A frame longer than :data:`MAX_FRAME_BYTES`, or a final frame cut
    off by EOF before its newline, is a :class:`WireError`."""
    line = stream.readline(MAX_FRAME_BYTES)
    if not line:
        return None
    # a socket's BufferedRWPair may read a few KB past the limit
    if not line.endswith(b"\n") or len(line) > MAX_FRAME_BYTES:
        if len(line) >= MAX_FRAME_BYTES:
            raise WireError(f"wire frame exceeds {MAX_FRAME_BYTES} bytes")
        raise WireError(f"torn wire frame: {len(line)} byte(s) before "
                        f"EOF without a newline")
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed wire frame: {exc}") from None
    if not isinstance(doc, dict) or "op" not in doc:
        raise WireError(f"wire message must be an object with an op, "
                        f"got {doc!r}")
    return doc


# --------------------------------------------------------- coordinator
class CellQueueServer:
    """The coordinator side: a served cell queue with re-queue on loss.

    ``attach(conn)`` serves one connected worker socket on its own
    handler thread (workers may block asking for a cell before any
    work exists).  ``serve(tasks)`` enqueues the tasks and yields
    results as workers deliver them, re-queuing the cell of any worker
    that disconnects mid-flight.  ``serve`` may be called again for
    further batches — workers idle between batches and are only told
    to drain by ``close()``/``cancel()``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._pending: deque = deque()
        self._done: set = set()
        self._expected: set = set()
        self._draining = False
        self._cancelled = False
        self._results: "deque" = deque()
        self._delivered = threading.Condition(self._lock)
        self._threads: List[threading.Thread] = []
        #: open worker connections -> whether the worker holds a cell
        self._conns: Dict[socket.socket, bool] = {}
        #: observability: how many cells were re-queued after a worker
        #: loss, and how many workers are connected right now
        self.requeues = 0
        self.active_workers = 0
        #: per-batch claim callback (see :meth:`serve`)
        self._on_dispatch: Optional[Callable] = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, conn: socket.socket) -> None:
        """Serve a connected worker socket on a new handler thread."""
        handler = threading.Thread(target=self._handle, args=(conn,),
                                   daemon=True)
        with self._lock:
            # prune finished handlers so a long-lived coordinator
            # doesn't accumulate one dead Thread per connection
            self._threads = [thread for thread in self._threads
                             if thread.is_alive()]
            self._threads.append(handler)
            self._conns[conn] = False
            self.active_workers += 1
        handler.start()

    def close(self) -> None:
        with self._lock:
            self._draining = True
            self._work.notify_all()
            # a worker holding a cell has nothing left to deliver to a
            # closed queue, and a stalled one would never answer
            busy = [conn for conn, holds in self._conns.items() if holds]
        for conn in busy:
            _sever(conn)
        # give idle handlers a moment to send their drain frames, so
        # well-behaved workers exit cleanly on an explicit drain instead
        # of seeing a severed socket and reporting a coordinator loss
        deadline = time.monotonic() + DRAIN_GRACE_SECONDS
        for thread in list(self._threads):
            if thread is threading.current_thread():
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)
        with self._lock:
            silent = list(self._conns)
        for conn in silent:
            _sever(conn)

    def cancel(self) -> None:
        """Drop the pending queue; in-flight cells may still finish."""
        with self._lock:
            self._cancelled = True
            self._pending.clear()
            self._work.notify_all()
            self._delivered.notify_all()

    # -- serving ---------------------------------------------------------
    def serve(self, tasks: Iterable, timeout: Optional[float] = None,
              liveness: Optional[Callable[[], None]] = None,
              on_dispatch: Optional[Callable] = None) -> Iterator:
        """Enqueue ``tasks``; yield one result per cell as delivered.

        ``timeout`` bounds the wait for *each* next result; expiring
        raises :class:`WireError` naming the still-outstanding cells
        (a hung or worker-less queue fails loudly, never silently).
        ``liveness`` is invoked every few seconds while waiting; it may
        raise to abort the wait (the stream executor uses it to detect
        that every worker it spawned has died).  ``on_dispatch(task)``
        is invoked from the handling thread each time a worker claims
        a cell — the wire-level dispatch moment a run journal records.
        """
        self._on_dispatch = on_dispatch
        tasks = list(tasks)
        expected = {task.cell for task in tasks}
        if len(expected) != len(tasks):
            raise ConfigurationError("duplicate cells in submission")
        with self._lock:
            if self._draining:
                raise WireError("cell queue server is closed")
            self._expected = set(expected)
            self._done -= expected  # allow re-running cells next batch
            # stale deliveries and queued tasks from an aborted earlier
            # batch must not count against this one: drop both and let
            # the batch's own cells run fresh (re-execution is safe —
            # results are deterministic — and _done dedups deliveries)
            self._results.clear()
            self._pending.clear()
            self._pending.extend(tasks)
            self._work.notify_all()
        served = 0
        while served < len(expected):
            with self._lock:
                deadline = None if timeout is None \
                    else time.monotonic() + timeout
                while not self._results and not self._cancelled:
                    remaining = None if deadline is None \
                        else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        outstanding = sorted(
                            cell.describe() for cell in expected
                            if cell not in self._done)
                        raise WireError(
                            f"no worker progress within {timeout:g}s; "
                            f"outstanding cell(s): "
                            + ", ".join(outstanding))
                    slice_ = 2.0 if remaining is None \
                        else min(2.0, remaining)
                    self._delivered.wait(timeout=slice_)
                    if liveness is not None:
                        liveness()
                if self._cancelled and not self._results:
                    return
                result = self._results.popleft()
            served += 1
            yield result

    # -- connection handling ---------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        assigned = None
        try:
            while True:
                message = recv_message(stream)
                if message is None:
                    return
                op = message.get("op")
                if op == "next" and assigned is None:
                    task = self._claim()
                    if task is None:
                        send_message(stream, {"op": "drain"})
                        return
                    assigned = task
                    with self._lock:
                        self._conns[conn] = True
                    dispatch = self._on_dispatch
                    if dispatch is not None:
                        dispatch(task)
                    send_message(stream, {"op": "cell",
                                          "task": task.to_doc()})
                elif op == "result" and assigned is not None:
                    self._deliver(message.get("result"), assigned.cell)
                    assigned = None
                    with self._lock:
                        self._conns[conn] = False
                else:
                    raise WireError(f"unexpected worker op {op!r}")
        except (WireError, OSError):
            pass  # treated as a worker loss; the cell is re-queued
        finally:
            with self._lock:
                self._conns.pop(conn, None)
                self.active_workers -= 1
            if assigned is not None:
                self._requeue(assigned)
            try:
                stream.close()
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _claim(self):
        """Block until a cell is available; ``None`` means drain."""
        with self._lock:
            while not self._pending:
                if self._draining or self._cancelled:
                    return None
                self._work.wait()
            return self._pending.popleft()

    def _deliver(self, doc, held) -> None:
        """Merge a result for ``held``, the cell its connection holds.

        A malformed payload, or a result for any other cell, is a
        worker loss: the handler's except clause closes the connection
        and re-queues ``held``, and nothing of the result is merged."""
        from repro.experiments.executors import CellResult

        try:
            result = CellResult.from_doc(doc)
        except ConfigurationError as exc:
            raise WireError(f"malformed result payload: {exc}") from None
        if result.cell != held:
            raise WireError(f"result for {result.cell.describe()} on the "
                            f"connection holding {held.describe()}")
        with self._lock:
            if result.cell not in self._expected:
                return  # stale delivery from an aborted earlier batch
            if result.cell in self._done:
                return  # a duplicate; either copy is fine
            self._done.add(result.cell)
            self._results.append(result)
            self._delivered.notify_all()

    def _requeue(self, task) -> None:
        with self._lock:
            if task.cell in self._done or self._cancelled:
                return
            self.requeues += 1
            self._pending.appendleft(task)
            self._work.notify_all()


def _sever(conn: socket.socket) -> None:
    """Wake a handler blocked reading ``conn``: a shutdown makes its
    read return, and the handler's ``finally`` closes the socket."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:  # already closed by its handler
        pass


# -------------------------------------------------------------- worker
def run_worker(conn: socket.socket) -> int:
    """The worker loop: pull, execute, push, repeat.

    Pulls cells over ``conn`` (a worker's end of a socketpair) until
    the coordinator drains, and runs each through the shared
    :func:`~repro.experiments.executors.execute_cell` primitive.
    Returns how many cells this worker executed, and closes ``conn``.
    Exceptions inside a cell become error results (shipped back, never
    crashing the worker); protocol failures, and socket errors from a
    coordinator that went away, raise :class:`WireError`.
    """
    from repro.experiments.executors import CellResult, CellTask, \
        execute_cell

    stream = conn.makefile("rwb")
    executed = 0
    try:
        while True:
            send_message(stream, {"op": "next"})
            message = recv_message(stream)
            if message is None:
                # only an explicit drain means the queue completed; a
                # severed connection is a coordinator loss, not success
                raise WireError(
                    f"connection to coordinator lost after "
                    f"{executed} cell(s), before the queue drained")
            if message.get("op") == "drain":
                return executed
            if message.get("op") != "cell":
                raise WireError(
                    f"unexpected coordinator op {message.get('op')!r}")
            task = CellTask.from_doc(message.get("task"))
            try:
                result = execute_cell(task)
            except Exception as exc:  # noqa: BLE001 - ship, don't die
                result = CellResult(cell=task.cell,
                                    error=f"{type(exc).__name__}: {exc}")
            send_message(stream, {"op": "result",
                                  "result": result.to_doc()})
            executed += 1
    except OSError as exc:
        raise WireError(
            f"connection to coordinator lost after {executed} cell(s): "
            f"{exc}") from None
    finally:
        try:
            stream.close()
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
