"""The cell wire protocol: stream cells to a worker pool over TCP.

One coordinator (:class:`CellQueueServer`, usually wrapped by
:class:`~repro.experiments.executors.StreamExecutor`) owns the cell
queue; any number of workers (:func:`run_worker`, the loop behind
``repro workers join``) connect and *pull* cells one at a time —
pull-based scheduling is the work stealing: a fast worker simply asks
again sooner, so runtime imbalance never strands cells the way a
static ``k/N`` shard assignment can.

Messages are newline-delimited JSON objects; every payload reuses the
schema-3/4 shard-document shapes (cells as ``[scenario, variant,
seed]`` triples, specs as their ``to_dict`` documents, results as
``summarize_result`` summaries), so the wire format is the artifact
format and nothing needs a second serializer.

The conversation::

    worker                        coordinator
    ------                        -----------
    {"op": "hello", ...}     ->
                             <-   {"op": "welcome", "protocol": 1, ...}
    {"op": "next"}           ->
                             <-   {"op": "cell", "task": {...}}
    {"op": "result", ...}    ->
    {"op": "next"}           ->
                             <-   {"op": "drain"}        (queue is done)

Fault model: a worker that disconnects mid-cell, or sends a frame
that is oversized, torn or malformed, gets its cell re-queued for the
survivors; a duplicate result for an already-merged cell is ignored
(results are deterministic, so either copy is correct).  Workers may
join at any time, including before the queue has work.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.experiments.runner import ARTIFACT_SCHEMA

#: version of the wire conversation itself (bump on incompatible
#: message-flow changes; payload evolution rides ARTIFACT_SCHEMA)
WIRE_PROTOCOL = 1

#: longest frame (JSON plus newline) either side reads, so a peer that
#: never sends a newline cannot make the other buffer without limit.
#: The largest result document the test suite and the benchmark
#: produce is 2.3 KB (3.4 KB with a ``--snapshot`` DMV dump).
MAX_FRAME_BYTES = 4 * 1024 * 1024


class WireError(ReproError):
    """A wire-protocol failure (handshake mismatch, malformed frame,
    or a queue served to completion-impossible state)."""


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` address (port 0 = pick an ephemeral one)."""
    host, sep, port_text = text.rpartition(":")
    try:
        if not sep or not host:
            raise ValueError
        port = int(port_text)
        if not 0 <= port <= 65535:
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"address must look like host:port (e.g. 127.0.0.1:7731), "
            f"got {text!r}") from None
    return host, port


# ------------------------------------------------------------- framing
def _no_delay(conn: socket.socket) -> None:
    """Send each frame as soon as it is flushed.  A worker writes
    ``result`` then ``next`` back to back; under Nagle the second
    frame waits for the ACK of the first, which the coordinator delays
    by about 40 ms because it has nothing to answer ``result`` with."""
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


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

    ``start()`` binds and begins accepting workers (who may connect
    and block before any work exists); ``serve(tasks)`` enqueues the
    tasks and yields results as workers deliver them, re-queuing the
    cell of any worker that disconnects mid-flight.  ``serve`` may be
    called again for further batches — workers idle between batches
    and are only told to drain by ``close()``/``cancel()``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._requested = (host, port)
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
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
        self._accept_thread: Optional[threading.Thread] = None
        #: observability: how many cells were re-queued after a worker
        #: loss, how many workers ever said hello, and how many are
        #: connected right now
        self.requeues = 0
        self.workers_seen = 0
        self.active_workers = 0
        #: per-batch claim callback (see :meth:`serve`)
        self._on_dispatch: Optional[Callable] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        if self._listener is not None:
            return self.address
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._requested)
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._accept_thread = accept
        return self.address

    def close(self) -> None:
        with self._lock:
            self._draining = True
            self._work.notify_all()
        # give handlers a moment to send their drain frames, so well-
        # behaved workers exit cleanly on an explicit drain instead of
        # seeing a severed socket and reporting a coordinator loss
        deadline = time.monotonic() + 5.0
        for thread in list(self._threads):
            if thread is threading.current_thread():
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._listener = None

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
        self.start()
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
                            f"no worker progress within {timeout:.0f}s; "
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
    def _accept_loop(self) -> None:
        listener = self._listener  # close() nulls the attribute
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener closed
                return
            handler = threading.Thread(target=self._handle,
                                       args=(conn,), daemon=True)
            handler.start()
            with self._lock:
                # prune finished handlers so a long-lived coordinator
                # doesn't accumulate one dead Thread per connection
                self._threads = [thread for thread in self._threads
                                 if thread.is_alive()]
                self._threads.append(handler)

    def _handle(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        assigned = None
        welcomed = False
        try:
            _no_delay(conn)
            hello = recv_message(stream)
            if hello is None or hello.get("op") != "hello":
                return
            if hello.get("protocol") != WIRE_PROTOCOL:
                send_message(stream, {
                    "op": "reject",
                    "reason": f"wire protocol {hello.get('protocol')!r} "
                              f"!= {WIRE_PROTOCOL}"})
                return
            if hello.get("schema") != ARTIFACT_SCHEMA:
                # a stale worker's summaries would silently corrupt a
                # merged artifact; refuse at the handshake instead
                send_message(stream, {
                    "op": "reject",
                    "reason": f"artifact schema {hello.get('schema')!r} "
                              f"!= {ARTIFACT_SCHEMA}"})
                return
            with self._lock:
                self.workers_seen += 1
                self.active_workers += 1
                welcomed = True
            send_message(stream, {"op": "welcome",
                                  "protocol": WIRE_PROTOCOL,
                                  "schema": ARTIFACT_SCHEMA})
            while True:
                message = recv_message(stream)
                if message is None:
                    return
                op = message.get("op")
                if op == "next":
                    task = self._claim()
                    if task is None:
                        send_message(stream, {"op": "drain"})
                        return
                    assigned = task
                    dispatch = self._on_dispatch
                    if dispatch is not None:
                        dispatch(task)
                    send_message(stream, {"op": "cell",
                                          "task": task.to_doc()})
                elif op == "result":
                    self._deliver(message.get("result"))
                    assigned = None
                else:
                    raise WireError(f"unexpected worker op {op!r}")
        except (WireError, OSError):
            pass  # treated as a worker loss; the cell is re-queued
        finally:
            if welcomed:
                with self._lock:
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

    def _deliver(self, doc) -> None:
        from repro.experiments.executors import CellResult

        try:
            result = CellResult.from_doc(doc)
        except ConfigurationError as exc:
            # malformed payload = worker loss: the handler's except
            # clause severs the connection and re-queues the cell
            raise WireError(f"malformed result payload: {exc}") from None
        with self._lock:
            if result.cell not in self._expected:
                return  # stale delivery from an aborted earlier batch
            if result.cell in self._done:
                return  # duplicate of a re-queued cell; either copy is fine
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


# -------------------------------------------------------------- worker
def run_worker(host: str, port: int,
               progress: Optional[Callable[[str], None]] = None) -> int:
    """The ``repro workers join`` loop: pull, execute, push, repeat.

    Connects to a coordinator, pulls cells until it drains, and runs
    each through the shared :func:`~repro.experiments.executors.
    execute_cell` primitive.  Returns how many cells this worker executed.  Exceptions inside a
    cell become error results (shipped back, never crashing the
    worker); protocol failures raise :class:`WireError`.
    """
    from repro.experiments.executors import CellResult, CellTask, \
        execute_cell

    try:
        conn = socket.create_connection((host, port))
    except OSError as exc:
        raise WireError(
            f"cannot reach coordinator at {host}:{port}: {exc}") from None
    stream = conn.makefile("rwb")
    executed = 0
    try:
        _no_delay(conn)
        send_message(stream, {"op": "hello", "protocol": WIRE_PROTOCOL,
                              "schema": ARTIFACT_SCHEMA})
        welcome = recv_message(stream)
        if welcome is None or welcome.get("op") == "reject":
            reason = (welcome or {}).get("reason", "connection closed")
            raise WireError(f"coordinator rejected worker: {reason}")
        if welcome.get("op") != "welcome" \
                or welcome.get("protocol") != WIRE_PROTOCOL \
                or welcome.get("schema") != ARTIFACT_SCHEMA:
            raise WireError(f"unexpected handshake reply: {welcome!r}")
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
            if progress is not None:
                progress(f"cell {task.cell.describe()}")
            try:
                result = execute_cell(task)
            except Exception as exc:  # noqa: BLE001 - ship, don't die
                result = CellResult(cell=task.cell,
                                    error=f"{type(exc).__name__}: {exc}")
            send_message(stream, {"op": "result",
                                  "result": result.to_doc()})
            executed += 1
    finally:
        try:
            stream.close()
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
