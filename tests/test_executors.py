"""Tests for the cell-execution protocol (executors + wire).

The fast tests exercise task/result documents, the factory, the wire
framing and — with cheap monitors cells — the stream coordinator's
pull scheduling and its kill-one-worker re-queue recovery.  The slow
tests pin the executor-equivalence contract: the same scenario through
the Inline executor, the default multi-worker path and a Stream
executor produces canonically byte-identical artifacts.
"""

import io
import json
import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import ARTIFACT_SCHEMA
from repro.experiments.executors import (
    CellResult,
    CellTask,
    InlineExecutor,
    StreamExecutor,
    execute_cell,
    make_executor,
    tasks_for_specs,
)
from repro.experiments.shards import ShardCell, canonical_document
from repro.experiments.wire import (
    MAX_FRAME_BYTES,
    WIRE_PROTOCOL,
    WireError,
    parse_address,
    recv_message,
    run_worker,
    send_message,
)
from repro.scenarios import (
    ScenarioSpec,
    VariantSpec,
    get_scenario,
    run_scenario,
    write_scenario_artifact,
)

from helpers import canonical_text, experiment_spec, monitors_spec


def tiny_spec(scenario_id="ex-tiny", **overrides) -> ScenarioSpec:
    return experiment_spec(scenario_id, **overrides)


# ------------------------------------------------------------ documents
def test_cell_task_and_result_roundtrip():
    spec = tiny_spec()
    task = tasks_for_specs([spec], snapshot=True)[0]
    assert task.cell == ShardCell("ex-tiny", "throttled", 1)
    assert task.key() == "ex-tiny/throttled#1"
    rebuilt = CellTask.from_doc(json.loads(json.dumps(task.to_doc())))
    assert rebuilt.cell == task.cell
    assert rebuilt.spec == spec
    assert rebuilt.snapshot is True

    result = CellResult(cell=task.cell, wall_seconds=1.5,
                        summary={"completed": 3})
    doc = json.loads(json.dumps(result.to_doc()))
    back = CellResult.from_doc(doc)
    assert back.cell == task.cell and back.summary == {"completed": 3}
    assert back.ok and back.error is None

    for bad in (None, 42, {"no": "cell"}):
        with pytest.raises(ConfigurationError):
            CellResult.from_doc(bad)
        with pytest.raises(ConfigurationError):
            CellTask.from_doc(bad)


def test_tasks_for_specs_enumerates_cells_in_selection_order():
    specs = [tiny_spec("ex-a"), monitors_spec("ex-m"), tiny_spec("ex-b")]
    tasks = tasks_for_specs(specs)
    assert [t.key() for t in tasks] == [
        "ex-a/throttled#1", "ex-a/unthrottled#1", "ex-m/run#3",
        "ex-b/throttled#1", "ex-b/unthrottled#1"]
    with pytest.raises(ConfigurationError, match="duplicate"):
        tasks_for_specs([tiny_spec("ex-a"), tiny_spec("ex-a")])


def test_make_executor_resolution():
    assert isinstance(make_executor(), InlineExecutor)
    assert isinstance(make_executor(workers=1), InlineExecutor)
    spawning = make_executor(workers=4)
    assert isinstance(spawning, StreamExecutor)
    assert spawning.spawn_workers == 4
    spawning.close()
    assert isinstance(make_executor("inline", workers=8), InlineExecutor)
    stream = make_executor("stream", bind="127.0.0.1:0", workers=0)
    assert isinstance(stream, StreamExecutor)
    stream.close()
    with pytest.raises(ConfigurationError, match="valid executors"):
        make_executor("quantum")
    with pytest.raises(ConfigurationError, match="valid executors"):
        make_executor("pool")


def test_execute_cell_error_accounting():
    """A failing cell becomes an error result, never an exception —
    the same error-accounting contract every executor keeps."""
    spec = tiny_spec("ex-broken", variants=(VariantSpec("run"),))
    # sabotage after validation: the unknown preset fails in the runner
    object.__setattr__(spec, "preset", "warp-speed")
    task = tasks_for_specs([spec])[0]
    result = execute_cell(task)
    assert not result.ok
    assert "ConfigurationError" in result.error
    # and an unknown variant is an error result too
    bad = CellTask(cell=ShardCell("ex-tiny", "nope", 1), spec=tiny_spec())
    assert "no variant" in execute_cell(bad).error


def test_execute_cell_runs_monitors_cells():
    task = tasks_for_specs([monitors_spec("ex-mon")])[0]
    result = execute_cell(task)
    assert result.ok
    assert result.scenario_metrics == {}
    assert "small" in result.body and "big" in result.body


# ----------------------------------------------------------------- wire
def test_parse_address():
    assert parse_address("127.0.0.1:7731") == ("127.0.0.1", 7731)
    assert parse_address("localhost:0") == ("localhost", 0)
    for bad in ("7731", "host:", ":7731", "host:notaport", "host:99999"):
        with pytest.raises(ConfigurationError, match="host:port"):
            parse_address(bad)


def test_wire_framing_roundtrip():
    a, b = socket.socketpair()
    fa, fb = a.makefile("rwb"), b.makefile("rwb")
    send_message(fa, {"op": "hello", "protocol": WIRE_PROTOCOL})
    assert recv_message(fb) == {"op": "hello", "protocol": WIRE_PROTOCOL}
    fb.write(b"this is not json\n")
    fb.flush()
    with pytest.raises(WireError, match="malformed"):
        recv_message(fa)
    fb.write(b"[1,2,3]\n")
    fb.flush()
    with pytest.raises(WireError, match="op"):
        recv_message(fa)
    for stream in (fa, fb):
        stream.close()
    a.close()
    b.close()


def test_wire_framing_bounds_frames():
    """A frame is read up to MAX_FRAME_BYTES and must end in a newline:
    a peer cannot make the reader buffer without limit, and a final
    frame cut off by EOF is an error even when its JSON is complete."""
    frame = b'{"op":"next"}'
    assert recv_message(io.BytesIO(frame + b"\n")) == {"op": "next"}
    assert recv_message(io.BytesIO(b"")) is None
    with pytest.raises(WireError, match="torn"):
        recv_message(io.BytesIO(frame))
    fits = frame[:-1] + b" " * (MAX_FRAME_BYTES - len(frame) - 1) + b"}\n"
    assert recv_message(io.BytesIO(fits)) == {"op": "next"}
    with pytest.raises(WireError, match="exceeds"):
        recv_message(io.BytesIO(b" " + fits))


def test_stream_wire_sends_without_delayed_ack_stall(monkeypatch):
    """Both ends of a stream connection set TCP_NODELAY: a worker
    writes ``result`` then ``next``, and under Nagle the second frame
    waits about 40 ms for the coordinator's delayed ACK.  Thirty cheap
    cells would then need at least 1.2 s; they must take under 0.6."""
    sockets = []
    accept, connect = socket.socket.accept, socket.create_connection

    def spy_accept(listener):
        conn, address = accept(listener)
        sockets.append(conn)
        return conn, address

    def spy_connect(*args, **kwargs):
        sockets.append(connect(*args, **kwargs))
        return sockets[-1]

    monkeypatch.setattr(socket.socket, "accept", spy_accept)
    monkeypatch.setattr(socket, "create_connection", spy_connect)
    tasks = tasks_for_specs([monitors_spec(f"ex-fast-{i}")
                             for i in range(30)])
    executor = StreamExecutor(timeout=30)
    address = executor.start()
    worker = threading.Thread(target=_drain_worker, args=(address,),
                              daemon=True)
    worker.start()
    try:
        started = time.perf_counter()
        results = list(executor.submit(tasks))
        elapsed = time.perf_counter() - started
        # still connected: the worker is waiting for its next cell
        no_delay = [conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    for conn in sockets]
    finally:
        executor.close()
    worker.join(timeout=10)
    assert len(no_delay) == 2 and all(no_delay), no_delay
    assert len(results) == 30 and all(r.ok for r in results)
    assert elapsed < 0.6, f"30 cells took {elapsed:.2f}s"


def test_worker_rejected_on_protocol_or_schema_mismatch():
    """Version skew is refused at the handshake: a stale worker must
    never feed summaries of another schema into an artifact."""
    executor = StreamExecutor()
    host, port = executor.start()
    try:
        for hello, expected in (
                ({"op": "hello", "protocol": WIRE_PROTOCOL + 1,
                  "schema": ARTIFACT_SCHEMA}, "protocol"),
                ({"op": "hello", "protocol": WIRE_PROTOCOL,
                  "schema": ARTIFACT_SCHEMA - 1}, "schema"),
        ):
            conn = socket.create_connection((host, port))
            stream = conn.makefile("rwb")
            send_message(stream, hello)
            reply = recv_message(stream)
            assert reply["op"] == "reject"
            assert expected in reply["reason"]
            stream.close()
            conn.close()
    finally:
        executor.close()


def test_worker_raises_on_coordinator_loss():
    """A severed connection is a failure, never a clean drain."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]

    def sever_after_handshake():
        conn, _ = listener.accept()
        stream = conn.makefile("rwb")
        assert recv_message(stream)["op"] == "hello"
        send_message(stream, {"op": "welcome", "protocol": WIRE_PROTOCOL,
                              "schema": ARTIFACT_SCHEMA})
        recv_message(stream)  # the worker's first "next"
        conn.close()  # coordinator "crashes"

    fake = threading.Thread(target=sever_after_handshake, daemon=True)
    fake.start()
    try:
        with pytest.raises(WireError, match="lost"):
            run_worker(host, port)
    finally:
        fake.join(timeout=10)
        listener.close()


def test_stream_executor_supports_successive_submissions():
    """A caller-owned executor can be reused across submissions;
    workers idle between batches and drain only at close()."""
    executor = StreamExecutor(timeout=30)
    address = executor.start()
    worker = threading.Thread(target=_drain_worker, args=(address,),
                              daemon=True)
    worker.start()
    try:
        first = list(executor.submit(
            tasks_for_specs([monitors_spec("ex-twice-a")])))
        second = list(executor.submit(
            tasks_for_specs([monitors_spec("ex-twice-b")])))
    finally:
        executor.close()
    worker.join(timeout=10)
    assert [r.cell.scenario_id for r in first] == ["ex-twice-a"]
    assert [r.cell.scenario_id for r in second] == ["ex-twice-b"]
    assert all(r.ok for r in first + second)


# -------------------------------------------- stream scheduling (cheap)
def _drain_worker(address) -> int:
    """A well-behaved worker thread target."""
    return run_worker(*address)


def test_stream_executor_runs_monitor_cells_with_thread_workers():
    """Two protocol-speaking workers drain a three-cell queue; every
    cell is executed exactly once and results carry the rendered
    bodies back over the wire."""
    specs = [monitors_spec(f"ex-mon-{i}") for i in range(3)]
    executor = StreamExecutor(timeout=30)
    address = executor.start()
    threads = [threading.Thread(target=_drain_worker, args=(address,),
                                daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        results = list(executor.submit(tasks_for_specs(specs)))
    finally:
        executor.close()
    for thread in threads:
        thread.join(timeout=10)
    assert sorted(r.cell.scenario_id for r in results) \
        == ["ex-mon-0", "ex-mon-1", "ex-mon-2"]
    assert all(r.ok and "small" in r.body for r in results)
    assert executor._server is None  # closed


def test_stream_work_stealing_recovers_from_a_killed_worker():
    """The kill-one-worker recovery pin: a worker that claims a cell
    and dies without delivering gets its cell re-queued, and a healthy
    worker joining later finishes the whole queue."""
    _recover_from_doomed_worker("ex-kill", last_words=lambda task: b"")


def _result_frame(task_doc, padding=0, newline=b"\n"):
    """The worker's real ``result`` frame for a claimed cell, with
    ``padding`` blanks inside the JSON object and the given ending."""
    result = execute_cell(CellTask.from_doc(task_doc))
    return (b'{"op":"result","result":'
            + json.dumps(result.to_doc()).encode("utf-8")
            + b" " * padding + b"}" + newline)


@pytest.mark.parametrize("last_words", [
    lambda task: _result_frame(task, padding=MAX_FRAME_BYTES),
    lambda task: _result_frame(task, newline=b""),
], ids=["oversized", "torn"])
def test_stream_requeues_cell_of_worker_sending_bad_frame(last_words):
    """A valid result is refused when its frame is longer than
    MAX_FRAME_BYTES, or when EOF cuts it off before its newline: the
    worker is dropped like a dead one and its cell re-queued."""
    _recover_from_doomed_worker("ex-frame", last_words)


def _recover_from_doomed_worker(prefix, last_words):
    """Run three cells; a worker claims one, sends
    ``last_words(task_doc)`` as its last bytes and hangs up; a healthy
    worker joining later finishes the queue."""
    specs = [monitors_spec(f"{prefix}-{i}") for i in range(3)]
    executor = StreamExecutor(timeout=30)
    host, port = executor.start()
    server = executor._server

    claimed = threading.Event()

    def doomed_worker():
        conn = socket.create_connection((host, port))
        stream = conn.makefile("rwb")
        send_message(stream, {"op": "hello", "protocol": WIRE_PROTOCOL,
                              "schema": ARTIFACT_SCHEMA})
        assert recv_message(stream)["op"] == "welcome"
        send_message(stream, {"op": "next"})
        message = recv_message(stream)
        assert message["op"] == "cell"
        claimed.set()
        try:
            stream.write(last_words(message["task"]))
            stream.flush()
        except OSError:  # the coordinator hung up mid-frame
            pass
        # die mid-cell: no result, just a dropped connection
        try:
            stream.close()
        except OSError:  # the unsent rest of an oversized frame
            pass
        conn.close()

    results = []
    consumer_error = []

    def consume():
        try:
            results.extend(executor.submit(tasks_for_specs(specs)))
        except Exception as exc:  # pragma: no cover - surfaced below
            consumer_error.append(exc)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    victim = threading.Thread(target=doomed_worker, daemon=True)
    victim.start()
    victim.join(timeout=10)
    assert claimed.wait(timeout=10), "doomed worker never claimed a cell"

    survivor = threading.Thread(target=_drain_worker,
                                args=((host, port),), daemon=True)
    survivor.start()
    consumer.join(timeout=30)
    executor.close()
    survivor.join(timeout=10)

    assert not consumer_error, consumer_error
    assert sorted(r.cell.scenario_id for r in results) \
        == sorted(spec.scenario_id for spec in specs)
    assert all(r.ok for r in results)
    assert server.requeues >= 1, "the dropped cell was never re-queued"
    assert server.workers_seen >= 2


def test_cancelled_executor_finalizes_partial_results():
    """A cancelled submission still yields a result per scenario:
    unexecuted cells surface as failed runs, for experiment and
    monitors scenarios alike, instead of raising."""
    from repro.scenarios import run_scenarios

    specs = [monitors_spec("ex-cancel-m"),
             tiny_spec("ex-cancel-e")]

    class CancelImmediately(InlineExecutor):
        def submit(self, tasks, progress=None):
            self.cancel()
            return super().submit(tasks, progress=progress)

    results = run_scenarios(specs, executor=CancelImmediately())
    assert [r.spec.scenario_id for r in results] \
        == ["ex-cancel-m", "ex-cancel-e"]
    assert not any(r.ok for r in results)
    assert results[0].batch.errors == {"run": "cell was never executed"}
    assert set(results[1].batch.errors.values()) \
        == {"cell was never executed"}


def test_stream_aborts_when_every_spawned_worker_died():
    """A queue whose only workers were our own crashed subprocesses
    fails loudly instead of blocking forever."""
    import subprocess
    import sys

    executor = StreamExecutor()
    executor.start()
    dead = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
    dead.wait()
    executor._spawned.append(dead)
    try:
        with pytest.raises(WireError, match="spawned worker"):
            list(executor.submit(tasks_for_specs(
                [monitors_spec("ex-dead")])))
    finally:
        executor._spawned = []
        executor.close()


def test_stream_timeout_names_outstanding_cells():
    """A worker-less queue fails loudly, naming what never ran."""
    executor = StreamExecutor(timeout=0.2)
    executor.start()
    try:
        with pytest.raises(WireError, match="ex-idle"):
            list(executor.submit(tasks_for_specs(
                [monitors_spec("ex-idle")])))
    finally:
        executor.close()


# ------------------------------------------------- pinned equivalence
@pytest.mark.slow
def test_executor_equivalence_is_byte_identical(tmp_path):
    """The acceptance pin: one scenario through the Inline executor,
    the default multi-worker path (``workers=2``: two spawned worker
    processes) and a 2-worker Stream executor (work-stealing pull
    scheduling) writes canonically byte-identical artifacts."""
    spec = tiny_spec("ex-equiv", expect=())

    inline_dir = tmp_path / "inline"
    write_scenario_artifact(
        str(inline_dir), run_scenario(spec, executor=InlineExecutor()))

    spawned_dir = tmp_path / "spawned"
    write_scenario_artifact(str(spawned_dir),
                            run_scenario(spec, workers=2))

    stream_dir = tmp_path / "stream"
    stream = StreamExecutor(timeout=300)
    address = stream.start()
    threads = [threading.Thread(target=_drain_worker, args=(address,),
                                daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        write_scenario_artifact(
            str(stream_dir), run_scenario(spec, executor=stream))
    finally:
        stream.close()
    for thread in threads:
        thread.join(timeout=10)

    name = "BENCH_scenario_ex-equiv.json"
    inline_text = canonical_text(inline_dir / name)
    assert inline_text == canonical_text(spawned_dir / name), "workers=2"
    assert inline_text == canonical_text(stream_dir / name), "stream"
    # canonical documents zero search_replays; the raw count agrees too,
    # because no recorded search outlives the cell that made it
    replays = {label: _raw_replays(out / name) for label, out in
               (("inline", inline_dir), ("workers=2", spawned_dir),
                ("stream", stream_dir))}
    assert replays["workers=2"] == replays["inline"], "workers=2"
    assert replays["stream"] == replays["inline"], "stream"


def _raw_replays(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {variant: summary["search_replays"]
            for variant, summary in doc["results"].items()}


@pytest.mark.slow
def test_a_cell_result_does_not_depend_on_what_ran_before_it():
    """A cell run after another cell in the same executor matches the
    same cell run alone, raw ``search_replays`` included: only the wall
    clock may differ."""
    spec = get_scenario("fairness-noisy").customized(seed=3)
    fifo, fair = tasks_for_specs([spec])
    assert (fifo.cell.variant, fair.cell.variant) == ("fifo",
                                                      "weighted_fair")

    def without_wall_clock(result: CellResult) -> dict:
        assert result.error is None, result.error
        return {key: value for key, value in result.summary.items()
                if key != "wall_seconds"}

    alone = list(InlineExecutor().submit([fair]))
    after = list(InlineExecutor().submit([fifo, fair]))
    assert [r.cell for r in after] == [fifo.cell, fair.cell]
    assert without_wall_clock(after[0])["completed"] > 0
    assert without_wall_clock(after[1]) == without_wall_clock(alone[0])


@pytest.mark.slow
def test_snapshot_flag_embeds_dmv_state(tmp_path):
    """--snapshot satellite: the end-of-run DMV snapshot rides in the
    result summary, and the canonical form zeroes it (execution
    metadata, not simulated data)."""
    spec = tiny_spec("ex-snap", variants=(VariantSpec("run"),))
    result = run_scenario(spec, snapshot=True)
    path = write_scenario_artifact(str(tmp_path), result)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    snapshot = doc["results"]["run"]["snapshot"]
    assert {"summary", "memory_clerks", "memory_gateways",
            "grant_queue", "compilations"} <= set(snapshot)
    assert any(row["name"] == "compilation"
               for row in snapshot["memory_clerks"])
    assert canonical_document(doc)["results"]["run"]["snapshot"] == 0
    # without the flag the key is absent entirely (schema-4 artifacts
    # stay byte-compatible with schema-3 ones unless asked not to be)
    bare = run_scenario(spec)
    assert "snapshot" not in bare.variant_summaries["run"]


@pytest.mark.slow
def test_cli_stream_executor_with_spawned_workers(tmp_path, capsys):
    """`repro scenarios run --executor stream --workers 2` —
    the CI stream-smoke lane's exact shape — matches an inline run
    canonically."""
    from repro import cli

    stream_dir, inline_dir = tmp_path / "stream", tmp_path / "inline"
    selection = ["scenarios", "run", "ex-user", "--clients", "2"]
    # registered temporarily so both invocations resolve the same id
    from repro.scenarios import register_scenario, unregister_scenario

    register_scenario(tiny_spec("ex-user", expect=()))
    try:
        assert cli.main(["scenarios", "run", "ex-user",
                         "--executor", "stream", "--workers", "2",
                         "--out", str(stream_dir)]) == 0
        assert cli.main(["scenarios", "run", "ex-user",
                         "--out", str(inline_dir)]) == 0
    finally:
        unregister_scenario("ex-user")
    capsys.readouterr()
    name = "BENCH_scenario_ex-user.json"
    assert canonical_text(stream_dir / name) \
        == canonical_text(inline_dir / name)
