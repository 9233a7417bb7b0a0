"""Tests for the run journal (checkpoint/restart).

The fast tests exercise the journal file format (append, load,
truncated-tail tolerance), the resume split and the operator guards;
the acceptance pins are the kill tests: a coordinator killed mid-queue
and restarted with ``--resume`` produces artifacts canonically
byte-identical to an uninterrupted run — simulated in-process (fast)
and as a real killed ``repro scenarios run --executor stream``
subprocess (slow, the ``resume-smoke`` CI lane's shape).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executors import (
    CellResult,
    CellTask,
    InlineExecutor,
    StreamExecutor,
    execute_cell,
    tasks_for_specs,
)
from repro.experiments.journal import (
    CellJournal,
    JournaledExecutor,
    journaled_executor,
    load_journal,
    selection_fingerprint,
    split_tasks,
)
from repro.experiments.wire import recv_message, send_message
from repro.scenarios import run_scenarios, write_scenario_artifact

from helpers import (CountingExecutor, DiesAfter, attach_socketpair,
                     attach_thread_worker, canonical_text, experiment_spec,
                     monitors_spec)


# ------------------------------------------------------------ the file
def test_journal_records_round_trip(tmp_path):
    path = str(tmp_path / "run.journal")
    tasks = tasks_for_specs([monitors_spec("jr-a"), monitors_spec("jr-b")])
    journal = CellJournal(path)
    journal.open_run(selection_fingerprint(tasks))
    journal.record_dispatch(tasks[0])
    result = CellResult(cell=tasks[0].cell, wall_seconds=1.5, body="x",
                        scenario_metrics={})
    journal.record_result(result)
    journal.close()

    state = load_journal(path)
    assert state.selection == selection_fingerprint(tasks)
    assert state.dispatched == [tasks[0].cell]
    assert state.results[tasks[0].cell].body == "x"
    assert state.in_flight() == []
    # a dispatched-but-incomplete cell shows up as in flight
    journal = CellJournal(path)
    journal.record_dispatch(tasks[1])
    journal.close()
    assert load_journal(path).in_flight() == [tasks[1].cell]


def test_journal_tolerates_truncated_trailing_line(tmp_path):
    """A kill mid-append loses at most the line being written."""
    path = str(tmp_path / "run.journal")
    tasks = tasks_for_specs([monitors_spec("jr-trunc")])
    journal = CellJournal(path)
    journal.open_run(selection_fingerprint(tasks))
    journal.record_result(CellResult(cell=tasks[0].cell, body="done"))
    journal.close()
    # a malformed final line that IS newline-terminated cannot be a
    # kill artifact (the writer terminates every record): fail loudly
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{corrupt}\n")
    with pytest.raises(ConfigurationError, match="malformed"):
        load_journal(path)
    with open(path, "rb+") as fh:
        data = fh.read()
        fh.truncate(len(data) - len(b"{corrupt}\n"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"op":"result","result":{"cell":["jr-tr')  # the kill
    state = load_journal(path)
    assert len(state.results) == 1
    # ... but a malformed line in the *middle* is corruption, not a kill
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + json.dumps({"op": "dispatch",
                                    "cell": ["jr-trunc", "run", 3]}) + "\n")
    with pytest.raises(ConfigurationError, match="malformed"):
        load_journal(path)


def test_journal_rejects_unknown_ops_and_second_open(tmp_path):
    path = str(tmp_path / "run.journal")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "teleport"}) + "\n\n")
    with pytest.raises(ConfigurationError, match="unknown op"):
        load_journal(path)
    # a repeated open that equals the first is a joined shard journal
    tasks = tasks_for_specs([monitors_spec("jr-two")])
    journal = CellJournal(str(tmp_path / "two.journal"))
    journal.open_run(selection_fingerprint(tasks))
    journal.record_result(CellResult(cell=tasks[0].cell, body="x"))
    journal.open_run(selection_fingerprint(tasks))
    journal.close()
    state = load_journal(str(tmp_path / "two.journal"))
    assert state.selection == selection_fingerprint(tasks)
    assert list(state.results) == [tasks[0].cell]
    # ... and one of another selection is a second run: refused
    journal = CellJournal(str(tmp_path / "two.journal"))
    journal.open_run(selection_fingerprint(
        tasks_for_specs([monitors_spec("jr-other")])))
    journal.close()
    with pytest.raises(ConfigurationError,
                       match="line 4 opens a different run"):
        load_journal(str(tmp_path / "two.journal"))


def test_selection_fingerprint_is_order_insensitive():
    """Queue order must never invalidate a journal, but a different
    selection, spec config or snapshot flag must."""
    specs = [monitors_spec("jr-f1"), monitors_spec("jr-f2")]
    tasks = tasks_for_specs(specs)
    assert selection_fingerprint(tasks) \
        == selection_fingerprint(list(reversed(tasks)))
    assert selection_fingerprint(tasks) \
        != selection_fingerprint(tasks_for_specs(specs, snapshot=True))
    assert selection_fingerprint(tasks) \
        != selection_fingerprint(tasks_for_specs([specs[0]]))


def test_split_tasks_replays_completed_cells(tmp_path):
    path = str(tmp_path / "run.journal")
    tasks = tasks_for_specs([monitors_spec(f"jr-s{i}") for i in range(3)])
    journal = CellJournal(path)
    journal.open_run(selection_fingerprint(tasks))
    journal.record_result(CellResult(cell=tasks[1].cell, body="done"))
    journal.close()
    replayed, outstanding = split_tasks(tasks, load_journal(path))
    assert [r.cell for r in replayed] == [tasks[1].cell]
    assert [t.cell for t in outstanding] == [tasks[0].cell, tasks[2].cell]


# ------------------------------------------------------ operator guards
def test_journaled_executor_guards(tmp_path):
    path = str(tmp_path / "run.journal")
    with pytest.raises(ConfigurationError, match="does not exist"):
        journaled_executor(InlineExecutor(), path, resume=True)
    executor = journaled_executor(InlineExecutor(), path)
    list(executor.submit(tasks_for_specs([monitors_spec("jr-g")])))
    executor.close()
    # an existing journal is never silently overwritten
    with pytest.raises(ConfigurationError, match="already exists"):
        journaled_executor(InlineExecutor(), path)
    # resuming under a different selection is refused
    executor = journaled_executor(InlineExecutor(), path, resume=True)
    with pytest.raises(ConfigurationError, match="different selection"):
        list(executor.submit(tasks_for_specs([monitors_spec("jr-h")])))
    executor.close()
    # an empty journal cannot be resumed (no run header)
    empty = str(tmp_path / "empty.journal")
    open(empty, "w").close()
    executor = journaled_executor(InlineExecutor(), empty, resume=True)
    with pytest.raises(ConfigurationError, match="no run header"):
        list(executor.submit(tasks_for_specs([monitors_spec("jr-g")])))
    executor.close()


@pytest.mark.parametrize("flags", [["--resume"], ["--journal", "EXISTING"]])
def test_cli_refuses_journal_flags_before_forking_workers(tmp_path, flags):
    """A bad journal flag is one ``error:`` line and exit 2: no stream
    worker is forked first, so none is left to die on a closed
    coordinator with a ``WireError`` traceback."""
    existing = tmp_path / "run.journal"
    existing.write_text('{"op": "run"}\n', encoding="utf-8")
    flags = [str(existing) if flag == "EXISTING" else flag
             for flag in flags]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "scenarios", "run", "fig1",
         "--workers", "2", *flags],
        capture_output=True, text=True, env=env, timeout=60)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 2
    assert [line for line in output.splitlines()
            if line.startswith("error:")] == [proc.stderr.strip()]
    assert "WireError" not in output
    assert "Traceback" not in output


def test_journaled_executor_accepts_one_submission(tmp_path):
    executor = journaled_executor(
        InlineExecutor(), str(tmp_path / "one.journal"))
    list(executor.submit(tasks_for_specs([monitors_spec("jr-once")])))
    with pytest.raises(ConfigurationError, match="one submission"):
        list(executor.submit(tasks_for_specs([monitors_spec("jr-once")])))
    executor.close()


def test_journal_schema_mismatch_refused(tmp_path):
    path = str(tmp_path / "old.journal")
    tasks = tasks_for_specs([monitors_spec("jr-old")])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "open", "schema": 3,
                             "selection": selection_fingerprint(tasks)})
                 + "\n")
    executor = journaled_executor(InlineExecutor(), path, resume=True)
    with pytest.raises(ConfigurationError, match="schema"):
        list(executor.submit(tasks))
    executor.close()


# ------------------------------------------------- kill/resume (pinned)
def test_killed_run_resumes_byte_identical(tmp_path):
    """The acceptance pin, fast: an executor that dies after one cell
    leaves a journal from which a resumed run replays the completed
    cell, executes only the outstanding ones, and writes artifacts
    canonically byte-identical to an uninterrupted run."""
    specs = [monitors_spec(f"jr-kill-{i}") for i in range(3)]
    path = str(tmp_path / "run.journal")

    dying = JournaledExecutor(DiesAfter(1), CellJournal(path))
    with pytest.raises(RuntimeError, match="simulated"):
        list(dying.submit(tasks_for_specs(specs)))
    dying.close()
    state = load_journal(path)
    assert len(state.results) == 1
    assert len(state.dispatched) >= 1

    counting = CountingExecutor()
    resumed = journaled_executor(counting, path, resume=True)
    results = run_scenarios(specs, executor=resumed)
    resumed.close()
    # only the two outstanding cells re-ran; the journaled one replayed
    assert len(counting.executed) == 2
    (completed_cell,) = state.results
    assert completed_cell not in counting.executed

    resumed_dir = tmp_path / "resumed"
    for result in results:
        write_scenario_artifact(str(resumed_dir), result)
    inline_dir = tmp_path / "inline"
    for result in run_scenarios(specs, executor=InlineExecutor()):
        write_scenario_artifact(str(inline_dir), result)
    for spec in specs:
        name = f"BENCH_scenario_{spec.scenario_id}.json"
        assert canonical_text(resumed_dir / name) \
            == canonical_text(inline_dir / name), name
    # the resumed journal now covers the whole queue
    final = load_journal(path)
    assert len(final.results) == 3
    assert final.resumes == 1


def test_truncation_at_every_offset_of_the_last_record(tmp_path):
    """A kill can cut the last record at any byte.  At every offset the
    journal keeps every earlier record, drops only the partial one (a
    cut that leaves the whole record but its newline keeps it), and a
    resume writes canonically identical artifacts."""
    specs = [monitors_spec(f"jr-cut-{i}") for i in range(2)]
    path = tmp_path / "run.journal"
    executor = journaled_executor(InlineExecutor(), str(path))
    reference = tmp_path / "reference"
    for result in run_scenarios(specs, executor=executor):
        write_scenario_artifact(str(reference), result)
    executor.close()
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    last = json.loads(data[start:])
    assert last["op"] == "result"
    earlier = load_journal(str(path))
    del earlier.results[CellResult.from_doc(last["result"]).cell]
    cut = tmp_path / "cut.journal"
    for offset in range(start, len(data)):
        cut.write_bytes(data[:offset])
        state = load_journal(str(cut))
        whole = offset == len(data) - 1  # all of it but the newline
        assert len(state.results) == len(earlier.results) + whole, offset
        assert all(state.results[cell].to_doc() == result.to_doc()
                   for cell, result in earlier.results.items())
        resumed = journaled_executor(InlineExecutor(), str(cut),
                                     resume=True)
        out_dir = tmp_path / f"resumed-{offset}"
        for result in run_scenarios(specs, executor=resumed):
            write_scenario_artifact(str(out_dir), result)
        resumed.close()
        for spec in specs:
            name = f"BENCH_scenario_{spec.scenario_id}.json"
            assert canonical_text(out_dir / name) \
                == canonical_text(reference / name), (offset, name)


def test_resume_repairs_truncated_tail(tmp_path):
    """A resume over a kill-truncated journal must not append onto the
    partial line — that would fuse two records into one malformed
    *middle* line and make any second resume fail."""
    specs = [monitors_spec(f"jr-tail-{i}") for i in range(2)]
    path = str(tmp_path / "run.journal")
    dying = JournaledExecutor(DiesAfter(1), CellJournal(path))
    with pytest.raises(RuntimeError, match="simulated"):
        list(dying.submit(tasks_for_specs(specs)))
    dying.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"op":"result","result":{"cell":["jr-ta')  # the kill

    resumed = journaled_executor(InlineExecutor(), path, resume=True)
    assert len(list(resumed.submit(tasks_for_specs(specs)))) == 2
    resumed.close()
    # the journal parses cleanly: the partial tail was dropped, not fused
    assert len(load_journal(path).results) == 2
    # ... so a SECOND resume (pure replay) works too
    again = journaled_executor(InlineExecutor(), path, resume=True)
    assert len(list(again.submit(tasks_for_specs(specs)))) == 2
    again.close()


def test_repair_preserves_intact_newline_less_tail(tmp_path):
    """A kill between a record's write and its newline leaves a valid
    final line; the tail repair must terminate it, never delete it —
    a deleted 'open' header would make the second resume impossible."""
    path = str(tmp_path / "run.journal")
    tasks = tasks_for_specs([monitors_spec("jr-intact")])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "open", "schema": 4,
                             "selection": selection_fingerprint(tasks)}))
        # no trailing newline: the kill landed right here
    for _ in range(2):  # resume twice: the header must survive both
        resumed = journaled_executor(InlineExecutor(), path, resume=True)
        assert len(list(resumed.submit(tasks))) == 1
        resumed.close()
    state = load_journal(path)
    assert state.selection is not None and len(state.results) == 1


def test_resume_retries_journaled_error_results(tmp_path):
    """A journaled *error* result leaves its cell outstanding: a
    transient failure gets retried by the restart instead of being
    replayed as a permanent failure."""
    path = str(tmp_path / "err.journal")
    tasks = tasks_for_specs([monitors_spec("jr-err")])
    journal = CellJournal(path)
    journal.open_run(selection_fingerprint(tasks))
    journal.record_result(CellResult(cell=tasks[0].cell,
                                     error="MemoryError: transient"))
    journal.close()

    counting = CountingExecutor()
    resumed = journaled_executor(counting, path, resume=True)
    results = list(resumed.submit(tasks))
    resumed.close()
    assert counting.executed == [tasks[0].cell]
    assert results[0].ok
    # the retried success is journaled and replays on the next resume
    (final,) = load_journal(path).results.values()
    assert final.ok


def test_journaled_stream_executor_records_wire_dispatch(tmp_path):
    """Through a stream executor the journal records the wire-level
    claim: dispatch rows appear even though the wrapped executor
    listifies its task iterable up front."""
    specs = [monitors_spec(f"jr-wire-{i}") for i in range(2)]
    path = str(tmp_path / "wire.journal")
    stream = StreamExecutor(timeout=30)
    executor = JournaledExecutor(stream, CellJournal(path))
    worker = attach_thread_worker(stream)
    results = list(executor.submit(tasks_for_specs(specs)))
    executor.close()
    worker.join(timeout=10)
    assert len(results) == 2
    state = load_journal(str(tmp_path / "wire.journal"))
    assert len(state.results) == 2
    assert sorted(c.scenario_id for c in state.dispatched) \
        == ["jr-wire-0", "jr-wire-1"]


def test_reordered_results_journal_and_resume_byte_identical(tmp_path):
    """Results may come back in any order: a worker holds the first
    dispatched cell until every other cell is delivered, then returns
    it.  The journaled stream run writes the inline run's artifacts,
    and a resume from its journal writes them again."""
    specs = [experiment_spec(f"jr-late-{i}", expect=()) for i in range(2)]
    cells = len(tasks_for_specs(specs))
    path = str(tmp_path / "late.journal")
    stream = StreamExecutor(timeout=30)
    stream.start()
    late, survivors = [], []

    def late_worker():
        conn = attach_socketpair(stream)
        frames = conn.makefile("rwb")
        send_message(frames, {"op": "next"})
        task = CellTask.from_doc(recv_message(frames)["task"])
        late.append(task.cell)
        survivors.append(attach_thread_worker(stream))
        deadline = time.monotonic() + 30
        while len(load_journal(path).results) < cells - 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        send_message(frames, {"op": "result",
                              "result": execute_cell(task).to_doc()})
        frames.close()
        conn.close()

    worker = threading.Thread(target=late_worker, daemon=True)
    worker.start()
    executor = JournaledExecutor(stream, CellJournal(path))
    try:
        streamed = run_scenarios(specs, executor=executor)
    finally:
        executor.close()
    worker.join(timeout=10)
    survivors[0].join(timeout=10)
    state = load_journal(path)
    assert state.dispatched[0] == late[0]
    assert list(state.results)[-1] == late[0]

    counting = CountingExecutor()
    resumed = journaled_executor(counting, path, resume=True)
    replayed = run_scenarios(specs, executor=resumed)
    resumed.close()
    assert counting.executed == []
    runs = {"stream": streamed, "resumed": replayed,
            "inline": run_scenarios(specs, executor=InlineExecutor())}
    for label, results in runs.items():
        for result in results:
            assert result.ok, result.render()
            write_scenario_artifact(str(tmp_path / label), result)
    for spec in specs:
        name = f"BENCH_scenario_{spec.scenario_id}.json"
        inline = canonical_text(tmp_path / "inline" / name)
        assert canonical_text(tmp_path / "stream" / name) == inline, name
        assert canonical_text(tmp_path / "resumed" / name) == inline, name


@pytest.mark.slow
def test_cli_serve_killed_and_resumed_matches_inline(tmp_path):
    """The resume-smoke CI lane's exact shape, in-repo: a real
    ``repro scenarios run --executor stream`` subprocess killed
    mid-queue, resumed with
    ``--resume``, its artifacts canonically identical to an
    uninterrupted inline run."""
    from repro import cli

    journal = tmp_path / "run.journal"
    out_dir = tmp_path / "resumed"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    serve = [sys.executable, "-m", "repro", "scenarios", "run",
             "abl-dyn", "abl-gates", "--clients", "2",
             "--preset", "smoke", "--journal", str(journal),
             "--executor", "stream", "--workers", "1",
             "--out", str(out_dir)]

    def journaled_results() -> int:
        if not journal.exists():
            return 0
        count = 0
        for line in journal.read_text(encoding="utf-8").splitlines():
            try:
                count += json.loads(line).get("op") == "result"
            except ValueError:
                pass
        return count

    proc = subprocess.Popen(serve, stdout=subprocess.DEVNULL, env=env)
    try:
        deadline = time.time() + 300
        while time.time() < deadline and proc.poll() is None \
                and journaled_results() < 1:
            time.sleep(0.1)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
    assert journaled_results() >= 1, "no cell completed before the kill"

    resumed = subprocess.run(serve + ["--resume"], env=env,
                             stdout=subprocess.PIPE, text=True)
    assert resumed.returncode == 0, resumed.stdout

    inline_dir = tmp_path / "inline"
    assert cli.main(["scenarios", "run", "abl-dyn", "abl-gates",
                     "--clients", "2", "--preset", "smoke",
                     "--out", str(inline_dir)]) == 0
    names = sorted(os.listdir(inline_dir))
    assert names
    for name in names:
        assert canonical_text(out_dir / name) \
            == canonical_text(inline_dir / name), name
