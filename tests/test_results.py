"""Tests for the results warehouse (repro.results).

The fast tests exercise extraction, idempotent loads, run resolution,
diff and query on real inline runs.  The slow test pins the
cross-executor contract at the warehouse level: an inline run and a
stream run of the same selection diff to *only* volatile-field
differences.
"""

import json
import shutil
import threading

import pytest

from repro import cli
from repro.errors import ConfigurationError
from repro.experiments.runner import ARTIFACT_SCHEMA
from repro.experiments.executors import InlineExecutor, StreamExecutor
from repro.experiments.journal import journaled_executor
from repro.experiments.shards import VOLATILE_FIELDS
from repro.experiments.wire import run_worker
from repro.results import ERROR_METRIC, WAREHOUSE_SCHEMA, Warehouse
from repro.scenarios import run_scenarios, write_scenario_artifact

from helpers import experiment_spec, monitors_spec


def _specs():
    return [experiment_spec("wh-exp"), monitors_spec("wh-mon")]


@pytest.fixture(scope="module")
def inline_runs(tmp_path_factory):
    """Two independent inline runs of one selection, artifacts on disk
    (module-scoped: the runs are the expensive part, every test loads
    them into its own throwaway warehouse)."""
    base = tmp_path_factory.mktemp("wh")
    for name in ("run-a", "run-b"):
        for result in run_scenarios(_specs()):
            write_scenario_artifact(str(base / name), result)
    return base


def _load(db, *sources, **kwargs):
    with Warehouse(str(db), create=True) as warehouse:
        return [warehouse.load(str(source), **kwargs)
                for source in sources]


# ---------------------------------------------------------------- load
def test_load_is_idempotent(inline_runs, tmp_path):
    db = tmp_path / "w.sqlite"
    first, again = _load(db, inline_runs / "run-a", inline_runs / "run-a")
    assert first.created and not again.created
    assert first.run.run_id == again.run.run_id
    assert first.metrics == again.metrics > 0
    with Warehouse(str(db)) as warehouse:
        assert len(warehouse.runs()) == 1
        assert warehouse.runs()[0].cells == 3


def test_byte_identical_runs_share_one_fingerprint(inline_runs, tmp_path):
    """A byte-identical copy of a run dedupes to the same fingerprint,
    and diffing that run against itself reports zero deltas."""
    copy = tmp_path / "copy"
    shutil.copytree(inline_runs / "run-a", copy)
    db = tmp_path / "w.sqlite"
    original, duplicate = _load(db, inline_runs / "run-a", copy)
    assert not duplicate.created
    assert duplicate.run.fingerprint == original.run.fingerprint
    with Warehouse(str(db)) as warehouse:
        report = warehouse.diff(1, 1)
    assert report.deltas == [] and report.missing == []
    assert report.ok and report.shared_cells == 3


def test_load_rejects_unknown_and_future_sources(tmp_path):
    future = tmp_path / "future"
    future.mkdir()
    (future / "BENCH_scenario_x.json").write_text(json.dumps(
        {"schema": ARTIFACT_SCHEMA + 1, "name": "scenario_x",
         "spec": {"scenario_id": "x"}}), encoding="utf-8")
    with Warehouse(str(tmp_path / "w.sqlite"), create=True) as warehouse:
        with pytest.raises(ConfigurationError, match="artifact schema"):
            warehouse.load(str(future))
        with pytest.raises(ConfigurationError, match="no such"):
            warehouse.load(str(tmp_path / "nowhere"))
        with pytest.raises(ConfigurationError, match="its directory"):
            warehouse.load(str(future / "BENCH_scenario_x.json"))
    # read verbs never conjure an empty warehouse out of a typo'd path
    with pytest.raises(ConfigurationError, match="no results warehouse"):
        Warehouse(str(tmp_path / "typo.sqlite"))


def test_error_cells_and_batch_skips(tmp_path):
    """An errored cell warehouses as the pinned ``cell_error`` fact;
    engine batch artifacts are skipped with a note, never silently."""
    source = tmp_path / "erred"
    source.mkdir()
    (source / "BENCH_scenario_wh-err.json").write_text(json.dumps({
        "schema": ARTIFACT_SCHEMA, "name": "scenario_wh-err",
        "spec": {"scenario_id": "wh-err", "kind": "experiment",
                 "seed": 5},
        "wall_seconds": 0.1, "results": {},
        "errors": {"throttled": "RuntimeError: boom"},
    }), encoding="utf-8")
    (source / "BENCH_figures.json").write_text(json.dumps({
        "schema": ARTIFACT_SCHEMA, "name": "figures", "workers": 2,
        "wall_seconds": 1.0, "errors": {}, "results": {},
    }), encoding="utf-8")
    db = tmp_path / "w.sqlite"
    (report,) = _load(db, source)
    assert any("BENCH_figures.json" in note for note in report.skipped)
    with Warehouse(str(db)) as warehouse:
        rows = warehouse.query(metric=ERROR_METRIC)
    assert [(r[1], r[2], r[3], r[5], r[6]) for r in rows] == \
        [("wh-err", "throttled", 5, 1.0, 0)]


# ---------------------------------------------------------------- diff
def test_two_inline_runs_diff_only_volatile(inline_runs, tmp_path):
    """The acceptance pin: two inline runs of the same selection show
    zero non-volatile deltas — every difference is a wall clock or a
    cache-locality counter from VOLATILE_FIELDS."""
    db = tmp_path / "w.sqlite"
    _load(db, inline_runs / "run-a", inline_runs / "run-b")
    with Warehouse(str(db)) as warehouse:
        report = warehouse.diff(str(inline_runs / "run-a"),
                                str(inline_runs / "run-b"))
    assert report.ok and report.pinned_deltas == []
    assert report.shared_cells == 3 and report.missing == []
    assert report.volatile_deltas, "two runs never share wall clocks"
    assert {d.metric for d in report.deltas} <= VOLATILE_FIELDS


def test_cli_load_then_diff_reports_zero_nonvolatile(inline_runs,
                                                     tmp_path, capsys):
    """`repro results load && repro results diff` end-to-end."""
    db = str(tmp_path / "w.sqlite")
    assert cli.main(["results", "load", str(inline_runs / "run-a"),
                     str(inline_runs / "run-b"), "--db", db]) == 0
    assert cli.main(["results", "diff", "1", "2", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "0 non-volatile delta(s)" in out
    # and the volatile detail is opt-in
    assert cli.main(["results", "diff", "prev", "latest", "--db", db,
                     "--include-volatile"]) == 0
    assert "wall_seconds" in capsys.readouterr().out


def test_journal_and_artifacts_of_one_run_diff_clean(tmp_path):
    """A journal ingests interchangeably with the artifacts of the
    same execution: identical facts, wall clocks included."""
    out_dir = tmp_path / "artifacts"
    journal = tmp_path / "run.journal"
    executor = journaled_executor(InlineExecutor(), str(journal))
    try:
        for result in run_scenarios(_specs(), executor=executor):
            write_scenario_artifact(str(out_dir), result)
    finally:
        executor.close()
    db = tmp_path / "w.sqlite"
    from_artifacts, from_journal = _load(db, out_dir, journal)
    assert from_artifacts.created and from_journal.created
    with Warehouse(str(db)) as warehouse:
        report = warehouse.diff(1, 2)
    assert report.deltas == [] and report.missing == []


@pytest.mark.slow
def test_inline_vs_stream_diff_is_volatile_only(inline_runs, tmp_path):
    """Cross-executor contract at the warehouse level: a stream run
    (two thread workers, worker-local search pools) differs from an
    inline run only in volatile fields."""
    stream_dir = tmp_path / "stream"
    stream = StreamExecutor(timeout=300)
    address = stream.start()
    threads = [threading.Thread(target=run_worker, args=address,
                                daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        for result in run_scenarios(_specs(), executor=stream):
            write_scenario_artifact(str(stream_dir), result)
    finally:
        stream.close()
    for thread in threads:
        thread.join(timeout=10)

    db = tmp_path / "w.sqlite"
    _load(db, inline_runs / "run-a", stream_dir)
    with Warehouse(str(db)) as warehouse:
        report = warehouse.diff(1, 2)
    assert report.ok and report.pinned_deltas == []
    assert {d.metric for d in report.deltas} <= VOLATILE_FIELDS


# -------------------------------------------------- query + resolution
def test_query_filters_and_run_resolution(inline_runs, tmp_path):
    db = tmp_path / "w.sqlite"
    _load(db, inline_runs / "run-a", inline_runs / "run-b")
    with Warehouse(str(db)) as warehouse:
        completed = warehouse.query(metric="completed",
                                    scenario="wh-exp")
        assert len(completed) == 4  # 2 runs x 2 variants
        assert all(row[6] == 0 for row in completed), "pinned metric"
        walls = warehouse.query(metric="wall_seconds", run="latest")
        assert len(walls) == 3 and all(row[6] == 1 for row in walls)
        latest = warehouse.resolve("latest")
        assert warehouse.resolve("prev").run_id == latest.run_id - 1
        assert warehouse.resolve(str(latest.run_id)) == latest
        by_prefix = warehouse.resolve(latest.fingerprint[:10])
        assert by_prefix == latest
        label = warehouse.resolve(str(inline_runs / "run-a"))
        assert label.run_id == 1
        with pytest.raises(ConfigurationError, match="no run named"):
            warehouse.resolve("wh-ghost")
    db_single = tmp_path / "single.sqlite"
    _load(db_single, inline_runs / "run-a")
    with Warehouse(str(db_single)) as warehouse:
        with pytest.raises(ConfigurationError, match="previous"):
            warehouse.resolve("prev")


def test_an_all_digit_fingerprint_prefix_resolves(inline_runs, tmp_path):
    """A hex fingerprint can start with ten digits; as a ref it names
    its run unless it is also a run id."""
    db = tmp_path / "w.sqlite"
    _load(db, inline_runs / "run-a")
    with Warehouse(str(db)) as warehouse:
        run = warehouse.resolve("latest")
        digits = "6522727595" + run.fingerprint[10:]
        warehouse._conn.execute(
            "UPDATE runs SET fingerprint = ? WHERE run_id = ?",
            (digits, run.run_id))
        warehouse._conn.commit()
        assert warehouse.resolve(digits[:10]).run_id == run.run_id
        assert warehouse.resolve(str(run.run_id)).run_id == run.run_id
        with pytest.raises(ConfigurationError, match="no run 99 "):
            warehouse.resolve("99")


def test_warehouse_schema_version_is_checked(tmp_path):
    db = tmp_path / "w.sqlite"
    with Warehouse(str(db), create=True) as warehouse:
        warehouse._conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'warehouse_schema'")
        warehouse._conn.commit()
    with pytest.raises(ConfigurationError, match="warehouse schema"):
        Warehouse(str(db))
    assert WAREHOUSE_SCHEMA == 1


def test_cli_label_guards_and_defaults(inline_runs, tmp_path, capsys):
    db = str(tmp_path / "w.sqlite")
    assert cli.main(["results", "load", str(inline_runs / "run-a"),
                     str(inline_runs / "run-b"), "--db", db,
                     "--label", "x"]) == 2
    assert "one run" in capsys.readouterr().err
    assert cli.main(["results", "load", str(inline_runs / "run-a"),
                     "--db", db, "--label", "nightly",
                     "--git-sha", "cafe", "--host", "runner-1"]) == 0
    with Warehouse(db) as warehouse:
        run = warehouse.resolve("nightly")
        assert run.git_sha == "cafe" and run.host == "runner-1"
