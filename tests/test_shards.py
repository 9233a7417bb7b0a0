"""Tests for sharded scenario execution: a shard is a cell filter, a
merge is a resume.

``--shard k/N`` runs every N-th cell of a selection from the k-th on
and records them in a run journal whose header fingerprints the whole
selection; the ``cat`` of the shard journals resumes like one
interrupted run.  The fast tests pin the filter and what a joined
journal accepts or refuses; the slow tests pin the correctness
contract — resumed shard journals write artifacts canonically
byte-identical to the single-machine run of the same selection.
"""

import json

import pytest

from repro import cli
from repro.errors import ConfigurationError
from repro.experiments.executors import (
    CellResult,
    InlineExecutor,
    tasks_for_specs,
)
from repro.experiments.journal import (
    CellJournal,
    JournaledExecutor,
    journaled_executor,
    load_journal,
    selection_fingerprint,
)
from repro.experiments.shards import (
    ShardCell,
    canonical_document,
    parse_shard_selector,
)
from repro.scenarios import (
    Expectation,
    ScenarioSpec,
    VariantSpec,
    list_scenarios,
    run_scenario,
    run_scenarios,
    write_scenario_artifact,
)

from helpers import CountingExecutor, DiesAfter, experiment_spec
from helpers import canonical_text as canonical_file
from helpers import monitors_spec as _monitors_spec


def tiny_spec(scenario_id="tiny-a", seed=1, **overrides) -> ScenarioSpec:
    defaults = dict(
        seed=seed,
        expect=(Expectation("completed", ">", 0, variant="throttled"),),
    )
    defaults.update(overrides)
    return experiment_spec(scenario_id, **defaults)


def monitors_spec(scenario_id="tiny-mon") -> ScenarioSpec:
    return _monitors_spec(scenario_id)


class StubExecutor(InlineExecutor):
    """Records the tasks it is handed and executes none of them."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def submit(self, tasks, progress=None):
        for task in tasks:
            self.executed.append(task.cell)
            yield CellResult(cell=task.cell, body="", scenario_metrics={})


def run_shard(specs, path, shard, inner=None) -> list:
    """Run one shard of ``specs`` into a fresh journal at ``path``;
    returns the cells the wrapped executor was handed."""
    inner = inner or CountingExecutor()
    executor = journaled_executor(inner, str(path), shard=shard)
    try:
        list(executor.submit(tasks_for_specs(specs)))
    finally:
        executor.close()
    return inner.executed


def join(paths, target):
    """``cat paths > target``."""
    with open(target, "wb") as out:
        for path in paths:
            with open(path, "rb") as fh:
                out.write(fh.read())
    return target


def resume_into(specs, journal, out_dir) -> list:
    """Resume ``journal`` and write the artifacts; returns the cells
    the wrapped executor had to run."""
    inner = CountingExecutor()
    executor = journaled_executor(inner, str(journal), resume=True)
    try:
        for result in run_scenarios(specs, executor=executor):
            write_scenario_artifact(str(out_dir), result)
    finally:
        executor.close()
    return inner.executed


def single_machine(specs, out_dir) -> None:
    for result in run_scenarios(specs, executor=InlineExecutor()):
        write_scenario_artifact(str(out_dir), result)


def assert_same_artifacts(specs, left, right) -> None:
    for spec in specs:
        name = f"BENCH_scenario_{spec.scenario_id}.json"
        assert canonical_file(left / name) == canonical_file(right / name), \
            name


# ------------------------------------------------------------- filter
def test_parse_shard_selector():
    assert parse_shard_selector("1/1") == (1, 1)
    assert parse_shard_selector("3/4") == (3, 4)
    for bad in ("0/4", "5/4", "x/4", "2", "2/", "/4", "2/0", "-1/4"):
        with pytest.raises(ConfigurationError):
            parse_shard_selector(bad)
    # a typo'd huge count fails instantly instead of allocating
    with pytest.raises(ConfigurationError, match="ceiling"):
        parse_shard_selector("1/2000000000")


def test_shard_cell_from_doc_rejects_malformed_docs():
    for bad in (42, "abc", ["a", "b"], ["a", "b", "x"], None,
                ["a", "b", "c", "d"]):
        with pytest.raises(ConfigurationError, match="shard cell"):
            ShardCell.from_doc(bad)


def test_partition_covers_every_cell_exactly_once(tmp_path):
    """Each shard hands its executor every other cell, round-robin in
    selection order; both journals fingerprint the whole selection."""
    specs = [tiny_spec("a"), tiny_spec("b"), monitors_spec("m")]
    cells = [task.cell for task in tasks_for_specs(specs)]
    owned = [run_shard(specs, tmp_path / f"s{index}.journal", (index, 2),
                       StubExecutor())
             for index in (1, 2)]
    assert owned == [cells[0::2], cells[1::2]]
    assert sorted(owned[0] + owned[1], key=cells.index) == cells
    assert [len(shard) for shard in owned] == [3, 2]
    headers = [load_journal(str(tmp_path / f"s{index}.journal")).selection
               for index in (1, 2)]
    assert headers[0] == headers[1] \
        == selection_fingerprint(tasks_for_specs(specs))
    assert [sorted(load_journal(str(tmp_path / f"s{index}.journal"))
                   .results, key=cells.index)
            for index in (1, 2)] == owned


def test_partition_is_deterministic_and_allows_empty_shards(tmp_path):
    specs = [tiny_spec("a")]  # 2 cells over 4 shards
    sizes = [len(run_shard(specs, tmp_path / f"s{index}.journal",
                           (index, 4), StubExecutor()))
             for index in (1, 2, 3, 4)]
    assert sizes == [1, 1, 0, 0]
    again = run_shard(specs, tmp_path / "again.journal", (2, 4),
                      StubExecutor())
    assert again == [ShardCell("a", "unthrottled", 1)]
    # an empty shard still writes its header, so it joins like any other
    empty = load_journal(str(tmp_path / "s4.journal"))
    assert empty.selection is not None and not empty.results
    with pytest.raises(ConfigurationError, match="duplicate scenario"):
        tasks_for_specs([tiny_spec("a"), tiny_spec("a")])


def test_partition_full_catalogue_round_robin(tmp_path):
    """The registered catalogue partitions cleanly at any width."""
    specs = list_scenarios()
    total = sum(len(spec.variants) for spec in specs)
    for count in (1, 3, 8):
        owned = [cell for index in range(1, count + 1)
                 for cell in run_shard(
                     specs, tmp_path / f"w{count}-{index}.journal",
                     (index, count), StubExecutor())]
        assert len(owned) == len(set(owned)) == total


# ------------------------------------------------ what a join accepts
def test_merge_combines_split_variants(tmp_path):
    """A scenario whose two variants ran on two shards aggregates and
    checks exactly as a single-machine run does."""
    spec = tiny_spec("split", expect=(
        Expectation("completed", ">", 0, variant="throttled"),
        Expectation("improvement", ">", -10.0),
    ))
    for index in (1, 2):
        run_shard([spec], tmp_path / f"s{index}.journal", (index, 2))
    joined = join([tmp_path / "s1.journal", tmp_path / "s2.journal"],
                  tmp_path / "run.journal")
    assert resume_into([spec], joined, tmp_path / "merged") == []
    payload = json.loads(
        (tmp_path / "merged" / "BENCH_scenario_split.json").read_text())
    assert list(payload["results"]) == ["throttled", "unthrottled"]
    assert payload["ok"] and "improvement" in payload["scenario_metrics"]
    single_machine([spec], tmp_path / "single")
    assert_same_artifacts([spec], tmp_path / "single", tmp_path / "merged")


def test_merge_empty_shard_is_fine(tmp_path):
    spec = tiny_spec("lonely", variants=(VariantSpec("run"),), expect=())
    for index in (1, 2):
        run_shard([spec], tmp_path / f"s{index}.journal", (index, 2))
    joined = join([tmp_path / "s1.journal", tmp_path / "s2.journal"],
                  tmp_path / "run.journal")
    assert resume_into([spec], joined, tmp_path / "merged") == []
    payload = json.loads(
        (tmp_path / "merged" / "BENCH_scenario_lonely.json").read_text())
    assert payload["ok"] and list(payload["results"]) == ["run"]


def test_merge_runs_a_missing_shards_cells(tmp_path):
    """A shard journal left out of the join is no error: its cells are
    outstanding, and the resume runs exactly those."""
    specs = [monitors_spec(f"gap-{index}") for index in range(5)]
    run_shard(specs, tmp_path / "s1.journal", (1, 2))
    executed = resume_into(specs, tmp_path / "s1.journal",
                           tmp_path / "merged")
    assert executed == [task.cell for task in tasks_for_specs(specs)][1::2]
    single_machine(specs, tmp_path / "single")
    assert_same_artifacts(specs, tmp_path / "single", tmp_path / "merged")


def test_merge_tolerates_overlapping_cells(tmp_path):
    """A shard journal joined twice replays twice the same results:
    cells are deterministic, so either copy is correct."""
    specs = [monitors_spec(f"dup-{index}") for index in range(3)]
    for index in (1, 2):
        run_shard(specs, tmp_path / f"s{index}.journal", (index, 2))
    joined = join([tmp_path / "s1.journal", tmp_path / "s2.journal",
                   tmp_path / "s1.journal"], tmp_path / "run.journal")
    assert resume_into(specs, joined, tmp_path / "merged") == []
    single_machine(specs, tmp_path / "single")
    assert_same_artifacts(specs, tmp_path / "single", tmp_path / "merged")


# ------------------------------------------------ what a join refuses
def refused_join(tmp_path, first, second, match) -> None:
    """Shard 1 of selection ``first`` joined with shard 2 of ``second``
    must not load, and so cannot resume."""
    run_shard(first, tmp_path / "s1.journal", (1, 2), StubExecutor())
    run_shard(second, tmp_path / "s2.journal", (2, 2), StubExecutor())
    joined = join([tmp_path / "s1.journal", tmp_path / "s2.journal"],
                  tmp_path / "run.journal")
    with pytest.raises(ConfigurationError, match=match):
        load_journal(str(joined))
    with pytest.raises(ConfigurationError, match=match):
        journaled_executor(InlineExecutor(), str(joined), resume=True)


def test_merge_rejects_mixed_plans(tmp_path):
    refused_join(tmp_path, [monitors_spec("plan-a"), monitors_spec("x")],
                 [monitors_spec("plan-b"), monitors_spec("x")],
                 r"line 4 opens a different run")


def test_selection_fingerprint_catches_preset_mismatch(tmp_path):
    """Shards run with different --preset must not join, even when no
    scenario spans two shards (the header embeds every spec)."""
    smoke = [tiny_spec("solo-a", variants=(VariantSpec("run"),), expect=()),
             tiny_spec("solo-b", variants=(VariantSpec("run"),), expect=())]
    paper = [spec.customized(preset="paper") for spec in smoke]
    # cells (id, variant, seed) are identical; only the specs differ
    assert selection_fingerprint(tasks_for_specs(smoke))["cells"] \
        == selection_fingerprint(tasks_for_specs(paper))["cells"]
    refused_join(tmp_path, smoke, paper, "different run")


def test_merge_rejects_disagreeing_specs(tmp_path):
    spec = monitors_spec("skew")
    retitled = ScenarioSpec.from_dict({**spec.to_dict(),
                                       "title": "something else"})
    refused_join(tmp_path, [spec, monitors_spec("y")],
                 [retitled, monitors_spec("y")], "different run")


def test_merge_rejects_unknown_documents_and_schemas(tmp_path):
    specs = [monitors_spec("old-a"), monitors_spec("old-b")]
    run_shard(specs, tmp_path / "s1.journal", (1, 2), StubExecutor())
    # a record this build does not know is corruption, not a shard
    with open(tmp_path / "odd.journal", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "teleport"}) + "\n")
    joined = join([tmp_path / "s1.journal", tmp_path / "odd.journal"],
                  tmp_path / "run.journal")
    with pytest.raises(ConfigurationError, match="line 4 has unknown op"):
        load_journal(str(joined))
    # shards recorded under another artifact schema join (their headers
    # agree) but do not resume in this build
    fingerprint = selection_fingerprint(tasks_for_specs(specs))
    for index in (1, 2):
        with open(tmp_path / f"old{index}.journal", "w",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"op": "open", "schema": 3,
                                 "selection": fingerprint}) + "\n")
    joined = join([tmp_path / "old1.journal", tmp_path / "old2.journal"],
                  tmp_path / "old.journal")
    executor = journaled_executor(InlineExecutor(), str(joined),
                                  resume=True)
    with pytest.raises(ConfigurationError, match="schema"):
        list(executor.submit(tasks_for_specs(specs)))
    executor.close()


def test_merge_surfaces_malformed_artifacts_as_config_errors(tmp_path):
    """A killed shard's torn tail fuses with the next journal's header
    under ``cat``: the join fails loudly, naming the line, and the fix
    is to resume that shard first (the resume repairs the tail)."""
    specs = [monitors_spec(f"torn-{index}") for index in range(4)]
    shard_1 = str(tmp_path / "s1.journal")
    dying = JournaledExecutor(DiesAfter(1), CellJournal(shard_1),
                              shard=(1, 2))
    with pytest.raises(RuntimeError, match="simulated"):
        list(dying.submit(tasks_for_specs(specs)))
    dying.close()
    with open(shard_1, "a", encoding="utf-8") as fh:
        fh.write('{"op":"result","result":{"cell":["torn-2"')  # the kill
    run_shard(specs, tmp_path / "s2.journal", (2, 2))
    torn_line = len(open(shard_1, encoding="utf-8").read().splitlines())
    joined = join([shard_1, tmp_path / "s2.journal"],
                  tmp_path / "run.journal")
    with pytest.raises(ConfigurationError,
                       match=f"line {torn_line} is malformed"):
        load_journal(str(joined))

    resumed = journaled_executor(InlineExecutor(), shard_1, resume=True,
                                 shard=(1, 2))
    assert len(list(resumed.submit(tasks_for_specs(specs)))) == 2
    resumed.close()
    joined = join([shard_1, tmp_path / "s2.journal"],
                  tmp_path / "run.journal")
    assert resume_into(specs, joined, tmp_path / "merged") == []
    single_machine(specs, tmp_path / "single")
    assert_same_artifacts(specs, tmp_path / "single", tmp_path / "merged")


def test_monitors_expectations_match_between_paths(tmp_path):
    """A monitors scenario with expectations must evaluate them the
    same way single-machine and sharded (both to failure here, since
    monitors scenarios have no metrics)."""
    spec = ScenarioSpec(scenario_id="mon-exp", title="Monitors",
                        family="test", kind="monitors", workload="sales",
                        clients=1, render="monitors",
                        expect=(Expectation("completed", ">", 0,
                                            variant="run"),))
    single = run_scenario(spec)
    assert not single.ok and len(single.checks) == 1
    single_path = write_scenario_artifact(str(tmp_path / "a"), single)

    run_shard([spec], tmp_path / "s1.journal", (1, 1))
    assert resume_into([spec], tmp_path / "s1.journal",
                       tmp_path / "b") == []
    assert canonical_file(single_path) \
        == canonical_file(tmp_path / "b" / "BENCH_scenario_mon-exp.json")


def test_canonical_document_zeroes_volatile_fields_only():
    doc = {"wall_seconds": 1.5, "search_replays": 7, "python": "3.12",
           "completed": 9,
           "results": [{"wall_seconds": 2.5, "completed": 3}]}
    canonical = canonical_document(doc)
    assert canonical["wall_seconds"] == 0
    assert canonical["search_replays"] == 0
    assert canonical["python"] == 0
    assert canonical["completed"] == 9
    assert canonical["results"][0] == {"wall_seconds": 0, "completed": 3}
    # the original is untouched
    assert doc["wall_seconds"] == 1.5


def test_cli_shard_needs_a_journal_and_writes_no_artifacts(tmp_path,
                                                           capsys):
    journal = str(tmp_path / "s.journal")
    assert cli.main(["scenarios", "run", "fig1", "--shard", "1/2"]) == 2
    assert "pass --journal" in capsys.readouterr().err
    assert cli.main(["scenarios", "run", "fig1", "--shard", "1/2",
                     "--journal", journal, "--out", str(tmp_path)]) == 2
    assert "writes no artifacts" in capsys.readouterr().err
    assert cli.main(["scenarios", "run", "fig1", "--shard", "3/2",
                     "--journal", journal]) == 2
    assert "out of range" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert "shards" not in capsys.readouterr().out


# --------------------------------------------------- pinned equivalence
@pytest.mark.slow
def test_single_shard_merge_is_identity(tmp_path):
    """N=1: one shard owns everything; resuming its journal must
    reproduce the single-machine artifact canonically byte-for-byte."""
    spec = tiny_spec("ident")
    single_machine([spec], tmp_path / "single")
    run_shard([spec], tmp_path / "s1.journal", (1, 1))
    assert resume_into([spec], tmp_path / "s1.journal",
                       tmp_path / "merged") == []
    assert_same_artifacts([spec], tmp_path / "single", tmp_path / "merged")


@pytest.mark.slow
def test_sharded_run_matches_single_machine(tmp_path):
    """The sharding correctness contract: 4 shards of a mixed selection
    (experiment variants split across shards, plus a monitors and a
    trace scenario), joined and resumed, write artifacts canonically
    identical to the single-machine run — and the resume runs
    nothing."""
    specs = [
        tiny_spec("sh-a", expect=(
            Expectation("completed", ">", 0, variant="throttled"),
            Expectation("improvement", ">", -10.0),
        )),
        tiny_spec("sh-b", seed=2),
        monitors_spec("sh-mon"),
        ScenarioSpec(scenario_id="sh-trace", title="Trace", family="test",
                     kind="trace", workload="sales", clients=1,
                     render="trace", workload_params=(("background", 2),)),
    ]
    single_machine(specs, tmp_path / "single")
    paths = [tmp_path / f"s{index}.journal" for index in (1, 2, 3, 4)]
    for index, path in enumerate(paths, start=1):
        run_shard(specs, path, (index, 4))
    joined = join(paths, tmp_path / "run.journal")
    assert len(load_journal(str(joined)).results) == 6
    assert resume_into(specs, joined, tmp_path / "merged") == []
    assert_same_artifacts(specs, tmp_path / "single", tmp_path / "merged")


@pytest.mark.slow
def test_cli_shard_journals_resume_to_scenarios_run(tmp_path, capsys):
    """The acceptance pin at CLI level: `scenarios run --shard k/2
    --journal` twice, the journals joined with cat, and `--resume
    --out` equals one `scenarios run --out` of the same selection —
    with every journal, and with one left out."""
    selection = ["abl-dyn", "fig1", "--clients", "2",
                 "--preset", "smoke", "--seed", "3"]
    single = tmp_path / "single"
    assert cli.main(["scenarios", "run", *selection,
                     "--out", str(single)]) == 0
    shards = [tmp_path / f"s{index}.journal" for index in (1, 2)]
    for index, path in enumerate(shards, start=1):
        assert cli.main(["scenarios", "run", *selection, "--shard",
                         f"{index}/2", "--journal", str(path)]) == 0
    names = sorted(p.name for p in single.iterdir())
    assert names == ["BENCH_scenario_abl-dyn.json",
                     "BENCH_scenario_fig1.json"]
    # shard 1 owns abl-dyn/static and fig1, shard 2 abl-dyn/dynamic
    for journals, replayed, outstanding in ((shards, 3, 0),
                                            (shards[:1], 2, 1)):
        merged = tmp_path / f"merged-{len(journals)}"
        joined = join(journals, tmp_path / f"run-{len(journals)}.journal")
        capsys.readouterr()
        assert cli.main(["scenarios", "run", *selection, "--journal",
                         str(joined), "--resume", "--out",
                         str(merged)]) == 0
        assert "abl-dyn" in capsys.readouterr().out
        for name in names:
            assert canonical_file(single / name) \
                == canonical_file(merged / name), name
        # the resume record counts what replayed and what had to run
        records = [json.loads(line) for line
                   in joined.read_text(encoding="utf-8").splitlines()]
        assert [r for r in records if r["op"] == "resume"] \
            == [{"op": "resume", "replayed": replayed,
                 "outstanding": outstanding}]


def test_shard_run_reports_job_errors(tmp_path, capsys, monkeypatch):
    """A shard whose cell errored exits 1 and names the cell; the
    journal keeps the error, which a resume retries."""
    from repro.experiments import executors

    monkeypatch.setattr(executors, "execute_cell", lambda task: CellResult(
        cell=task.cell, error="RuntimeError: injected"))
    journal = tmp_path / "s1.journal"
    assert cli.main(["scenarios", "run", "abl-dyn", "--preset", "smoke",
                     "--shard", "1/1", "--journal", str(journal)]) == 1
    out = capsys.readouterr().out
    assert "abl-dyn/static: FAILED (RuntimeError: injected)" in out
    state = load_journal(str(journal))
    assert {cell.variant: result.error
            for cell, result in state.results.items()} \
        == {"static": "RuntimeError: injected",
            "dynamic": "RuntimeError: injected"}
