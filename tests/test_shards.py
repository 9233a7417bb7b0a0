"""Tests for sharded scenario execution (plan, run, merge).

The fast tests exercise partitioning and the merge's safety checks on
fabricated documents; the slow tests pin the correctness contract —
a sharded run merged back together is canonically byte-identical to
the single-machine run of the same selection.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import ARTIFACT_SCHEMA
from repro.experiments.shards import (
    ShardCell,
    ShardPlan,
    canonical_document,
    merge_artifact_files,
    merge_documents,
    parse_shard_selector,
    run_shard,
    wall_seconds_percentiles,
    write_merged_artifacts,
    write_shard_artifact,
)
from repro.scenarios import (
    Expectation,
    ScenarioSpec,
    VariantSpec,
    list_scenarios,
    run_scenario,
    write_scenario_artifact,
)
from repro import cli

from helpers import experiment_spec
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


# ---------------------------------------------------------------- plan
def test_parse_shard_selector():
    assert parse_shard_selector("1/1") == (1, 1)
    assert parse_shard_selector("3/4") == (3, 4)
    for bad in ("0/4", "5/4", "x/4", "2", "2/", "/4", "2/0", "-1/4"):
        with pytest.raises(ConfigurationError):
            parse_shard_selector(bad)
    # a typo'd huge count fails instantly instead of allocating
    with pytest.raises(ConfigurationError, match="ceiling"):
        parse_shard_selector("1/2000000000")
    with pytest.raises(ConfigurationError, match="ceiling"):
        ShardPlan.partition([tiny_spec("huge")], 2_000_000_000)


def test_shard_cell_from_doc_rejects_malformed_docs():
    for bad in (42, "abc", ["a", "b"], ["a", "b", "x"], None,
                ["a", "b", "c", "d"]):
        with pytest.raises(ConfigurationError, match="shard cell"):
            ShardCell.from_doc(bad)


def test_partition_covers_every_cell_exactly_once():
    specs = [tiny_spec("a"), tiny_spec("b"), monitors_spec("m")]
    plan = ShardPlan.partition(specs, 2)
    owned = [cell for index in (1, 2) for cell in plan.cells_for(index)]
    assert sorted(owned, key=lambda c: (c.scenario_id, c.variant)) \
        == sorted(plan.all_cells(),
                  key=lambda c: (c.scenario_id, c.variant))
    assert len(owned) == len(set(owned)) == 5
    # round-robin keeps shards balanced within one cell
    sizes = [len(plan.cells_for(i)) for i in (1, 2)]
    assert max(sizes) - min(sizes) <= 1


def test_partition_is_deterministic_and_allows_empty_shards():
    specs = [tiny_spec("a")]
    assert ShardPlan.partition(specs, 4) == ShardPlan.partition(specs, 4)
    plan = ShardPlan.partition(specs, 4)  # 2 cells over 4 shards
    assert [len(plan.cells_for(i)) for i in (1, 2, 3, 4)] == [1, 1, 0, 0]
    with pytest.raises(ConfigurationError, match="shard count"):
        ShardPlan.partition(specs, 0)
    with pytest.raises(ConfigurationError, match="duplicate scenario"):
        ShardPlan.partition([tiny_spec("a"), tiny_spec("a")], 2)
    with pytest.raises(ConfigurationError, match="out of range"):
        plan.cells_for(5)


def test_partition_full_catalogue_round_robin():
    """The registered catalogue partitions cleanly at any width."""
    specs = list_scenarios()
    total = sum(len(spec.variants) for spec in specs)
    for count in (1, 3, 8):
        plan = ShardPlan.partition(specs, count)
        owned = [cell for index in range(1, count + 1)
                 for cell in plan.cells_for(index)]
        assert len(owned) == len(set(owned)) == total


# ----------------------------------------------- fabricated merge docs
def fake_summary(completed=10, failed=0, error_counts=None):
    """The summary fields the merge actually consumes."""
    return {
        "completed": completed, "failed": failed,
        "error_counts": error_counts or {}, "degraded": 0, "retries": 0,
        "search_replays": 0, "soft_denials": 0, "mean_per_bucket": 1.0,
        "mean_compile_time": 0.1, "mean_execution_time": 0.2,
        "memory_by_clerk": {}, "gateway_stats": [], "throughput": [],
        "wall_seconds": 0.5,
    }


def shard_doc(index, count, selection_cells, cells, scenarios):
    return {
        "schema": ARTIFACT_SCHEMA, "name": f"shard_{index}of{count}",
        "kind": "shard",
        "shard": {"index": index, "count": count},
        "selection": {"shard_count": count, "cells": selection_cells},
        "cells": cells, "scenarios": scenarios,
    }


def two_shard_docs(spec):
    """The spec's two variants split across two shards."""
    selection = [[spec.scenario_id, "throttled", spec.seed],
                 [spec.scenario_id, "unthrottled", spec.seed]]
    docs = []
    for index, variant in ((1, "throttled"), (2, "unthrottled")):
        docs.append(shard_doc(
            index, 2, selection, [selection[index - 1]],
            {spec.scenario_id: {
                "spec": spec.to_dict(), "wall_seconds": 0.5,
                "errors": {},
                "results": {variant: fake_summary(20 if index == 1
                                                  else 10)}}}))
    return docs


def test_merge_combines_split_variants():
    spec = tiny_spec("split", expect=(
        Expectation("completed", ">", 0, variant="throttled"),
        Expectation("improvement", ">", 0.0),
    ))
    merge = merge_documents(two_shard_docs(spec))
    assert merge.ok and merge.shard_count == 2 and merge.cells_total == 2
    payload = merge.scenarios["split"]
    assert list(payload["results"]) == ["throttled", "unthrottled"]
    assert payload["scenario_metrics"]["total_completed"] == 30.0
    assert payload["scenario_metrics"]["improvement"] == 1.0
    assert [check["passed"] for check in payload["checks"]] == [True, True]


def test_merge_empty_shard_is_fine():
    spec = tiny_spec("lonely", variants=(VariantSpec("run"),), expect=())
    selection = [["lonely", "run", 1]]
    docs = [
        shard_doc(1, 2, selection, selection,
                  {"lonely": {"spec": spec.to_dict(), "wall_seconds": 0.1,
                              "errors": {},
                              "results": {"run": fake_summary()}}}),
        shard_doc(2, 2, selection, [], {}),
    ]
    merge = merge_documents(docs)
    assert merge.ok
    assert set(merge.scenarios) == {"lonely"}


def test_merge_rejects_overlapping_cells():
    spec = tiny_spec("dup")
    docs = two_shard_docs(spec)
    # shard 2 also claims shard 1's cell
    docs[1]["cells"].append(["dup", "throttled", 1])
    with pytest.raises(ConfigurationError, match="overlapping"):
        merge_documents(docs)


def test_merge_rejects_missing_shard():
    spec = tiny_spec("gap")
    docs = two_shard_docs(spec)
    with pytest.raises(ConfigurationError, match="missing"):
        merge_documents(docs[:1])


def test_merge_reports_every_coverage_defect_at_once():
    """One failed merge diagnoses the whole artifact set: every
    missing and overlapping cell lands in a single error."""
    spec_a, spec_b = tiny_spec("multi-a"), tiny_spec("multi-b", seed=2)
    selection = [["multi-a", "throttled", 1], ["multi-a", "unthrottled", 1],
                 ["multi-b", "throttled", 2], ["multi-b", "unthrottled", 2]]
    docs = [
        shard_doc(1, 2, selection,
                  [selection[0], selection[1]],
                  {"multi-a": {"spec": spec_a.to_dict(), "wall_seconds": 0.1,
                               "errors": {},
                               "results": {"throttled": fake_summary(),
                                           "unthrottled": fake_summary()}}}),
        # shard 2 re-claims both of shard 1's cells and omits its own
        shard_doc(2, 2, selection,
                  [selection[0], selection[1]],
                  {"multi-a": {"spec": spec_a.to_dict(), "wall_seconds": 0.1,
                               "errors": {},
                               "results": {"throttled": fake_summary(),
                                           "unthrottled": fake_summary()}}}),
    ]
    with pytest.raises(ConfigurationError) as excinfo:
        merge_documents(docs)
    message = str(excinfo.value)
    # both overlapping cells and both missing cells, in one error
    assert "overlapping" in message and "missing" in message
    assert "multi-a/throttled" in message
    assert "multi-a/unthrottled" in message
    assert "multi-b/throttled" in message
    assert "multi-b/unthrottled" in message


def test_merge_rejects_duplicate_shard_index():
    spec = tiny_spec("twice")
    docs = two_shard_docs(spec)
    docs[1]["shard"]["index"] = 1
    with pytest.raises(ConfigurationError, match="twice|overlapping"):
        merge_documents(docs)


def test_merge_rejects_mixed_plans():
    docs = two_shard_docs(tiny_spec("plan-a"))
    other = two_shard_docs(tiny_spec("plan-b"))
    with pytest.raises(ConfigurationError, match="different plans"):
        merge_documents([docs[0], other[1]])


def test_selection_fingerprint_catches_preset_mismatch():
    """Shards run with different --preset must not merge, even when no
    scenario spans two shards (the fingerprint embeds every spec)."""
    smoke = ShardPlan.partition(
        [tiny_spec("solo-a", variants=(VariantSpec("run"),), expect=()),
         tiny_spec("solo-b", variants=(VariantSpec("run"),), expect=())],
        2)
    paper = ShardPlan.partition(
        [tiny_spec("solo-a", variants=(VariantSpec("run"),), expect=(),
                   preset="paper"),
         tiny_spec("solo-b", variants=(VariantSpec("run"),), expect=(),
                   preset="paper")],
        2)
    # cells (id, variant, seed) are identical; only the specs differ
    assert smoke.selection_doc()["cells"] == paper.selection_doc()["cells"]
    assert smoke.selection_doc() != paper.selection_doc()
    docs = [
        shard_doc(1, 2, [], [["solo-a", "run", 1]],
                  {"solo-a": {"spec": smoke.specs[0].to_dict(),
                              "errors": {},
                              "results": {"run": fake_summary()}}}),
        shard_doc(2, 2, [], [["solo-b", "run", 1]],
                  {"solo-b": {"spec": paper.specs[1].to_dict(),
                              "errors": {},
                              "results": {"run": fake_summary()}}}),
    ]
    docs[0]["selection"] = smoke.selection_doc()
    docs[1]["selection"] = paper.selection_doc()
    with pytest.raises(ConfigurationError, match="different plans"):
        merge_documents(docs)


def test_merge_rejects_claimed_cell_without_data():
    """A shard that claims a cell but carries neither a result nor an
    error for it (a partially written artifact) must not merge."""
    docs = two_shard_docs(tiny_spec("partial"))
    del docs[1]["scenarios"]["partial"]["results"]["unthrottled"]
    with pytest.raises(ConfigurationError, match="neither a result"):
        merge_documents(docs)
    # a claimed cell of an entirely absent scenario is caught too
    docs = two_shard_docs(tiny_spec("absent"))
    del docs[1]["scenarios"]["absent"]
    with pytest.raises(ConfigurationError, match="no data"):
        merge_documents(docs)


def test_merge_surfaces_malformed_artifacts_as_config_errors():
    # a scenario entry without a spec
    docs = two_shard_docs(tiny_spec("no-spec"))
    del docs[0]["scenarios"]["no-spec"]["spec"]
    with pytest.raises(ConfigurationError, match="no spec"):
        merge_documents(docs)
    # a result summary missing required fields
    docs = two_shard_docs(tiny_spec("bad-summary"))
    del docs[0]["scenarios"]["bad-summary"]["results"]["throttled"][
        "completed"]
    with pytest.raises(ConfigurationError, match="malformed"):
        merge_documents(docs)


def test_merge_rejects_disagreeing_specs():
    docs = two_shard_docs(tiny_spec("skew"))
    docs[1]["scenarios"]["skew"]["spec"]["title"] = "something else"
    with pytest.raises(ConfigurationError, match="disagree"):
        merge_documents(docs)


def test_merge_rejects_unknown_documents_and_schemas():
    with pytest.raises(ConfigurationError, match="nothing to merge"):
        merge_documents([])
    with pytest.raises(ConfigurationError, match="neither"):
        merge_documents([{"schema": 3, "name": "mystery"}])
    docs = two_shard_docs(tiny_spec("old"))
    docs[0]["schema"] = 2
    with pytest.raises(ConfigurationError, match="schema"):
        merge_documents(docs)


def test_merge_accepts_schema2_scenario_artifacts():
    """Pre-shard per-scenario artifacts merge as complete scenarios."""
    spec = tiny_spec("legacy", expect=(
        Expectation("completed", ">", 0, variant="throttled"),))
    spec_doc = spec.to_dict()
    del spec_doc["version"]  # schema-2 spec docs predate versioning
    legacy = {
        "schema": 2, "name": "scenario_legacy", "python": "3.12.0",
        "spec": spec_doc, "ok": True, "wall_seconds": 1.0,
        "scenario_metrics": {}, "checks": [],
        "errors": {},
        "results": {"throttled": fake_summary(5),
                    "unthrottled": fake_summary(4)},
    }
    merge = merge_documents([legacy])
    payload = merge.scenarios["legacy"]
    assert payload["ok"]
    assert payload["scenario_metrics"]["total_completed"] == 9.0
    assert payload["checks"][0]["passed"]
    # and a scenario id arriving twice is a conflict, not a guess
    with pytest.raises(ConfigurationError, match="more than one"):
        merge_documents([legacy, dict(legacy)])


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

    plan = ShardPlan.partition([spec], 1)
    merge = merge_documents([{
        "schema": ARTIFACT_SCHEMA, "name": "shard_1of1",
        **run_shard(plan, 1)}])
    assert not merge.ok
    merged_dir = tmp_path / "b"
    write_merged_artifacts(str(merged_dir), merge)
    assert canonical_file(single_path) \
        == canonical_file(merged_dir / "BENCH_scenario_mon-exp.json")


def test_merge_summary_records_wall_seconds_percentiles():
    """The merge summary digests per-cell wall clocks (the series
    `results trend` and the radar read), and the digest is
    canonically volatile — derived from wall clocks, zeroed with
    them."""
    spec = tiny_spec("ptile", expect=())
    docs = two_shard_docs(spec)
    scenarios_1 = docs[0]["scenarios"]["ptile"]["results"]
    scenarios_2 = docs[1]["scenarios"]["ptile"]["results"]
    scenarios_1["throttled"]["wall_seconds"] = 4.0
    scenarios_2["unthrottled"]["wall_seconds"] = 1.0
    merge = merge_documents(docs)
    assert sorted(merge.cell_wall_seconds) == [1.0, 4.0]
    summary = merge.summary_payload()
    assert summary["wall_seconds_percentiles"] \
        == {"cells": 2, "p50": 1.0, "p90": 4.0, "max": 4.0}
    assert canonical_document(summary)["wall_seconds_percentiles"] == 0

    # a standalone (pre-shard) scenario artifact contributes its cells
    single = {"schema": ARTIFACT_SCHEMA, "name": "scenario_solo",
              "spec": tiny_spec("solo", expect=()).to_dict(),
              "wall_seconds": 9.0, "errors": {},
              "results": {"throttled": fake_summary(),
                          "unthrottled": fake_summary()}}
    walls = merge_documents([single]).cell_wall_seconds
    assert walls == [0.5, 0.5]  # per-variant summaries, not the total


def test_wall_seconds_percentiles_digest():
    assert wall_seconds_percentiles([]) \
        == {"cells": 0, "p50": 0.0, "p90": 0.0, "max": 0.0}
    digest = wall_seconds_percentiles([5.0, 1.0, 3.0, 2.0, 4.0])
    assert digest == {"cells": 5, "p50": 3.0, "p90": 5.0, "max": 5.0}
    # non-numeric junk from hand-edited artifacts is skipped
    assert wall_seconds_percentiles([1.0, "fast", None])["cells"] == 1


def test_entry_cell_walls_skips_untimed_cells():
    """Untimed cells (errored variants, zero/missing walls) never
    pollute the digest with phantom zeros."""
    from repro.experiments.shards import _entry_cell_walls

    assert _entry_cell_walls({"results": {
        "a": {"wall_seconds": 2.0}, "b": {"wall_seconds": 0.0}}}) == [2.0]
    # an all-errored experiment entry contributes nothing — its
    # scenario-level wall clock covers failed cells and must not
    # masquerade as one timed render cell
    assert _entry_cell_walls({"results": {}, "errors": {"a": "boom"},
                              "wall_seconds": 12.5}) == []
    # a monitors/trace entry contributes its single timed cell
    assert _entry_cell_walls({"wall_seconds": 0.25}) == [0.25]


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


# --------------------------------------------------- pinned equivalence
@pytest.mark.slow
def test_single_shard_merge_is_identity(tmp_path):
    """N=1: one shard owns everything; the merge must reproduce the
    single-machine artifact canonically byte-for-byte."""
    spec = tiny_spec("ident")
    single, merged = tmp_path / "single", tmp_path / "merged"
    write_scenario_artifact(str(single), run_scenario(spec))

    plan = ShardPlan.partition([spec], 1)
    path = write_shard_artifact(str(tmp_path), run_shard(plan, 1))
    write_merged_artifacts(str(merged), merge_artifact_files([path]))

    assert canonical_file(single / "BENCH_scenario_ident.json") \
        == canonical_file(merged / "BENCH_scenario_ident.json")


@pytest.mark.slow
def test_sharded_run_matches_single_machine(tmp_path):
    """The sharding correctness contract: 4 shards of a mixed selection
    (experiment variants split across shards, plus a monitors and a
    trace scenario) merge into artifacts canonically identical to the
    single-machine run."""
    specs = [
        tiny_spec("sh-a", expect=(
            Expectation("completed", ">", 0, variant="throttled"),
            Expectation("improvement", ">", -10.0),
        )),
        tiny_spec("sh-b", seed=2),
        monitors_spec("sh-mon"),
    ]
    single, merged = tmp_path / "single", tmp_path / "merged"
    for spec in specs:
        write_scenario_artifact(str(single), run_scenario(spec))

    plan = ShardPlan.partition(specs, 4)
    paths = [write_shard_artifact(str(tmp_path), run_shard(plan, index))
             for index in (1, 2, 3, 4)]
    merge = merge_artifact_files(paths)
    assert merge.shard_count == 4 and merge.cells_total == 5
    write_merged_artifacts(str(merged), merge)

    for spec in specs:
        name = f"BENCH_scenario_{spec.scenario_id}.json"
        assert canonical_file(single / name) \
            == canonical_file(merged / name), name


@pytest.mark.slow
def test_cli_shards_run_and_merge_match_scenarios_run(tmp_path, capsys):
    """The acceptance pin at CLI level: `repro shards run --shard k/4`
    four times plus `repro shards merge` equals one
    `repro scenarios run` of the same selection, canonically."""
    selection = ["abl-dyn", "fig1", "--clients", "2",
                 "--preset", "smoke", "--seed", "3"]
    single = tmp_path / "single"
    assert cli.main(["scenarios", "run", *selection,
                     "--out", str(single)]) == 0
    shard_dir = tmp_path / "shards"
    for index in (1, 2, 3, 4):
        assert cli.main(["shards", "run", "--shard", f"{index}/4",
                         *selection, "--out", str(shard_dir)]) == 0
    capsys.readouterr()
    merged = tmp_path / "merged"
    assert cli.main(["shards", "merge", str(shard_dir),
                     "--out", str(merged)]) == 0
    out = capsys.readouterr().out
    assert "abl-dyn" in out and "fig1" in out

    for name in ("BENCH_scenario_abl-dyn.json", "BENCH_scenario_fig1.json"):
        assert canonical_file(single / name) \
            == canonical_file(merged / name), name
    summary = json.loads((merged / "BENCH_shard_merge.json").read_text())
    assert summary["ok"] and summary["shard_count"] == 4


@pytest.mark.slow
def test_shard_run_reports_job_errors(tmp_path, capsys):
    """A failing cell is accounted in the shard artifact and the merge
    carries it into the scenario artifact's errors."""
    spec = tiny_spec("sh-broken", workload="mixed",
                     workload_params={"tpch_fraction": 0.3},
                     variants=(VariantSpec("run"),), expect=())
    # sabotage after validation: an unknown preset fails in the worker
    object.__setattr__(spec, "preset", "warp-speed")
    plan = ShardPlan.partition([spec], 1)
    payload = run_shard(plan, 1)
    assert "run" in payload["scenarios"]["sh-broken"]["errors"]
