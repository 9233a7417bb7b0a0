"""The optimizer differential harness: the pipeline pinned to the monolith.

``tests/data/optimizer/`` holds one canonical artifact per scenario
family, generated by the pre-refactor single-class optimizer.  Every
family re-runs here (at test-sized N) through the staged pipeline with
its default ``memo`` configuration, and the canonical bytes must match
those goldens exactly, through the inline executor and through a
streamed pool of forked workers.

An *explicit* default :class:`~repro.optimizer.spec.OptimizerSpec`
must behave the same way: it may only add the declared ``optimizer``
stamp (and the version bump that tracks it), never change a simulated
number.
"""

import json
import os

import pytest

from helpers import shrunk_spec

from repro.experiments.executors import make_executor
from repro.experiments.shards import canonical_document
from repro.scenarios import list_scenarios, scenario_families
from repro.scenarios.facade import run_scenario, write_scenario_artifact

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "optimizer")

#: the one family the refactor itself introduced — it has no
#: pre-refactor golden, and its ``ues`` variant is *meant* to diverge
NEW_FAMILIES = {"optimizer"}


def representative_specs():
    """One shrunken experiment spec per pre-refactor scenario family."""
    chosen = []
    for family in scenario_families():
        if family in NEW_FAMILIES:
            continue
        for spec in list_scenarios(family=family):
            if spec.kind == "experiment":
                chosen.append(shrunk_spec(spec))
                break
    return chosen


def strip_stamps(doc, keys):
    """Drop declared knob stamps from an artifact document.

    ``optimizer`` names the pipeline configuration: a declaration, not
    a simulated number, and the only bytes its knob may change.
    """
    if isinstance(doc, dict):
        return {key: strip_stamps(value, keys)
                for key, value in doc.items() if key not in keys}
    if isinstance(doc, list):
        return [strip_stamps(item, keys) for item in doc]
    return doc


def canonical_text(path, keys=()):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    # the spec's version stamp tracks the declared knobs (an optimizer
    # spec is a version-6 document, a bare one version <= 5): normalize
    doc.get("spec", {}).pop("version", None)
    return json.dumps(canonical_document(strip_stamps(doc, keys)),
                      sort_keys=True)


def golden_text(scenario_id):
    path = os.path.join(GOLDEN_DIR, f"{scenario_id}.json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def artifact_for(spec, out_dir, executor=None):
    result = run_scenario(spec, executor=executor)
    assert result.batch is not None and not result.batch.errors, \
        f"{spec.scenario_id}: {result.batch.errors}"
    return write_scenario_artifact(str(out_dir), result)


def test_goldens_cover_every_pre_refactor_family():
    """A new family without a golden must opt out explicitly."""
    have = {name[:-len(".json")] for name in os.listdir(GOLDEN_DIR)
            if name.endswith(".json")}
    want = {spec.scenario_id for spec in representative_specs()}
    assert have == want


@pytest.mark.slow
def test_default_pipeline_matches_goldens(tmp_path):
    """Per-family artifacts match the monolith's."""
    for spec in representative_specs():
        path = artifact_for(spec, tmp_path)
        assert canonical_text(path) == golden_text(spec.scenario_id), \
            f"{spec.scenario_id} diverged from the pre-refactor optimizer"


@pytest.mark.slow
def test_explicit_memo_spec_only_adds_the_stamp(tmp_path):
    """``--optimizer memo`` artifacts equal optimizer-free ones.

    Modulo the declared ``optimizer`` stamp (and the spec-version bump
    that tracks it), pinning the default pipeline explicitly must be a
    no-op for every family.
    """
    for spec in representative_specs():
        path = artifact_for(spec.customized(optimizer="memo"),
                            tmp_path / spec.scenario_id)
        with open(path, encoding="utf-8") as fh:
            stamped = json.load(fh)
        assert stamped["spec"]["version"] == 6
        text = canonical_text(path, keys=("optimizer",))
        assert text == golden_text(spec.scenario_id), \
            f"{spec.scenario_id}: an explicit memo spec changed " \
            f"simulated numbers"


@pytest.mark.slow
def test_default_pipeline_matches_golden_through_stream_executor(tmp_path):
    """A streamed worker pool reproduces the pre-refactor bytes.

    ``CellTask.to_doc`` carries the full customized spec over the
    wire; one representative family is enough to pin the wire format
    against its golden.
    """
    spec = representative_specs()[0]
    executor = make_executor("stream", workers=2)
    try:
        path = artifact_for(spec, tmp_path, executor=executor)
    finally:
        executor.close()
    assert canonical_text(path) == golden_text(spec.scenario_id)
