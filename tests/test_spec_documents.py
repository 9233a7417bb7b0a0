"""Spec documents keep their bytes, and old documents keep loading.

``tests/data/scenarios/registered.json`` maps every registered
scenario id to its ``to_dict()`` document.  It was written by running
this module against the source of the commit before the spec classes
moved onto the shared document writer (``PYTHONPATH=<parent>/src:tests
python -c "import test_spec_documents as t; t.write_goldens()"``), so
any change to a registered document's bytes — a field renamed,
reordered, newly written or newly omitted, a version stamp moved —
fails here.  Rewriting the golden redefines every registered document,
and every journal and artifact written from one.
"""

import glob
import json
import os

import pytest

from repro.experiments.executors import InlineExecutor, tasks_for_specs
from repro.experiments.journal import (
    journaled_executor,
    load_journal,
    selection_fingerprint,
)
from repro.scenarios import ScenarioSpec, list_scenarios, run_scenarios

from helpers import DiesAfter, monitors_spec

HERE = os.path.dirname(os.path.abspath(__file__))

GOLDEN = os.path.join(HERE, "data", "scenarios", "registered.json")

#: the benchmark's frozen specs (read, never written, here)
PERF_WORKLOADS = os.path.join(HERE, os.pardir, "perf", "workloads")


def registered_documents() -> dict:
    return {spec.scenario_id: spec.to_dict() for spec in list_scenarios()}


def write_goldens() -> None:
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(registered_documents(), fh, indent=1)
        fh.write("\n")


def test_registered_documents_keep_their_bytes():
    """``json.loads`` keeps key order and float text, so re-dumping a
    golden document gives back exactly the bytes that were written."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    current = registered_documents()
    assert list(current) == list(golden)
    for scenario_id, doc in golden.items():
        assert json.dumps(current[scenario_id]) == json.dumps(doc), \
            scenario_id


def test_frozen_perf_workload_specs_roundtrip():
    paths = sorted(glob.glob(os.path.join(PERF_WORKLOADS, "*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs = json.load(fh)["specs"]
        for doc in docs:
            rebuilt = ScenarioSpec.from_dict(doc).to_dict()
            assert json.dumps(rebuilt, sort_keys=True) \
                == json.dumps(doc, sort_keys=True), doc["scenario_id"]


def test_journal_resumes_on_rebuilt_documents(tmp_path):
    """A journal fingerprints the submitted spec documents; a selection
    re-read from those documents must resume it, not be refused."""
    specs = [monitors_spec(f"doc-{i}") for i in range(2)]
    path = str(tmp_path / "run.journal")
    dying = journaled_executor(DiesAfter(1), path)
    with pytest.raises(RuntimeError, match="simulated"):
        list(dying.submit(tasks_for_specs(specs)))
    dying.close()

    rebuilt = [ScenarioSpec.from_dict(json.loads(json.dumps(s.to_dict())))
               for s in specs]
    assert rebuilt == specs
    tasks = tasks_for_specs(rebuilt)
    assert selection_fingerprint(tasks) == load_journal(path).selection
    resumed = journaled_executor(InlineExecutor(), path, resume=True)
    results = run_scenarios(rebuilt, executor=resumed)
    resumed.close()
    assert [r.spec.scenario_id for r in results] == ["doc-0", "doc-1"]

