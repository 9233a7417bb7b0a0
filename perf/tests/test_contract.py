"""BENCHMARK.json is written by hand; the harness's own tables are the
source.  These keep the two from drifting, and pin ``--compare``."""

import json
import os
import re

import compare
import layers
import panels
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract() -> dict:
    return run.load_contract()


def test_benchmark_json_matches_the_harness_tables():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["command"] == ["python3", "perf/run.py"]
    assert contract["paths"] == ["perf"]
    assert {w["name"]: w["why"] for w in contract["workloads"]} \
        == panels.WORKLOADS
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] \
        == list(layers.PER_LAYER)
    assert all(m["better"] == layers.better(m["name"])
               for m in contract["per_layer"])
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert set(layers.SIMULATED_COUNTS) <= dict(layers.PER_LAYER).keys()


def test_benchmark_json_is_within_the_contract_limits():
    contract = _contract()
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_frozen_workloads_load_and_build():
    for workload in panels.WORKLOADS:
        for quick in (False, True):
            selections = panels.build(workload, 7, quick)
            ids = [spec.scenario_id for sel in selections for spec in sel]
            assert ids and all(spec.seed >= 7 for sel in selections
                               for spec in sel)
            for selection in selections:  # one submission: ids are unique
                assert len({s.scenario_id for s in selection}) \
                    == len(selection)


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.judge(steady, [1.04, 1.05, 1.03, 1.04], "lower", 0.07) \
        == "within-bound"
    assert compare.judge(steady, [1.10, 1.11, 1.09, 1.10], "lower", 0.07) \
        == "regressed"
    assert compare.judge(steady, [0.90, 0.91, 0.89, 0.90], "higher", 0.07) \
        == "regressed"
    noisy = [0.8, 1.0, 1.2, 1.4]
    assert compare.judge(steady, noisy, "lower", 0.07) == "unresolved"
    # wider than the bound, yet every run of B beats every run of A
    assert compare.judge(noisy, [0.5, 0.6, 0.7, 0.55], "lower", 0.07) \
        == "within-bound"
    assert compare.judge([2.0], [2.1], "lower", 0.07) == "within-bound"


def test_compare_reads_two_results(tmp_path, capsys):
    def result(wall: float, digest: str) -> dict:
        entry = {
            "sim_digest": digest, "counts": {"cells_per_round": 4},
            "end_to_end_samples": {m["name"]: [wall] * 3
                                   for m in _contract()["end_to_end"]},
            "per_layer": {name: 1.0 for name in layers.SIMULATED_COUNTS}}
        return {"seed": 3, "seconds": 10.0, "quick": False,
                "workloads": {"paper-sweep": entry}}

    paths = []
    for index, doc in enumerate((result(1.0, "abc"), result(1.0, "abc"),
                                 result(1.0, "xyz"))):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    assert compare.main(paths[0], paths[1], _contract()) == 0
    assert "no regression, nothing unresolved" in capsys.readouterr().out
    assert compare.main(paths[0], paths[2], _contract()) == 1
    assert "DIFFER in sim_digest" in capsys.readouterr().out
