"""Tests for the declarative scenario API.

Covers spec round-tripping, validation, the registry, lowering to
engine jobs, expectation evaluation, the CLI subcommands and (slow) a
smoke run of every registered scenario plus legacy/scenario CLI
byte-identity.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.config import default_gateways, paper_server_config
from repro.errors import ConfigurationError
from repro.scenarios import (
    ConfigOverrides,
    Expectation,
    ScenarioSpec,
    VariantSpec,
    get_scenario,
    jobs_for_scenario,
    list_scenarios,
    load_scenario_file,
    register_scenario,
    run_scenario,
    scenario_families,
    scenario_ids,
    unregister_scenario,
)
from repro.admission import AdmissionSpec
from repro.optimizer.spec import OptimizerSpec
from repro.scenarios.facade import evaluate_expectations
from repro.traffic.spec import TrafficSpec
from repro import cli

from helpers import canonical_text


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        scenario_id="tiny",
        title="Tiny test scenario",
        family="test",
        workload="oltp",
        clients=2,
        preset="smoke",
        seed=1,
        think_time=5.0,
        variants=(
            VariantSpec("throttled", ConfigOverrides(throttling=True)),
            VariantSpec("unthrottled", ConfigOverrides(throttling=False)),
        ),
        expect=(Expectation("completed", ">", 0, variant="throttled"),),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ------------------------------------------------------------ the spec
def test_spec_roundtrips_through_dict():
    spec = tiny_spec(workload_params={"scale": 0.5})
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    # and through actual JSON text
    assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
        == spec


def test_spec_format_versioning():
    from repro.scenarios import SPEC_FORMAT_VERSION

    spec = tiny_spec()
    doc = spec.to_dict()
    # documents are stamped with the *minimal* version able to read
    # them: the largest ``since`` among the fields they write (only the
    # optimizer axis needs the current version 6; the admission/slo
    # axes need 5; nothing needs 4 any more; the traffic axis needs 3)
    assert doc["version"] == 2
    assert SPEC_FORMAT_VERSION == 6
    traffic = TrafficSpec(arrivals="poisson", params={"rate": 0.01})
    assert tiny_spec(traffic=traffic).to_dict()["version"] == 3
    assert tiny_spec(
        traffic=traffic,
        admission=AdmissionSpec(policy="weighted_fair", weights={"a": 2.0}),
    ).to_dict()["version"] == 5
    assert tiny_spec(optimizer=OptimizerSpec()).to_dict()["version"] == 6
    assert tiny_spec(variants=(
        VariantSpec("a"),
        VariantSpec("b", optimizer=OptimizerSpec(enumerator="ues")),
    ), expect=()).to_dict()["version"] == 6
    # ... pre-versioning documents (no version key) still parse ...
    unversioned = dict(doc)
    del unversioned["version"]
    assert ScenarioSpec.from_dict(unversioned) == spec
    # ... and future or malformed versions are rejected loudly
    with pytest.raises(ConfigurationError, match="not supported"):
        ScenarioSpec.from_dict({**doc, "version": SPEC_FORMAT_VERSION + 1})
    with pytest.raises(ConfigurationError, match="integer"):
        ScenarioSpec.from_dict({**doc, "version": "one"})


def test_every_registered_scenario_roundtrips():
    for spec in list_scenarios():
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec, \
            spec.scenario_id


def test_spec_validation_rejects_bad_values():
    with pytest.raises(ConfigurationError, match="valid presets"):
        tiny_spec(preset="warp-speed")
    with pytest.raises(ConfigurationError, match="valid workloads"):
        tiny_spec(workload="nope")
    with pytest.raises(ConfigurationError, match="duplicate variant"):
        tiny_spec(variants=(VariantSpec("a"), VariantSpec("a")))
    with pytest.raises(ConfigurationError, match="unknown variant"):
        tiny_spec(expect=(Expectation("completed", ">", 0,
                                      variant="missing"),))
    with pytest.raises(ConfigurationError, match="valid ops"):
        Expectation("completed", "~", 0)
    with pytest.raises(ConfigurationError, match="must be a number"):
        Expectation("completed", ">", "10")
    with pytest.raises(ConfigurationError, match="bad parameters"):
        tiny_spec(workload_params={"bogus_param": 1})
    with pytest.raises(ConfigurationError, match="bad parameters"):
        tiny_spec(workload="mixed",
                  workload_params={"tpch_fraction": 2.0})
    with pytest.raises(ConfigurationError, match="kind"):
        tiny_spec(kind="interpretive-dance")
    # variants only vary experiment configs; monitors/trace scenarios
    # are single units of work (one shard cell each)
    with pytest.raises(ConfigurationError, match="exactly one variant"):
        tiny_spec(kind="monitors", expect=())
    with pytest.raises(ConfigurationError, match="unknown scenario field"):
        ScenarioSpec.from_dict({"scenario_id": "x", "title": "x",
                                "family": "x", "bogus": 1})


BAD_THINK_TIMES = [0, 0.0, -1.0, float("nan"), float("inf"),
                   float("-inf"), True, "15"]


@pytest.mark.parametrize("bad", BAD_THINK_TIMES, ids=repr)
def test_bad_think_time_is_rejected_at_construction(bad):
    with pytest.raises(ConfigurationError, match="think_time must be"):
        tiny_spec(think_time=bad)
    with pytest.raises(ConfigurationError, match="variant think_time"):
        VariantSpec("v", think_time=bad)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "0",
                                  "-2.5"])
def test_bad_think_time_is_rejected_from_json(text):
    """``json`` parses ``NaN`` and ``Infinity``; both levels of a spec
    document reject them, as they reject zero and negatives."""
    def parsed(doc):
        return json.loads(json.dumps(doc).replace('"@think"', text))

    scenario = tiny_spec().to_dict()
    scenario["think_time"] = "@think"
    with pytest.raises(ConfigurationError, match="think_time must be"):
        ScenarioSpec.from_dict(parsed(scenario))
    variant = tiny_spec().to_dict()
    variant["variants"][0]["think_time"] = "@think"
    with pytest.raises(ConfigurationError, match="variant think_time"):
        ScenarioSpec.from_dict(parsed(variant))


#: (level, field, value): a field of a spec document with the wrong
#: type or range.  Toggles must be JSON booleans and counts JSON
#: integers; ``true`` is not a count and ``"no"`` is not ``false``
BAD_TYPES = [
    ("overrides", "throttling", "no"),
    ("overrides", "dynamic_thresholds", 1),
    ("overrides", "gateway_count", 1.5),
    ("overrides", "gateway_count", 4),
    ("overrides", "cpus", 1.5),
    ("overrides", "physical_memory", "x"),
    ("overrides", "physical_memory", True),
    ("scenario", "clients", True),
    ("scenario", "clients", "24"),
    ("scenario", "seed", "x"),
    ("scenario", "seed", 1.0),
    ("variant", "clients", "24"),
    ("variant", "clients", False),
]


@pytest.mark.parametrize("level,name,value", BAD_TYPES, ids=repr)
def test_mistyped_fields_are_rejected_at_construction(level, name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be"):
        if level == "overrides":
            ConfigOverrides(**{name: value})
        elif level == "variant":
            VariantSpec("v", **{name: value})
        else:
            tiny_spec(**{name: value})


@pytest.mark.parametrize("level,name,value", BAD_TYPES, ids=repr)
def test_mistyped_spec_file_exits_2(tmp_path, capsys, level, name, value):
    """A bad input is a usage error (exit 2), never a traceback."""
    doc = tiny_spec().to_dict()
    if level == "overrides":
        doc["variants"][0]["overrides"][name] = value
    elif level == "variant":
        doc["variants"][0][name] = value
    else:
        doc[name] = value
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["scenarios", "describe", "--scenario", str(path)]) == 2
    assert f"{name} must be" in capsys.readouterr().err


def test_kernel_key_of_old_documents_is_dropped():
    """Version-4 documents named a scheduler core; the choice is gone
    but the documents still parse, and re-serialize without it."""
    doc = get_scenario("scale-100x").to_dict()
    assert doc["version"] == 3 and "kernel" not in doc
    old = {**doc, "version": 4, "kernel": "wheel"}
    spec = ScenarioSpec.from_dict(old)
    assert spec == get_scenario("scale-100x")
    assert spec.to_dict() == doc
    assert ScenarioSpec.from_dict({**doc, "kernel": "legacy"}) == spec
    with pytest.raises(ConfigurationError, match="unknown kernel 'bogus'"):
        ScenarioSpec.from_dict({**old, "kernel": "bogus"})


def test_positive_think_times_are_accepted():
    assert tiny_spec(think_time=1).think_time == 1
    assert VariantSpec("v", think_time=0.25).think_time == 0.25


def test_spec_customized_applies_overrides():
    spec = tiny_spec()
    custom = spec.customized(preset="scaled", seed=42, clients=7)
    assert (custom.preset, custom.seed, custom.clients) == ("scaled", 42, 7)
    # per-variant client counts yield to an explicit override
    sweep = tiny_spec(variants=(VariantSpec("a", clients=5),
                                VariantSpec("b", clients=9)),
                      expect=())
    clamped = sweep.customized(clients=2)
    for job in jobs_for_scenario(clamped):
        assert job.config.clients == 2
    # no overrides = the same spec
    assert spec.customized() == spec


def test_spec_customized_optimizer_override():
    """``--optimizer`` swaps the enumerator for every variant."""
    spec = tiny_spec(variants=(
        VariantSpec("memo", optimizer=OptimizerSpec()),
        VariantSpec("plain"),
    ), expect=())
    custom = spec.customized(optimizer="ues")
    assert custom.optimizer == OptimizerSpec(enumerator="ues")
    assert all(v.optimizer is None for v in custom.variants)
    for job in jobs_for_scenario(custom):
        assert job.config.optimizer.enumerator == "ues"
    # the override composes with a scenario-level spec, replacing only
    # its enumerator
    ues = tiny_spec(optimizer=OptimizerSpec(enumerator="ues"))
    assert ues.customized(optimizer="ues").optimizer == ues.optimizer
    assert ues.customized(optimizer="memo").optimizer == OptimizerSpec()


def config_with_gateways(count):
    """The paper config restricted to its first ``count`` monitors, as
    the pre-registry ablation harness built it (0 = throttling off)."""
    base = paper_server_config(throttling=count > 0)
    if count == 0:
        return base
    throttle = replace(base.throttle, gateways=default_gateways()[:count])
    return replace(base, throttle=throttle)


def config_with_dynamic(dynamic):
    base = paper_server_config(throttling=True)
    return replace(base, throttle=replace(base.throttle,
                                          dynamic_thresholds=dynamic))


def config_with_best_plan(enabled):
    base = paper_server_config(throttling=True)
    return replace(base, throttle=replace(base.throttle,
                                          best_plan_so_far=enabled))


def test_overrides_match_legacy_ablation_configs():
    """ConfigOverrides.apply must produce exactly the ServerConfigs the
    pre-registry ablation harness built (rebuilt above as the
    reference) — that is what keeps the ablation scenarios'
    artifacts byte-identical to that harness's runs."""
    for count in (0, 1, 2, 3):
        assert ConfigOverrides(gateway_count=count).apply() \
            == config_with_gateways(count)
    for dynamic in (False, True):
        assert ConfigOverrides(dynamic_thresholds=dynamic).apply() \
            == config_with_dynamic(dynamic)
    for enabled in (False, True):
        assert ConfigOverrides(best_plan_so_far=enabled).apply() \
            == config_with_best_plan(enabled)


def test_overrides_hardware_and_broker():
    cfg = ConfigOverrides(physical_memory=1 << 30, cpus=4,
                          broker_enabled=False).apply()
    assert cfg.hardware.physical_memory == 1 << 30
    assert cfg.hardware.cpus == 4
    assert not cfg.broker.enabled
    assert ConfigOverrides().apply() == paper_server_config()


# ------------------------------------------------------------ registry
def test_registry_rejects_duplicate_ids():
    spec = tiny_spec(scenario_id="test-dup")
    register_scenario(spec)
    try:
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(tiny_spec(scenario_id="test-dup"))
    finally:
        unregister_scenario("test-dup")


def test_registry_catalogue_is_complete():
    ids = scenario_ids()
    # every paper artifact is a registered scenario ...
    for required in ("fig1", "fig2", "fig3", "fig4", "fig5",
                     "abl-gates", "abl-dyn", "abl-bpsf", "saturation"):
        assert required in ids
    # ... plus at least three scenario families the seed never had
    families = scenario_families()
    for new_family in ("mixed", "memory", "ladder"):
        assert new_family in families
    for spec in list_scenarios():
        assert spec.scenario_id == get_scenario(spec.scenario_id).scenario_id


def test_unknown_scenario_lists_registered_ids():
    with pytest.raises(ConfigurationError, match="fig3"):
        get_scenario("nope")


# ------------------------------------------------------------ lowering
def test_jobs_for_scenario_lowering():
    jobs = jobs_for_scenario(tiny_spec())
    assert [j.name for j in jobs] == ["throttled", "unthrottled"]
    assert jobs[0].config.throttling and not jobs[1].config.throttling
    # every variant carries its overrides applied to the paper config
    assert jobs[0].config.server_overrides == paper_server_config()
    assert jobs[1].config.server_overrides \
        == paper_server_config(throttling=False)
    rich = jobs_for_scenario(tiny_spec(variants=(
        VariantSpec("small", ConfigOverrides(gateway_count=1)),),
        expect=()))
    assert rich[0].config.server_overrides is not None
    with pytest.raises(ConfigurationError, match="monitors"):
        jobs_for_scenario(get_scenario("fig1"))


# -------------------------------------------------------- expectations
def test_expectation_evaluation():
    spec = tiny_spec(expect=(
        Expectation("completed", ">", 10, variant="throttled"),
        Expectation("errors.compile_oom", "==", 0, variant="throttled"),
        Expectation("improvement", ">=", 0.5),
        Expectation("completed", ">", 0, variant="unthrottled"),
    ))
    variant_metrics = {"throttled": {"completed": 30.0}}
    scenario_metrics = {"improvement": 0.4}
    checks = evaluate_expectations(spec, variant_metrics, scenario_metrics)
    assert [c.passed for c in checks] == [True, True, False, False]
    # absent error kinds read as zero; absent variants fail the check
    assert checks[1].actual == 0.0
    assert checks[3].actual is None
    assert "FAIL" in checks[2].describe()
    assert "PASS" in checks[0].describe()


def test_cross_variant_expectations():
    """`than_variant` compares the same metric between two variants."""
    spec = tiny_spec(expect=(
        Expectation("failed", "<", variant="throttled",
                    than_variant="unthrottled"),
        Expectation("errors.compile_oom", "<=", variant="throttled",
                    than_variant="unthrottled"),
        Expectation("completed", ">", variant="unthrottled",
                    than_variant="throttled"),
    ))
    variant_metrics = {
        "throttled": {"completed": 30.0, "failed": 2.0},
        "unthrottled": {"completed": 25.0, "failed": 9.0},
    }
    checks = evaluate_expectations(spec, variant_metrics, {})
    assert [c.passed for c in checks] == [True, True, False]
    # absent error kinds read as zero on both sides
    assert checks[1].actual == 0.0 and checks[1].reference == 0.0
    assert checks[0].reference == 9.0
    assert "throttled.failed < unthrottled.failed" in checks[0].describe()
    assert "(actual 2 vs 9)" in checks[0].describe()
    # a missing reference variant fails the check instead of raising
    partial = evaluate_expectations(spec, {"throttled": {"failed": 1.0}},
                                    {})
    assert not partial[0].passed and partial[0].reference is None


def test_cross_variant_expectation_validation():
    ok = Expectation("failed", "<", variant="a", than_variant="b")
    assert ok.value is None
    assert Expectation.from_dict(ok.to_dict()) == ok
    assert ok.to_dict() == {"metric": "failed", "op": "<",
                            "variant": "a", "than_variant": "b"}
    with pytest.raises(ConfigurationError, match="not both"):
        Expectation("failed", "<", 3, variant="a", than_variant="b")
    with pytest.raises(ConfigurationError, match="needs a variant"):
        Expectation("failed", "<", than_variant="b")
    with pytest.raises(ConfigurationError, match="itself"):
        Expectation("failed", "<", variant="a", than_variant="a")
    with pytest.raises(ConfigurationError, match="unknown variant"):
        tiny_spec(expect=(Expectation("failed", "<", variant="throttled",
                                      than_variant="missing"),))
    # a plain expectation still requires a numeric value
    with pytest.raises(ConfigurationError, match="must be a number"):
        Expectation("failed", "<", None, variant="a")


def test_cross_variant_checks_survive_the_artifact_path(tmp_path):
    """Cells rebuilt from their summaries (as a resume replays them
    from a journal) evaluate cross-variant checks on the same numbers,
    and the artifact records the reference."""
    from repro.experiments.executors import CellResult
    from repro.experiments.shards import ShardCell
    from repro.scenarios.facade import (scenario_result_from_cells,
                                        write_scenario_artifact)

    spec = tiny_spec(expect=(
        Expectation("completed", "==", variant="throttled",
                    than_variant="unthrottled"),))
    summary = {
        "completed": 10, "failed": 0, "error_counts": {}, "degraded": 0,
        "retries": 0, "search_replays": 0, "soft_denials": 0,
        "mean_per_bucket": 1.0, "mean_compile_time": 0.1,
        "mean_execution_time": 0.2, "memory_by_clerk": {},
        "gateway_stats": [], "throughput": [[0.0, 10]],
        "wall_seconds": 0.5,
        "config": {"workload": "oltp", "workload_params": {},
                   "clients": 2, "throttling": True, "preset": "smoke",
                   "seed": 1, "think_time": 5.0},
    }
    cells = [CellResult(cell=ShardCell("tiny", variant, 1),
                        summary=dict(summary))
             for variant in ("unthrottled", "throttled")]
    path = write_scenario_artifact(
        str(tmp_path), scenario_result_from_cells(spec, cells))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["ok"]
    assert list(payload["results"]) == ["throttled", "unthrottled"]
    check = payload["checks"][0]
    assert check["passed"] and check["reference"] == 10.0
    assert check["expectation"]["than_variant"] == "unthrottled"


def test_scenario_level_error_metrics_aggregate_across_variants():
    from repro.scenarios.facade import _aggregate_metrics

    spec = tiny_spec(expect=())
    aggregate = _aggregate_metrics(spec, {
        "throttled": {"completed": 10.0, "errors.compile_oom": 3.0},
        "unthrottled": {"completed": 5.0, "errors.compile_oom": 7.0,
                        "errors.gateway_timeout": 1.0},
    })
    assert aggregate["errors.compile_oom"] == 10.0
    assert aggregate["errors.gateway_timeout"] == 1.0
    # a scenario-level errors check now sees real totals, not a
    # silently-passing zero default
    checks = evaluate_expectations(
        tiny_spec(expect=(Expectation("errors.compile_oom", "==", 0),)),
        {}, aggregate)
    assert not checks[0].passed


def test_scenario_artifact_serializes_non_finite_metrics(tmp_path):
    from repro.scenarios import write_scenario_artifact
    from repro.scenarios.facade import ScenarioResult

    result = ScenarioResult(spec=tiny_spec(expect=()), batch=None,
                            scenario_metrics={"improvement": float("inf")})
    path = write_scenario_artifact(str(tmp_path), result)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert "Infinity" not in text
    assert json.loads(text)["scenario_metrics"]["improvement"] == "inf"


# ----------------------------------------------------------------- CLI
def test_cli_scenarios_list_and_describe(capsys):
    assert cli.main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for scenario_id in ("fig3", "mixed-rush", "mem-ramp", "ladder-load"):
        assert scenario_id in out

    assert cli.main(["scenarios", "list", "--family", "mixed"]) == 0
    out = capsys.readouterr().out
    assert "mixed-rush" in out and "fig3" not in out

    assert cli.main(["scenarios", "describe", "fig3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ScenarioSpec.from_dict(doc) == get_scenario("fig3")


def test_cli_error_handling(capsys):
    assert cli.main(["scenarios", "describe", "nope"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "fig3" in err
    assert cli.main(["scenarios", "run"]) == 2
    err = capsys.readouterr().err
    assert "nothing to run" in err
    assert cli.main(["scenarios", "run", "--family", "nope"]) == 2
    err = capsys.readouterr().err
    assert "mixed" in err


def test_cli_describe_scenario_file(tmp_path, capsys):
    """`scenarios describe --scenario FILE` validates the file: unknown
    top-level keys are rejected with the valid ones listed, exactly
    like the workload/preset errors."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenario_id": "u", "title": "U",
                                "family": "user", "workload": "oltp",
                                "clients": 2}), encoding="utf-8")
    assert cli.main(["scenarios", "describe",
                     "--scenario", str(good)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario_id"] == "u" and "version" in doc

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario_id": "u", "title": "U",
                               "family": "user", "bogus": 1,
                               "extra": 2}), encoding="utf-8")
    assert cli.main(["scenarios", "describe",
                     "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    # the error names the offenders and teaches the valid keys
    assert "bogus" in err and "extra" in err and "workload" in err

    # exactly one of <id> / --scenario
    assert cli.main(["scenarios", "describe"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert cli.main(["scenarios", "describe", "fig3",
                     "--scenario", str(good)]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_rejects_bad_scenario_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["scenarios", "run", "--scenario", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps({"scenario_id": "x", "title": "x",
                                "family": "x", "bogus": 1}),
                    encoding="utf-8")
    assert cli.main(["scenarios", "run", "--scenario", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_monitors_scenario(capsys):
    assert cli.main(["scenarios", "run", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "small" in out and "big" in out


# ------------------------------------------------------------ running
@pytest.mark.slow
def test_run_scenario_from_json_file(tmp_path):
    doc = {
        "scenario_id": "user-tiny",
        "title": "User-authored tiny scenario",
        "family": "user",
        "workload": "oltp",
        "clients": 2,
        "preset": "smoke",
        "seed": 1,
        "think_time": 5.0,
        "variants": [
            {"name": "run", "overrides": {"throttling": True}},
        ],
        "expect": [{"metric": "completed", "op": ">", "value": 0,
                    "variant": "run"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    spec = load_scenario_file(str(path))
    result = run_scenario(spec)
    assert result.ok
    assert result.batch.ok
    assert result.variant_metrics["run"]["completed"] > 0
    assert all(check.passed for check in result.checks)
    assert "check PASS" in result.render()


@pytest.mark.slow
def test_scenario_artifact_roundtrips(tmp_path):
    from repro.scenarios import write_scenario_artifact

    from repro.experiments.runner import ARTIFACT_SCHEMA

    result = run_scenario(tiny_spec())
    path = write_scenario_artifact(str(tmp_path), result)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == ARTIFACT_SCHEMA
    assert ScenarioSpec.from_dict(doc["spec"]) == tiny_spec()
    assert set(doc["results"]) == {"throttled", "unthrottled"}
    assert doc["results"]["throttled"]["completed"] > 0


@pytest.mark.slow
def test_every_registered_scenario_smoke_runs():
    """Every catalogue entry must at least run under the smoke preset.

    Client counts (and, for the scale family, traffic populations) are
    clamped so the sweep stays test-sized; the registered counts run
    nightly at paper fidelity and in the scale smoke lane.
    """
    from helpers import shrunk_spec

    for spec in list_scenarios():
        runnable = shrunk_spec(spec)
        result = run_scenario(runnable)
        assert result.body, spec.scenario_id
        if result.batch is not None:
            assert result.batch.ok, \
                f"{spec.scenario_id}: {result.batch.errors}"
            assert set(result.batch.results) == set(spec.variant_names())


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """String hashing is salted per process, so set and dict iteration
    over strings may differ between runs; no artifact may show it.
    ``fairness-noisy`` carries the traffic, admission and SLO axes and
    ``--snapshot`` adds the DMV snapshot."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    runs = {}
    for seed in ("0", "987654"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        runs[seed] = (out, subprocess.Popen(
            [sys.executable, "-m", "repro", "scenarios", "run", "fig1",
             "fairness-noisy", "--preset", "smoke", "--seed", "3",
             "--snapshot", "--out", str(out)],
            stdout=subprocess.DEVNULL, env=env))
    for out, proc in runs.values():
        assert proc.wait(timeout=60) == 0
    (first, _), (second, _) = runs.values()
    names = sorted(os.listdir(first))
    assert names == ["BENCH_scenario_fairness-noisy.json",
                     "BENCH_scenario_fig1.json"]
    assert names == sorted(os.listdir(second))
    for name in names:
        assert canonical_text(first / name) == canonical_text(second / name)
