"""Tests for the admission-control subsystem.

Fast tests cover the declarative axes (``AdmissionSpec`` / ``SloSpec``
validation and JSON round trips, minimal version stamping), the SLO
evaluator, policy dispatch (including the pinned all-unit-weights
degeneration to FIFO), capture-trace plumbing (``CellTask`` wire form,
outcome vocabulary consistency) and the ``slo.*`` metric namespace.
The sim tests pin the acceptance contracts: a ``fifo`` policy is
byte-identical to an admission-free run, all-unit ``weighted_fair``
is byte-identical to ``fifo`` in a run and through a stream
executor, a captured trace replays to the originating run's canonical
artifact byte for byte, and the registered ``fairness-noisy`` scenario
demonstrates the victim tenant's p90 recovering under
``weighted_fair``.
"""

import json
import threading
from dataclasses import replace

import pytest

from repro.admission import (
    ADMITTED_OUTCOMES,
    AdmissionSpec,
    DROPPED_OUTCOMES,
    FifoPolicy,
    OUTCOME_NAMES,
    SloSpec,
    SloTarget,
    TenantQuotaPolicy,
    TokenBucketPolicy,
    WeightedFairPolicy,
    evaluate_slo,
    make_policy,
)
from repro.config import paper_server_config
from repro.errors import ConfigurationError
from repro.experiments.executors import CellTask, tasks_for_specs
from repro.experiments.runner import (
    ExperimentConfig,
    make_workload,
    run_experiment,
    summarize_result,
)
from repro.experiments.shards import ShardCell, canonical_document
from repro.scenarios import (
    Expectation,
    ScenarioSpec,
    TrafficSpec,
    VariantSpec,
    get_scenario,
    metrics_from_summary,
    run_scenario,
    write_scenario_artifact,
)
from repro.server import DatabaseServer
from repro.sim import Environment
from repro.traffic import (
    TRACE_OUTCOMES,
    OpenLoopGenerator,
    read_trace,
    summarize_trace,
)

from helpers import canonical_text


# ------------------------------------------------------ admission spec
def test_admission_spec_canonicalizes_and_roundtrips():
    spec = AdmissionSpec(policy="weighted_fair",
                         weights={"b": 2.0, "a": 3.0})
    # mappings freeze to sorted pairs so specs hash and compare
    assert spec.weights == (("a", 3.0), ("b", 2.0))
    assert spec.weights_dict() == {"a": 3.0, "b": 2.0}
    rebuilt = AdmissionSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec
    assert hash(rebuilt) == hash(spec)
    # defaults are omitted from the document form
    assert AdmissionSpec().to_dict() == {"policy": "fifo"}
    bucket = AdmissionSpec(policy="token_bucket", rate=0.5, burst=3.0)
    assert bucket.to_dict() == {"policy": "token_bucket", "rate": 0.5,
                                "burst": 3.0}
    assert AdmissionSpec.from_dict(bucket.to_dict()) == bucket


def test_admission_spec_rejects_misapplied_fields():
    with pytest.raises(ConfigurationError, match="weights"):
        AdmissionSpec(policy="fifo", weights={"a": 2.0})
    with pytest.raises(ConfigurationError, match="queue_limits"):
        AdmissionSpec(policy="weighted_fair", queue_limits={"a": 1})
    with pytest.raises(ConfigurationError, match="rate"):
        AdmissionSpec(policy="fifo", rate=1.0)
    with pytest.raises(ConfigurationError, match="valid policies"):
        AdmissionSpec(policy="lifo")
    with pytest.raises(ConfigurationError, match="requires a positive"):
        AdmissionSpec(policy="token_bucket")
    with pytest.raises(ConfigurationError, match="burst"):
        AdmissionSpec(policy="token_bucket", rate=1.0, burst=0.5)
    with pytest.raises(ConfigurationError, match="positive"):
        AdmissionSpec(policy="weighted_fair", weights={"a": 0.0})
    with pytest.raises(ConfigurationError, match="max_in_flight"):
        AdmissionSpec(policy="tenant_quota", max_in_flight={"a": 0})
    with pytest.raises(ConfigurationError, match="unknown admission field"):
        AdmissionSpec.from_dict({"policy": "fifo", "shares": {}})
    with pytest.raises(ConfigurationError, match="JSON object"):
        AdmissionSpec.from_dict(["fifo"])


def test_slo_target_validation_and_keys():
    aggregate = SloTarget(metric="sojourn", percentile="p99", max_value=90.0)
    assert aggregate.key == "sojourn_p99"
    scoped = SloTarget(metric="queue_wait", percentile="p90",
                       max_value=30.0, tenant="steady")
    assert scoped.key == "tenant.steady.queue_wait_p90"
    assert SloTarget.from_dict(scoped.to_dict()) == scoped
    with pytest.raises(ConfigurationError, match="valid metrics"):
        SloTarget(metric="latency", percentile="p90", max_value=1.0)
    with pytest.raises(ConfigurationError, match="valid percentiles"):
        SloTarget(metric="sojourn", percentile="p95", max_value=1.0)
    with pytest.raises(ConfigurationError, match="max_value"):
        SloTarget(metric="sojourn", percentile="p90", max_value=0.0)
    # the fact block only breaks queue waits down per tenant
    with pytest.raises(ConfigurationError, match="per-tenant"):
        SloTarget(metric="sojourn", percentile="p90", max_value=1.0,
                  tenant="a")
    with pytest.raises(ConfigurationError, match="non-empty"):
        SloTarget(metric="queue_wait", percentile="p90", max_value=1.0,
                  tenant="")


def test_slo_spec_coerces_and_rejects_duplicates():
    spec = SloSpec(targets=(
        {"metric": "queue_wait", "percentile": "p90", "max_value": 30.0},
        SloTarget(metric="queue_wait", percentile="p90", max_value=10.0,
                  tenant="a"),
    ))
    assert all(isinstance(t, SloTarget) for t in spec.targets)
    assert SloSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    with pytest.raises(ConfigurationError, match="at least one"):
        SloSpec()
    with pytest.raises(ConfigurationError, match="duplicate"):
        SloSpec(targets=(
            SloTarget(metric="sojourn", percentile="max", max_value=5.0),
            SloTarget(metric="sojourn", percentile="max", max_value=9.0),
        ))
    with pytest.raises(ConfigurationError, match="valid field"):
        SloSpec.from_dict({"objectives": []})


def test_evaluate_slo_reads_facts_and_counts_violations():
    spec = SloSpec(targets=(
        SloTarget(metric="queue_wait", percentile="p90", max_value=30.0),
        SloTarget(metric="sojourn", percentile="p99", max_value=60.0),
        SloTarget(metric="queue_wait", percentile="p50", max_value=5.0,
                  tenant="ghost"),
    ))
    facts = {"queue_wait_p90": 12.0, "sojourn_p99": 61.5}
    out = evaluate_slo(spec, facts)
    assert out["queue_wait_p90.observed"] == 12.0
    assert out["queue_wait_p90.target"] == 30.0
    assert out["queue_wait_p90.ok"] == 1.0
    assert out["sojourn_p99.ok"] == 0.0
    # a missing fact cannot certify the objective: no observed, not ok
    assert "tenant.ghost.queue_wait_p50.observed" not in out
    assert out["tenant.ghost.queue_wait_p50.ok"] == 0.0
    assert out["violations"] == 2.0
    assert out["ok"] == 0.0
    clean = evaluate_slo(SloSpec(targets=(spec.targets[0],)), facts)
    assert clean["ok"] == 1.0 and clean["violations"] == 0.0


# ------------------------------------------------------ policy dispatch
def test_make_policy_dispatch_and_unit_weight_degeneration():
    env = Environment()
    assert isinstance(make_policy(None, env, 2, 4), FifoPolicy)
    assert isinstance(
        make_policy(AdmissionSpec(), env, 2, 4), FifoPolicy)
    # all-unit weights carry no differentiation: pinned FIFO degeneration
    equal = AdmissionSpec(policy="weighted_fair",
                          weights={"a": 1.0, "b": 1.0})
    assert isinstance(make_policy(equal, env, 2, 4), FifoPolicy)
    assert isinstance(
        make_policy(AdmissionSpec(policy="weighted_fair"), env, 2, 4),
        FifoPolicy)
    skewed = make_policy(
        AdmissionSpec(policy="weighted_fair", weights={"a": 4.0}),
        env, 2, 4)
    assert isinstance(skewed, WeightedFairPolicy)
    quota = make_policy(
        AdmissionSpec(policy="tenant_quota", max_in_flight={"a": 1}),
        env, 2, 4)
    assert isinstance(quota, TenantQuotaPolicy)
    bucket = make_policy(
        AdmissionSpec(policy="token_bucket", rate=0.5), env, 2, 4)
    assert isinstance(bucket, TokenBucketPolicy)
    assert bucket.burst == 1.0


def test_weighted_fair_grants_by_start_tags():
    env = Environment()
    policy = WeightedFairPolicy(env, capacity=1, queue_limit=8,
                                weights={"heavy": 4.0, "light": 1.0})
    hog = policy.request("heavy")          # takes the single slot
    assert hog.granted
    queued = [policy.request("light"),     # tag 0.0
              policy.request("heavy"),     # tag 0.25
              policy.request("light"),     # tag 1.0
              policy.request("heavy")]     # tag 0.5
    # light's claims advance its finish tag by 1/1 per claim, heavy's
    # by only 1/4 — so heavy's later arrivals overtake light's second
    # claim, light's first keeps its tag-0 head start
    order = []
    policy.release(hog)
    while policy.users:
        claim = policy.users[0]
        order.append(queued.index(claim))
        policy.release(claim)
    assert order == [0, 1, 3, 2]


def test_tenant_quota_skips_capped_tenants():
    env = Environment()
    policy = TenantQuotaPolicy(env, capacity=2, queue_limit=8,
                               queue_limits={"a": 1},
                               max_in_flight={"a": 1})
    first = policy.request("a")
    assert first.granted
    # a is at its in-flight cap: its next claim queues, b's sails past
    second = policy.request("a")
    assert not second.granted
    third = policy.request("b")
    assert third.granted
    # one queued claim for a is its queue_limits cap; b is uncapped
    assert policy.would_drop("a")
    assert not policy.would_drop("b")
    policy.release(first)
    assert second.granted


def test_token_bucket_drops_without_tokens():
    env = Environment()
    policy = TokenBucketPolicy(env, capacity=4, queue_limit=4,
                               rate=0.0, burst=2.0)
    assert not policy.would_drop("a")
    policy.request("a")
    policy.request("a")
    # bucket drained and refill rate is zero: drop on arrival even
    # though slots remain free
    assert policy.tokens == 0.0
    assert policy.would_drop("a")


def test_trace_outcome_vocabulary_matches_capture():
    # trace.py validates outcomes against its own tuple so the reader
    # has no capture dependency; the two vocabularies must not drift
    assert set(TRACE_OUTCOMES) == set(OUTCOME_NAMES.values())
    assert ADMITTED_OUTCOMES | DROPPED_OUTCOMES | {"queued"} \
        == set(OUTCOME_NAMES.values())


# ------------------------------------------------- spec axis + plumbing
_DEFAULT_TRAFFIC = TrafficSpec(
    arrivals="tenant_mix",
    params={"tenants": {
        "a": {"process": "poisson", "rate": 0.02},
        "b": {"process": "poisson", "rate": 0.004},
    }},
    max_sessions=2, queue_limit=2, queue_timeout=60.0)


def open_spec(scenario_id, admission=None, slo=None, variants=None,
              traffic=_DEFAULT_TRAFFIC, **overrides):
    variants = variants or (VariantSpec("run"),)
    defaults = dict(
        scenario_id=scenario_id, title="Admission test", family="test",
        workload="oltp", clients=4, preset="smoke", seed=5,
        traffic=traffic, admission=admission, slo=slo,
        variants=variants,
        expect=(Expectation("openloop.offered", ">", 0,
                            variant=variants[0].name),))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_admission_axis_stamps_version_minimally():
    assert open_spec("plain").to_dict()["version"] == 3
    doc = open_spec("fifo", admission=AdmissionSpec()).to_dict()
    assert doc["version"] == 5
    assert doc["admission"] == {"policy": "fifo"}
    slo = SloSpec(targets=(
        SloTarget(metric="queue_wait", percentile="p90", max_value=9.0),))
    assert open_spec("slo", slo=slo).to_dict()["version"] == 5
    varied = open_spec("var", variants=(
        VariantSpec("fifo"),
        VariantSpec("wf", admission=AdmissionSpec(
            policy="weighted_fair", weights={"a": 2.0}))))
    doc = varied.to_dict()
    assert doc["version"] == 5
    rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(doc)))
    assert rebuilt == varied


def test_admission_axis_requires_traffic():
    with pytest.raises(ConfigurationError, match="traffic"):
        open_spec("bare", admission=AdmissionSpec(), traffic=None,
                  expect=())
    with pytest.raises(ConfigurationError, match="traffic"):
        open_spec("bare-slo", traffic=None, expect=(), slo=SloSpec(
            targets=(SloTarget(metric="sojourn", percentile="p90",
                               max_value=9.0),)))


def test_cell_task_capture_wire_form():
    spec = open_spec("wire/cap")
    task = CellTask(cell=ShardCell("wire/cap", "run", 5), spec=spec,
                    capture="traces")
    assert task.trace_path().endswith("TRACE_wire_cap_run_5.jsonl")
    doc = json.loads(json.dumps(task.to_doc()))
    assert doc["capture"] == "traces"
    rebuilt = CellTask.from_doc(doc)
    assert rebuilt.capture == "traces"
    assert rebuilt.trace_path() == task.trace_path()
    bare = CellTask(cell=ShardCell("wire/cap", "run", 5), spec=spec)
    assert bare.trace_path() is None
    assert "capture" not in bare.to_doc()
    tasks = tasks_for_specs([spec], capture="out")
    assert all(t.capture == "out" for t in tasks)


def test_metrics_from_summary_surfaces_slo_namespace():
    summary = {
        "completed": 3, "failed": 0, "degraded": 0, "retries": 0,
        "mean_per_bucket": 1.0, "mean_compile_time": 0.1,
        "mean_execution_time": 0.2, "search_replays": 0,
        "soft_denials": 0, "wall_seconds": 0.0, "error_counts": {},
        "open_loop": {"offered": 4.0},
        "slo": {"queue_wait_p90.ok": 1.0, "ok": 1.0, "violations": 0.0},
    }
    metrics = metrics_from_summary(summary)
    assert metrics["slo.queue_wait_p90.ok"] == 1.0
    assert metrics["slo.ok"] == 1.0
    assert metrics["slo.violations"] == 0.0
    assert metrics["openloop.offered"] == 4.0


# ---------------------------------------------------------- sim pins
def generator_run(traffic, admission=None, capture=False, seed=5,
                  duration=2400.0):
    workload = make_workload("oltp")
    server = DatabaseServer(paper_server_config(), workload.build_catalog())
    generator = OpenLoopGenerator(server, workload, traffic=traffic,
                                  duration=duration, seed=seed,
                                  clients=4, admission=admission,
                                  capture=capture)
    generator.run()
    return generator


def test_zero_drop_tenants_pin_explicit_dropped_facts():
    """Satellite pins: zero-drop tenants still publish an explicit
    ``tenant.<name>.dropped = 0.0`` fact, and the fact block carries
    the p99 queue wait, sojourn percentiles and per-tenant queue-wait
    percentiles."""
    traffic = TrafficSpec(
        arrivals="tenant_mix",
        params={"tenants": {
            "a": {"process": "poisson", "rate": 0.01},
            "b": {"process": "poisson", "rate": 0.005},
        }},
        max_sessions=8)
    generator = generator_run(traffic)
    facts = generator.facts()
    assert facts["dropped"] == 0.0
    for tenant in ("a", "b"):
        assert facts[f"tenant.{tenant}.offered"] > 0
        assert facts[f"tenant.{tenant}.dropped"] == 0.0
    assert {"queue_wait_p99", "sojourn_p50", "sojourn_p90", "sojourn_p99",
            "sojourn_max"} <= set(facts)
    assert {"tenant.a.queue_wait_p50", "tenant.a.queue_wait_p90",
            "tenant.a.queue_wait_p99"} <= set(facts)


def canonical_json(summary) -> str:
    return json.dumps(canonical_document(summary), sort_keys=True)


def contended_traffic(**overrides):
    params = dict(
        arrivals="tenant_mix",
        params={"tenants": {
            "a": {"process": "poisson", "rate": 0.03},
            "b": {"process": "poisson", "rate": 0.006},
        }},
        max_sessions=1, queue_limit=1, queue_timeout=30.0)
    params.update(overrides)
    return TrafficSpec(**params)


@pytest.mark.slow
def test_fifo_policy_is_byte_identical_to_admission_free():
    """Acceptance pin: an explicit ``fifo`` policy reproduces the
    admission-free run byte for byte — the only delta is the config
    document naming the policy."""
    config = ExperimentConfig(workload="oltp", clients=4, preset="smoke",
                              seed=5, traffic=contended_traffic())
    bare = summarize_result(run_experiment(config))
    fifo = summarize_result(run_experiment(
        replace(config, admission=AdmissionSpec())))
    assert fifo["config"].pop("admission") == {"policy": "fifo"}
    assert canonical_json(fifo) == canonical_json(bare)
    assert bare["open_loop"]["dropped"] > 0  # the run was contended


@pytest.mark.slow
# the id names the heap core every run uses, kept from when a run
# could choose a second core and this test ran on both
@pytest.mark.parametrize("core", ["legacy"])
def test_equal_weights_byte_identical_to_fifo(core):
    """Satellite pin: all-unit ``weighted_fair`` weights degenerate to
    ``fifo`` byte-identically."""
    config = ExperimentConfig(
        workload="oltp", clients=4, preset="smoke", seed=5,
        traffic=contended_traffic(),
        admission=AdmissionSpec())
    fifo = summarize_result(run_experiment(config))
    equal = summarize_result(run_experiment(replace(
        config, admission=AdmissionSpec(
            policy="weighted_fair", weights={"a": 1.0, "b": 1.0}))))
    fifo["config"].pop("admission")
    equal["config"].pop("admission")
    assert canonical_json(equal) == canonical_json(fifo)


@pytest.mark.slow
def test_equal_weights_scenario_identical_across_executors(tmp_path):
    """The scenario-level half of the satellite pin: the equal-weights
    artifact through inline and stream executors is byte-identical to
    the ``fifo`` artifact once the policy stamp is stripped."""
    from repro.experiments.executors import InlineExecutor, StreamExecutor
    from repro.experiments.wire import run_worker

    equal = AdmissionSpec(policy="weighted_fair",
                          weights={"a": 1.0, "b": 1.0})
    spec = open_spec("adm-equiv", admission=equal)

    inline_dir = tmp_path / "inline"
    write_scenario_artifact(
        str(inline_dir), run_scenario(spec, executor=InlineExecutor()))

    stream_dir = tmp_path / "stream"
    stream = StreamExecutor(timeout=300)
    address = stream.start()
    thread = threading.Thread(target=run_worker, args=address, daemon=True)
    thread.start()
    try:
        result = run_scenario(spec, executor=stream)
        write_scenario_artifact(str(stream_dir), result)
    finally:
        stream.close()
    thread.join(timeout=10)

    assert result.ok, result.render()
    name = "BENCH_scenario_adm-equiv.json"
    assert canonical_text(inline_dir / name) \
        == canonical_text(stream_dir / name)

    fifo_dir = tmp_path / "fifo"
    write_scenario_artifact(str(fifo_dir), run_scenario(
        open_spec("adm-equiv", admission=AdmissionSpec())))

    def strip_policy(path):
        doc = json.loads(canonical_text(path))
        doc["spec"].pop("admission")
        for summary in doc["results"].values():
            summary["config"].pop("admission")
        return json.dumps(doc, sort_keys=True)

    assert strip_policy(inline_dir / name) == strip_policy(fifo_dir / name)


@pytest.mark.slow
def test_capture_replays_byte_identically(tmp_path):
    """Acceptance pin: a captured trace replayed through ``read_trace``
    reproduces the originating run's canonical artifact byte for byte —
    the config's traffic stanza is the only delta."""
    trace = str(tmp_path / "capture.jsonl")
    config = ExperimentConfig(workload="oltp", clients=4, preset="smoke",
                              seed=5, traffic=contended_traffic(),
                              capture_trace=trace)
    original = summarize_result(run_experiment(config))
    assert original["open_loop"]["dropped"] > 0

    events = list(read_trace(trace))
    assert len(events) == int(original["open_loop"]["offered"])
    # synthetic arrivals stay template-free so replay re-draws the
    # identical queries from the per-index RNG; outcomes are recorded
    assert all(e.template is None for e in events)
    assert all(e.outcome in TRACE_OUTCOMES for e in events)

    replayed = summarize_result(run_experiment(replace(
        config, capture_trace=None,
        traffic=TrafficSpec(trace=trace, max_sessions=1, queue_limit=1,
                            queue_timeout=30.0))))
    assert original["config"].pop("traffic") \
        != replayed["config"].pop("traffic")
    assert canonical_json(replayed) == canonical_json(original)

    # the capture summarizes into the per-tenant admission table
    summary = summarize_trace(trace)
    outcomes = summary["tenant_outcomes"]
    assert set(outcomes) == {"a", "b"}
    for tenant, row in outcomes.items():
        assert row["offered"] == summary["tenants"][tenant]
        assert row["admitted"] + row["dropped"] <= row["offered"]
    dropped = sum(row["dropped"] for row in outcomes.values())
    assert dropped == int(original["open_loop"]["dropped"])


@pytest.mark.slow
def test_fairness_scenario_recovers_victim_tenant():
    """The registered ``fairness-noisy`` scenario holds all its pins:
    identical offered load across variants, the steady tenant's p90
    queue wait recovering under ``weighted_fair``, and the SLO verdict
    flipping from violated (fifo) to met (weighted_fair)."""
    result = run_scenario(get_scenario("fairness-noisy"))
    assert result.ok, result.render()
    fifo = result.variant_metrics["fifo"]
    fair = result.variant_metrics["weighted_fair"]
    assert fifo["openloop.offered"] == fair["openloop.offered"]
    victim_key = "slo.tenant.steady.queue_wait_p90.observed"
    assert fair[victim_key] < fifo[victim_key]
    assert fifo["slo.violations"] > 0
    assert fair["slo.ok"] == 1.0


def test_closed_loop_capture_writes_submission_trace(tmp_path):
    """Closed-loop runs capture too: submission-order events with
    outcomes, validated by ``read_trace`` (a what-if replay source,
    not a byte-identity pin)."""
    trace = str(tmp_path / "closed.jsonl")
    config = ExperimentConfig(workload="oltp", clients=2, preset="smoke",
                              seed=1, think_time=5.0, capture_trace=trace)
    result = run_experiment(config)
    events = list(read_trace(trace))
    assert len(events) > 0
    assert all(e.template is not None for e in events)
    # queries still in flight when the sim clock runs out carry no
    # outcome; everything resolved is a success or a failure
    assert all(e.outcome in ("succeeded", "failed", None) for e in events)
    assert sum(e.outcome == "succeeded" for e in events) \
        >= result.completed
    assert [e.at for e in events] == sorted(e.at for e in events)
