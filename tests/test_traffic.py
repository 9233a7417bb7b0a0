"""Tests for the open-loop traffic subsystem.

Fast tests cover the arrival generators (seeded determinism, rate
shapes, parameter validation), the streaming trace readers (strict
line-numbered errors, torn-tail tolerance, transforms), the
``TrafficSpec`` axis (validation, JSON round trips, minimal version
stamping) and the ``repro traces`` CLI.  The sim tests drive a real
server open-loop: drop accounting, flash-crowd gateway engage/release,
and — the acceptance pin — canonically byte-identical artifacts for an
open-loop scenario through inline and stream executors.
"""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.admission import ADMITTED_OUTCOMES
from repro.config import paper_server_config
from repro.errors import ConfigurationError
from repro.experiments.runner import make_workload
from repro.scenarios import (
    Expectation,
    ScenarioSpec,
    TrafficSpec,
    VariantSpec,
    jobs_for_scenario,
    run_scenario,
    write_scenario_artifact,
)
from repro.scenarios.library import (
    noisy_neighbor_scenario,
    scale_flood_scenario,
)
from repro.server import DatabaseServer
from repro.traffic import (
    ARRIVAL_FACTORIES,
    Arrival,
    FlashCrowdArrivals,
    OpenLoopGenerator,
    PoissonArrivals,
    TenantMixArrivals,
    TraceEvent,
    make_arrival_process,
    rate_rescale,
    read_trace,
    summarize_trace,
    synthesize_trace,
    template_remap,
    tenant_filter,
    time_window,
    trace_arrivals,
)

from helpers import attach_thread_worker, canonical_text


def schedule(process, seed="s", duration=10_000.0):
    return [a.at for a in process.arrivals(random.Random(seed), duration)]


# ----------------------------------------------------- arrival processes
def test_arrivals_are_seed_deterministic_and_sorted():
    for name, factory in sorted(ARRIVAL_FACTORIES.items()):
        process = (factory(tenants={"a": {"process": "poisson"}})
                   if name == "tenant_mix" else factory())
        first = schedule(process)
        again = schedule(process)
        other = schedule(process, seed="other")
        assert first == again, name
        assert first != other, name
        assert first == sorted(first), name
        assert all(0 <= at < 10_000.0 for at in first), name


def test_poisson_rate_controls_density():
    slow = len(schedule(PoissonArrivals(rate=0.005)))
    fast = len(schedule(PoissonArrivals(rate=0.05)))
    assert 25 <= slow <= 90            # ~50 expected
    assert 350 <= fast <= 650          # ~500 expected
    with pytest.raises(ConfigurationError, match="poisson rate"):
        PoissonArrivals(rate=0)


def test_flash_crowd_concentrates_arrivals_in_spike():
    process = FlashCrowdArrivals(base_rate=0.001, spike_rate=0.2,
                                 spike_at=2000.0, spike_duration=500.0)
    assert process.rate_at(1999.9) == 0.001
    assert process.rate_at(2000.0) == 0.2
    assert process.rate_at(2500.0) == 0.001
    arrivals = schedule(process)
    in_spike = [at for at in arrivals if 2000.0 <= at < 2500.0]
    assert len(in_spike) > len(arrivals) / 2
    # base_rate=0 is a legal "only the spike" shape
    quiet = FlashCrowdArrivals(base_rate=0, spike_rate=0.1,
                               spike_at=100.0, spike_duration=100.0)
    assert all(100.0 <= at < 200.0 for at in schedule(quiet))


def test_tenant_mix_labels_and_tenant_isolation():
    noisy = {"steady": {"process": "poisson", "rate": 0.01},
             "noisy": {"process": "flash_crowd", "spike_at": 100.0}}
    mix = TenantMixArrivals(tenants=noisy)
    arrivals = list(mix.arrivals(random.Random("s"), 5000.0))
    tenants = {a.tenant for a in arrivals}
    assert tenants == {"steady", "noisy"}
    assert [a.at for a in arrivals] == sorted(a.at for a in arrivals)
    # dropping one tenant must not perturb the other's schedule
    solo = TenantMixArrivals(
        tenants={"steady": {"process": "poisson", "rate": 0.01}})
    solo_times = [a.at for a in solo.arrivals(random.Random("s"), 5000.0)]
    mixed_times = [a.at for a in arrivals if a.tenant == "steady"]
    assert solo_times == mixed_times


def test_tenant_mix_rejects_bad_documents():
    with pytest.raises(ConfigurationError, match="non-empty 'tenants'"):
        TenantMixArrivals(tenants={})
    with pytest.raises(ConfigurationError, match="'process' key"):
        TenantMixArrivals(tenants={"a": {"rate": 0.1}})
    with pytest.raises(ConfigurationError, match="cannot nest"):
        TenantMixArrivals(tenants={"a": {
            "process": "tenant_mix",
            "tenants": {"b": {"process": "poisson"}}}})


def test_make_arrival_process_errors_name_the_choices():
    valid = "valid processes: flash_crowd, poisson, tenant_mix$"
    for name in ("bogus", "pareto", "diurnal"):
        with pytest.raises(ConfigurationError, match=valid):
            make_arrival_process(name)
    with pytest.raises(ConfigurationError, match=valid):
        make_arrival_process("tenant_mix",
                             tenants={"a": {"process": "pareto"}})
    with pytest.raises(ConfigurationError, match="bad parameters"):
        make_arrival_process("poisson", rat=0.1)


# ------------------------------------------------------------- traces
def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")
    return str(path)


def test_jsonl_trace_parses_fields_and_line_numbers(tmp_path):
    path = write_lines(
        tmp_path / "t.jsonl",
        '{"t": 1.5, "template": "q1", "tenant": "a"}',
        "",
        '{"t": 2.0}')
    events = list(read_trace(path))
    assert events == [
        TraceEvent(at=1.5, template="q1", tenant="a", line=1),
        TraceEvent(at=2.0, template=None, tenant="default", line=3),
    ]


@pytest.mark.parametrize("line,why", [
    ('{"t": 1, "color": "red"}', r"line 2: unknown field\(s\) color"),
    ('{"template": "q"}', "line 2: missing required field 't'"),
    ('{"t": "soon"}', "line 2: 't' must be a number"),
    ('{"t": -4}', "line 2: 't' must be >= 0"),
    ('{"t": 0.5}', "line 2: out-of-order timestamp"),
    ('[1, 2]', "line 2: event must be a JSON object"),
    ('{"t": 2, "tenant": ""}', "line 2: 'tenant' must be a non-empty"),
    ('{"t": 5, "t": 1}', "line 2: duplicate field 't'"),
    ('{"t": 2, "tenant": "a", "tenant": "b"}',
     "line 2: duplicate field 'tenant'"),
])
def test_jsonl_trace_errors_name_the_line(tmp_path, line, why):
    path = write_lines(tmp_path / "t.jsonl", '{"t": 1.0}', line)
    with pytest.raises(ConfigurationError, match=why):
        list(read_trace(path))


def test_torn_tail_is_opt_in_and_final_only(tmp_path):
    torn = write_lines(tmp_path / "torn.jsonl",
                       '{"t": 1.0}', '{"t": 2.0, "tem')
    with pytest.raises(ConfigurationError,
                       match="line 2: .*tolerate_tail"):
        list(read_trace(torn))
    events = list(read_trace(torn, tolerate_tail=True))
    assert [e.at for e in events] == [1.0]
    # a malformed line followed by more data is never a torn tail
    middle = write_lines(tmp_path / "mid.jsonl",
                         '{"t": 1.0}', '{"t": 2.0, "tem', '{"t": 3.0}')
    with pytest.raises(ConfigurationError, match="line 2"):
        list(read_trace(middle, tolerate_tail=True))


def test_csv_trace_parses_and_validates(tmp_path):
    path = write_lines(tmp_path / "t.csv",
                       "t,template,tenant",
                       "1.5,q1,a",
                       "2.5,,")
    events = list(read_trace(path))
    assert events == [
        TraceEvent(at=1.5, template="q1", tenant="a", line=2),
        TraceEvent(at=2.5, template=None, tenant="default", line=3),
    ]
    bad_header = write_lines(tmp_path / "h.csv", "t,color", "1,red")
    with pytest.raises(ConfigurationError,
                       match=r"line 1: unknown column\(s\) color"):
        list(read_trace(bad_header))
    with pytest.raises(ConfigurationError, match="empty trace"):
        list(read_trace(write_lines(tmp_path / "e.csv")))
    for header, row, key in (("t,t", "1,7", "t"),
                             ("t,tenant,tenant", "1,a,b", "tenant")):
        twice = write_lines(tmp_path / "d.csv", header, row)
        with pytest.raises(ConfigurationError,
                           match=f"line 1: duplicate column '{key}'"):
            list(read_trace(twice))


def test_csv_torn_tail(tmp_path):
    path = write_lines(tmp_path / "t.csv",
                       "t,template,tenant", "1.5,q1,a", "2.5,q2")
    with pytest.raises(ConfigurationError,
                       match="line 3: .*tolerate_tail"):
        list(read_trace(path))
    assert [e.at for e in read_trace(path, tolerate_tail=True)] == [1.5]


@pytest.mark.parametrize("name,lines,line", [
    ("nan.jsonl", ['{"t": 1.0}', '{"t": NaN}', '{"t": 0.5}'], 2),
    ("inf.jsonl", ['{"t": 1.0}', '{"t": Infinity}'], 2),
    ("nan.csv", ["t", "1.0", "nan", "0.5"], 3),
    ("inf.csv", ["t", "1.0", "inf"], 3),
], ids=["nan-jsonl", "inf-jsonl", "nan-csv", "inf-csv"])
def test_trace_rejects_non_finite_timestamps(tmp_path, name, lines, line):
    # a NaN compares false both ways, so it would also slip past the
    # sort check and let the 0.5 after it through
    path = write_lines(tmp_path / name, *lines)
    with pytest.raises(ConfigurationError,
                       match=f"line {line}: 't' must be finite"):
        list(read_trace(path))


def test_read_trace_extension_and_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="unsupported extension"):
        list(read_trace(str(tmp_path / "t.parquet")))
    with pytest.raises(ConfigurationError, match="cannot read trace"):
        list(read_trace(str(tmp_path / "absent.jsonl")))


def test_transforms_compose():
    events = [TraceEvent(at=at, template=f"q{i}", tenant=t, line=i + 1)
              for i, (at, t) in enumerate(
                  [(0.0, "a"), (10.0, "b"), (20.0, "a"), (30.0, "b")])]
    windowed = list(time_window(events, 10.0, 30.0))
    assert [e.at for e in windowed] == [0.0, 10.0]  # rebased
    assert [e.tenant for e in tenant_filter(events, ["a"])] == ["a", "a"]
    assert [e.at for e in rate_rescale(events, 2.0)] \
        == [0.0, 5.0, 10.0, 15.0]
    remapped = list(template_remap(events, {"q1": "qx"}))
    assert [e.template for e in remapped] == ["q0", "qx", "q2", "q3"]
    with pytest.raises(ConfigurationError, match="factor"):
        list(rate_rescale(events, 0))


def test_trace_arrivals_applies_spec_transforms(tmp_path):
    write_lines(tmp_path / "t.jsonl",
                '{"t": 100, "template": "old", "tenant": "a"}',
                '{"t": 200, "tenant": "b"}',
                '{"t": 300, "template": "old", "tenant": "a"}')
    spec = TrafficSpec(trace="t.jsonl", window=(100.0, 301.0),
                       tenants=("a",), remap={"old": "new"},
                       rate_scale=2.0)
    arrivals = list(trace_arrivals(spec, base=str(tmp_path)))
    assert arrivals == [Arrival(at=0.0, tenant="a", template="new"),
                        Arrival(at=100.0, tenant="a", template="new")]


def test_synthesize_then_replay_roundtrips_schedule(tmp_path):
    path = str(tmp_path / "synth.jsonl")
    process = PoissonArrivals(rate=0.01)
    workload = make_workload("sales")
    count = synthesize_trace(path, process, duration=5000.0, seed=7,
                             workload=workload, tenant="acme")
    events = list(read_trace(path))
    assert len(events) == count > 0
    expected = [round(a.at, 6) for a in process.arrivals(
        random.Random("7/synth/arrivals"), 5000.0)]
    assert [e.at for e in events] == expected
    assert {e.tenant for e in events} == {"acme"}
    assert {e.template for e in events} <= set(workload.template_names())
    summary = summarize_trace(path)
    assert summary["events"] == count
    assert summary["tenants"] == {"acme": count}
    with pytest.raises(ConfigurationError, match="JSONL"):
        synthesize_trace(str(tmp_path / "t.csv"), process, 100.0)


def test_example_trace_validates_and_is_multi_tenant():
    summary = summarize_trace("examples/sample_trace.jsonl")
    assert summary["events"] >= 20
    assert set(summary["tenants"]) == {"alpha", "beta"}
    assert summary["templates"]


# --------------------------------------------------------- TrafficSpec
def test_traffic_spec_needs_exactly_one_source():
    with pytest.raises(ConfigurationError, match="exactly one source"):
        TrafficSpec()
    with pytest.raises(ConfigurationError, match="exactly one source"):
        TrafficSpec(arrivals="poisson", trace="t.jsonl")


def test_traffic_spec_validates_at_definition_time():
    with pytest.raises(ConfigurationError, match="valid processes"):
        TrafficSpec(arrivals="bogus")
    with pytest.raises(ConfigurationError, match="must be >= base_rate"):
        TrafficSpec(arrivals="flash_crowd",
                    params={"base_rate": 0.1, "spike_rate": 0.05})
    with pytest.raises(ConfigurationError, match="transforms a trace"):
        TrafficSpec(arrivals="poisson", window=(0.0, 10.0))
    with pytest.raises(ConfigurationError, match="rate_scale"):
        TrafficSpec(arrivals="poisson", rate_scale=0)
    with pytest.raises(ConfigurationError, match="max_sessions"):
        TrafficSpec(arrivals="poisson", max_sessions=0)
    with pytest.raises(ConfigurationError, match="queue_limit"):
        TrafficSpec(arrivals="poisson", queue_limit=-1)
    with pytest.raises(ConfigurationError, match="queue_timeout"):
        TrafficSpec(arrivals="poisson", queue_timeout=0)
    with pytest.raises(ConfigurationError, match="window start"):
        TrafficSpec(trace="t.jsonl", window=(10.0, 10.0))
    with pytest.raises(ConfigurationError, match="trace replay"):
        TrafficSpec(trace="t.jsonl", params={"rate": 2.0})


def test_traffic_spec_roundtrips_and_is_hashable():
    spec = TrafficSpec(arrivals="tenant_mix", params={
        "tenants": {"a": {"process": "poisson", "rate": 0.01},
                    "b": {"process": "flash_crowd"}}},
        max_sessions=4, queue_limit=2)
    rebuilt = TrafficSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec
    assert hash(rebuilt) == hash(spec)
    trace = TrafficSpec(trace="t.jsonl", window=(0.0, 10.0),
                        tenants=("a",), remap={"x": "y"}, rate_scale=2.0,
                        tolerate_tail=True)
    assert TrafficSpec.from_dict(
        json.loads(json.dumps(trace.to_dict()))) == trace
    with pytest.raises(ConfigurationError, match="unknown traffic"):
        TrafficSpec.from_dict({"arrivals": "poisson", "burst": True})
    assert spec.build_arrivals().name == "tenant_mix"


def burst_spec(scenario_id, traffic, **overrides):
    defaults = dict(
        scenario_id=scenario_id, title="Open-loop test", family="test",
        workload="oltp", clients=2, preset="smoke", seed=1,
        traffic=traffic,
        variants=(VariantSpec("run"),),
        expect=(Expectation("openloop.offered", ">", 0, variant="run"),))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_scenario_version_stamping_is_minimal():
    closed = ScenarioSpec(scenario_id="closed", title="t", family="test")
    doc = closed.to_dict()
    assert doc["version"] == 2
    assert "traffic" not in doc
    open_loop = burst_spec("open", TrafficSpec(arrivals="poisson"))
    doc = open_loop.to_dict()
    assert doc["version"] == 3
    assert doc["traffic"] == {"arrivals": "poisson"}
    rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(doc)))
    assert rebuilt.traffic == open_loop.traffic
    assert rebuilt == open_loop


def test_traffic_axis_requires_experiment_kind():
    with pytest.raises(ConfigurationError, match="traffic"):
        ScenarioSpec(scenario_id="m", title="t", family="test",
                     kind="monitors", render="monitors",
                     traffic=TrafficSpec(arrivals="poisson"))


# ------------------------------------------------------- open-loop sim
def open_loop_run(traffic, workload="oltp", duration=2400.0, seed=5,
                  clients=4, throttling=True, trace_base=None):
    wl = make_workload(workload)
    server = DatabaseServer(paper_server_config(throttling=throttling),
                            wl.build_catalog())
    generator = OpenLoopGenerator(server, wl, traffic=traffic,
                                  duration=duration, seed=seed,
                                  clients=clients, trace_base=trace_base)
    generator.run()
    return server, generator


def test_open_loop_facts_are_deterministic():
    traffic = TrafficSpec(arrivals="poisson", params={"rate": 0.01})
    _, first = open_loop_run(traffic)
    _, again = open_loop_run(traffic)
    assert first.stats.offered > 0
    assert first.stats.admitted <= first.stats.offered
    assert first.facts() == again.facts()
    totals = first.totals()
    assert totals.submitted == first.stats.admitted
    assert totals.retries == 0
    facts = first.facts()
    assert {"offered", "admitted", "dropped", "dropped_queue",
            "dropped_timeout", "max_sessions", "queue_wait_p50",
            "queue_wait_p90", "queue_wait_max"} <= set(facts)
    # single-tenant runs carry no per-tenant breakdown
    assert not any(key.startswith("tenant.") for key in facts)


def test_open_loop_drops_when_admission_saturates():
    traffic = TrafficSpec(
        arrivals="flash_crowd",
        params={"base_rate": 0, "spike_rate": 0.5, "spike_at": 10.0,
                "spike_duration": 60.0},
        max_sessions=1, queue_limit=0, queue_timeout=30.0)
    _, generator = open_loop_run(traffic)
    stats = generator.stats
    assert stats.offered > 5
    assert stats.dropped_queue > 0
    assert stats.admitted + stats.dropped <= stats.offered
    assert generator.facts()["max_sessions"] == 1.0


def test_trace_replay_runs_named_templates(tmp_path):
    workload = make_workload("oltp")
    names = workload.template_names()
    path = write_lines(
        tmp_path / "replay.jsonl",
        json.dumps({"t": 5.0, "template": names[0], "tenant": "a"}),
        json.dumps({"t": 15.0, "template": names[-1], "tenant": "b"}),
        json.dumps({"t": 25.0, "template": "unknown-template"}))
    traffic = TrafficSpec(trace="replay.jsonl")
    server, generator = open_loop_run(traffic, duration=1200.0,
                                      trace_base=str(tmp_path))
    assert generator.stats.offered == 3
    assert generator.stats.admitted == 3
    templates = [r.template for r in server.metrics.records]
    assert templates[:2] == [names[0], names[-1]]
    # an unknown template falls back to a generated query, not a crash
    assert len(templates) == 3
    facts = generator.facts()
    assert facts["tenant.a.offered"] == 1.0
    assert facts["tenant.b.offered"] == 1.0


@pytest.mark.parametrize("spec,admission,duration", [
    # burst-noisy's tenant mix on two slots and a short queue
    (noisy_neighbor_scenario(),
     {"max_sessions": 2, "queue_limit": 2, "queue_timeout": 60.0},
     3000.0),
    # a 400-session flood offered to 16 slots
    (scale_flood_scenario(sessions=400),
     {"max_sessions": 16, "queue_limit": 2}, 1200.0),
], ids=["burst-noisy", "flood"])
def test_open_loop_accounting_is_conserved(spec, admission, duration):
    spec = replace(spec, traffic=replace(spec.traffic, **admission))
    config = jobs_for_scenario(spec)[0].config
    workload = config.build_workload()
    with DatabaseServer(config.build_server_config(),
                        workload.build_catalog()) as server:
        generator = OpenLoopGenerator(
            server, workload, traffic=config.traffic, duration=duration,
            seed=config.seed, clients=config.clients, capture=True)
        generator.run()
    stats = generator.stats
    assert stats.dropped_queue > 0 and stats.dropped_timeout > 0
    outcomes = Counter(generator.outcomes)
    assert stats.offered == (stats.admitted + stats.dropped_queue
                             + stats.dropped_timeout + outcomes["queued"])
    assert stats.admitted == (stats.succeeded + stats.failed
                              + outcomes["admitted"])
    assert sum(stats.offered_by_tenant.values()) == stats.offered
    assert len(stats.queue_waits) == stats.admitted
    # the captured outcomes, recounted, say what facts() says
    events = list(generator.captured_events())
    captured = Counter(event["outcome"] for event in events)
    facts = generator.facts()
    assert facts["offered"] == len(events)
    assert facts["admitted"] == sum(captured[o] for o in ADMITTED_OUTCOMES)
    assert facts["dropped_queue"] == captured["dropped_queue"]
    assert facts["dropped_timeout"] == captured["dropped_timeout"]
    assert facts["dropped"] == stats.dropped
    if len(stats.offered_by_tenant) > 1:
        by_tenant = Counter(
            (event.get("tenant", "default"), event["outcome"].startswith(
                "dropped")) for event in events)
        for tenant in stats.offered_by_tenant:
            assert facts[f"tenant.{tenant}.offered"] == (
                by_tenant[tenant, True] + by_tenant[tenant, False])
            assert facts[f"tenant.{tenant}.dropped"] == \
                by_tenant[tenant, True]


@pytest.mark.slow
def test_flash_crowd_engages_and_releases_gateways():
    """Satellite pin: a flash-crowd spike pushes compilations through
    the gateway ladder (acquires observed) and the system drains —
    every gateway idle, the broker still sweeping — once it passes."""
    traffic = TrafficSpec(
        arrivals="flash_crowd",
        params={"base_rate": 0, "spike_rate": 0.1, "spike_at": 30.0,
                "spike_duration": 120.0},
        max_sessions=4, queue_limit=16, queue_timeout=600.0)
    server, generator = open_loop_run(traffic, workload="sales",
                                      duration=2400.0)
    assert generator.stats.offered > 3
    assert generator.stats.succeeded > 0
    acquires = sum(g.stats.acquires for g in server.governor.gateways)
    assert acquires > 0, "spike never engaged the gateway ladder"
    for gateway in server.governor.gateways:
        assert gateway.active == 0, f"{gateway.name} never released"
        assert gateway.waiting == 0
    assert server.broker.sweeps > 0


@pytest.mark.slow
def test_open_loop_scenario_byte_identical_across_executors(tmp_path):
    """Acceptance pin: the same open-loop scenario through the inline
    and stream executors writes canonically byte-identical artifacts —
    the arrival schedule is seed-deterministic, never wall-clock or
    worker driven."""
    from repro.experiments.executors import InlineExecutor, StreamExecutor

    spec = burst_spec(
        "traffic-equiv",
        TrafficSpec(arrivals="flash_crowd",
                    params={"base_rate": 0, "spike_rate": 0.02,
                            "spike_at": 600.0, "spike_duration": 400.0},
                    queue_limit=4, queue_timeout=120.0))

    inline_dir = tmp_path / "inline"
    write_scenario_artifact(
        str(inline_dir), run_scenario(spec, executor=InlineExecutor()))

    stream_dir = tmp_path / "stream"
    stream = StreamExecutor(timeout=300)
    threads = [attach_thread_worker(stream) for _ in range(2)]
    try:
        result = run_scenario(spec, executor=stream)
        write_scenario_artifact(str(stream_dir), result)
    finally:
        stream.close()
    for thread in threads:
        thread.join(timeout=10)

    assert result.ok, result.render()
    name = "BENCH_scenario_traffic-equiv.json"
    assert canonical_text(inline_dir / name) \
        == canonical_text(stream_dir / name)
    doc = json.loads((inline_dir / name).read_text(encoding="utf-8"))
    summary = doc["results"]["run"]
    assert summary["open_loop"]["offered"] > 0
    assert doc["spec"]["version"] == 3
    assert doc["spec"]["traffic"]["arrivals"] == "flash_crowd"


@pytest.mark.slow
def test_closed_loop_artifacts_carry_no_traffic_keys(tmp_path):
    """The no-regression pin: without a traffic axis neither the
    config document nor the summary grows new keys."""
    spec = ScenarioSpec(scenario_id="closed-pin", title="t",
                        family="test", workload="oltp", clients=2,
                        preset="smoke", seed=1,
                        variants=(VariantSpec("run"),))
    path = write_scenario_artifact(str(tmp_path), run_scenario(spec))
    doc = json.loads(open(path, encoding="utf-8").read())
    summary = doc["results"]["run"]
    assert "open_loop" not in summary
    assert "traffic" not in summary["config"]
    assert doc["spec"]["version"] == 2


# ----------------------------------------------------------------- CLI
def test_cli_traces_synth_validate_summarize(tmp_path, capsys):
    from repro import cli

    out = str(tmp_path / "cli.jsonl")
    assert cli.main(["traces", "synth", "--out", out,
                     "--arrivals", "flash_crowd",
                     "--param", "spike_at=100", "--param", "base_rate=0",
                     "--duration", "600", "--workload", "sales",
                     "--tenant", "acme"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert cli.main(["traces", "validate", out]) == 0
    assert "valid" in capsys.readouterr().out
    assert cli.main(["traces", "summarize", out]) == 0
    output = capsys.readouterr().out
    assert "acme" in output and "mean rate" in output


def test_cli_traces_errors_exit_2(tmp_path, capsys):
    from repro import cli

    torn = write_lines(tmp_path / "torn.jsonl",
                       '{"t": 1.0}', '{"t": 2.0, "tem')
    assert cli.main(["traces", "validate", torn]) == 2
    assert "line 2" in capsys.readouterr().err
    assert cli.main(["traces", "validate", torn, "--tolerate-tail"]) == 0
    capsys.readouterr()
    assert cli.main(["traces", "synth", "--out", str(tmp_path / "x.jsonl"),
                     "--arrivals", "poisson", "--param", "rate=nope"]) == 2
    assert "poisson rate" in capsys.readouterr().err


def test_cli_scenarios_run_example_burst_file(capsys):
    """The shipped example spec parses and resolves its relative trace
    against the spec file's directory (describe validates without
    running the experiment)."""
    from repro import cli

    assert cli.main(["scenarios", "describe", "--scenario",
                     "examples/burst_scenario.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 3
    assert doc["traffic"]["trace"].endswith("sample_trace.jsonl")
    assert doc["scenario_id"] == "burst-replay"


def test_burst_family_is_registered():
    from repro.scenarios import get_scenario

    flash = get_scenario("burst-flash")
    assert flash.family == "burst"
    assert flash.traffic is not None
    assert flash.traffic.arrivals == "flash_crowd"
    noisy = get_scenario("burst-noisy")
    assert noisy.traffic.arrivals == "tenant_mix"
    assert any(e.metric.startswith("openloop.tenant.")
               for e in noisy.expect)
