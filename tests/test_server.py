"""Integration tests: the whole server, end to end."""

import random

import pytest

from repro.config import paper_server_config
from repro.server import DatabaseServer
from repro.workload import LoadGenerator, OltpWorkload, SalesWorkload
from tests.conftest import build_star_catalog, STAR_QUERY


def make_server(throttling=True):
    config = paper_server_config(throttling=throttling)
    return DatabaseServer(config, build_star_catalog())


def test_single_query_end_to_end():
    server = make_server()
    outcome = server.execute_sync(STAR_QUERY)
    assert outcome.ok, outcome.error_message
    assert outcome.compile_time > 0
    assert outcome.execution_time > 0
    assert not outcome.cached_plan
    assert outcome.output_rows > 0


def test_dmv_summary_surfaces_pipeline_counters():
    """Scenario assertions read search_replays/soft_denials from the
    DMV summary; the rendered report carries them too."""
    server = make_server()
    server.execute_sync(STAR_QUERY)
    summary = server.views().summary()
    for counter in ("search_replays", "soft_denials",
                    "degraded_plans", "active_compilations"):
        assert counter in summary
    report = server.views().report()
    assert "search replays" in report
    assert "soft denials" in report


def test_dmv_snapshot_is_json_ready():
    """snapshot() must serialize as-is and mirror the individual views."""
    import json

    server = make_server()
    server.execute_sync(STAR_QUERY)
    snapshot = server.views().snapshot()
    round_tripped = json.loads(json.dumps(snapshot))
    assert set(round_tripped) == {"summary", "memory_clerks",
                                  "memory_gateways", "grant_queue",
                                  "compilations"}
    assert round_tripped["summary"] == server.views().summary()
    clerk_names = {row["name"] for row in round_tripped["memory_clerks"]}
    assert "compilation" in clerk_names
    assert len(round_tripped["memory_gateways"]) == 3


def test_plan_cache_hit_on_repeat():
    server = make_server()
    first = server.execute_sync(STAR_QUERY)
    second = server.execute_sync(STAR_QUERY)
    assert first.ok and second.ok
    assert not first.cached_plan
    assert second.cached_plan
    assert second.compile_time == 0.0
    assert server.plan_cache.hits == 1


def test_uniquified_text_misses_cache():
    server = make_server()
    a = server.execute_sync(f"/* adhoc 1 */ {STAR_QUERY}")
    b = server.execute_sync(f"/* adhoc 2 */ {STAR_QUERY}")
    assert a.ok and b.ok
    assert not b.cached_plan


def test_failed_query_returns_outcome_not_exception():
    server = make_server()
    outcome = server.execute_sync("SELECT broken FROM nowhere")
    assert not outcome.ok
    assert outcome.error_kind == "bind_error"


def test_concurrent_queries_all_complete():
    server = make_server()
    server.start()
    rng = random.Random(5)
    processes = []
    for i in range(6):
        text = f"/* adhoc {rng.random()} */ {STAR_QUERY}"
        processes.append(server.submit(text, label=f"c{i}"))
    server.env.run(until=4000.0)
    outcomes = [p.value for p in processes if not p.is_alive]
    assert len(outcomes) == 6
    assert all(o.ok for o in outcomes)


def test_throttling_disabled_keeps_gateways_idle():
    server = make_server(throttling=False)
    outcome = server.execute_sync(STAR_QUERY)
    assert outcome.ok
    assert all(g.stats.acquires == 0 for g in server.governor.gateways)


def test_load_generator_drives_server():
    workload = OltpWorkload(scale=0.01)
    config = paper_server_config(throttling=True)
    server = DatabaseServer(config, workload.build_catalog())
    generator = LoadGenerator(server, workload, clients=4, duration=600.0,
                              seed=9, think_time=5.0)
    generator.run()
    totals = generator.totals()
    assert totals.submitted > 10
    assert totals.succeeded > 0
    # at most one in-flight query per client when the clock stops
    in_flight = totals.submitted - (totals.succeeded + totals.failed)
    assert 0 <= in_flight <= 4
    assert server.metrics.successes() == totals.succeeded


def test_oltp_queries_stay_below_medium_gateway():
    """OLTP compiles belong to the small category (paper §4.1)."""
    workload = OltpWorkload(scale=0.01)
    server = DatabaseServer(paper_server_config(True),
                            workload.build_catalog())
    generator = LoadGenerator(server, workload, clients=4, duration=400.0,
                              seed=3, think_time=5.0)
    generator.run()
    assert server.metrics.successes() > 0
    medium, big = server.governor.gateways[1:]
    assert medium.stats.acquires == 0
    assert big.stats.acquires == 0


def test_server_tick_populates_memory_metrics():
    server = make_server()
    server.start()
    server.submit(STAR_QUERY)
    server.env.run(until=100.0)
    assert "compilation" in server.metrics.memory
    assert len(server.metrics.total_memory) > 0


def _idle_server(env, **broker):
    from dataclasses import replace

    config = paper_server_config(throttling=True)
    config = replace(config, broker=replace(config.broker, **broker))
    server = DatabaseServer(config, build_star_catalog(), env=env)
    server.start()
    return server


def test_idle_server_schedules_one_event_per_broker_interval():
    from tests.test_sim_hold import CountingEnvironment

    env = CountingEnvironment()
    _idle_server(env)
    env.run(until=10.5)
    before = env.scheduled
    env.run(until=110.5)
    assert env.scheduled - before == 100


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("interval", [1.0, 0.5])
def test_tick_sweeps_then_samples_at_the_broker_interval(enabled, interval):
    from repro.sim import Environment

    server = _idle_server(Environment(), enabled=enabled, interval=interval)
    samples = []
    if enabled:
        # each sample sees the sweep of its own tick
        sweep = server.broker.sweep

        def spy(*args):
            notified = sweep(*args)
            samples.append(len(server.metrics.total_memory))
            return notified

        server.broker.sweep = spy
    server.env.run(until=4.25)
    ticks = int(4.25 / interval)
    assert server.broker.sweeps == (ticks if enabled else 0)
    assert list(server.metrics.total_memory.times) == [
        interval * k for k in range(1, ticks + 1)]
    if enabled:
        assert samples == list(range(ticks))


def test_tick_reads_usage_once_unless_the_sweep_notified():
    from repro.sim import Environment

    server = _idle_server(Environment())
    reads, notified = [], []
    usage_by_clerk = server.memory.usage_by_clerk
    sweep = server.broker.sweep

    def counted():
        reads.append(server.env.now)
        return usage_by_clerk()

    def spy(usage):
        notified.append(sweep(usage))
        return notified[-1]

    server.memory.usage_by_clerk = counted
    server.broker.sweep = spy
    server.env.run(until=30.5)
    assert len(notified) == 30
    assert notified[0] is True  # every clerk's first GROW
    assert not any(notified[1:])
    assert len(reads) == 30 + sum(notified)


def test_tick_sample_sees_what_notification_handlers_changed():
    from repro.sim import Environment
    from repro.units import MiB

    server = _idle_server(Environment())
    side = server.memory.clerk("side")
    # the first sweep tells the new clerk GROW; its handler allocates
    server.broker.subscribe("side", lambda note: side.allocate(MiB))
    server.env.run(until=1.5)
    assert server.metrics.memory["side"].values == [float(MiB)]
