"""Tests for the compilation pipeline (throttled compile process)."""

import pytest

from repro.config import paper_server_config
from repro.errors import CompileOutOfMemoryError, GatewayTimeoutError
from repro.optimizer.selection import CostBasedSelection
from repro.server import DatabaseServer
from repro.units import MiB
from tests.conftest import build_star_catalog, STAR_QUERY


def make_server(throttling=True, physical=None, **kwargs):
    config = paper_server_config(throttling=throttling)
    if physical is not None:
        from dataclasses import replace
        config = replace(config,
                         hardware=replace(config.hardware,
                                          physical_memory=physical))
    return DatabaseServer(config, build_star_catalog())


def test_compile_produces_plan_and_frees_memory(env):
    server = make_server()

    def run(env):
        compiled = yield from server.pipeline.compile(STAR_QUERY, "q1")
        return compiled

    p = server.env.process(run(server.env))
    server.env.run()
    compiled = p.value
    assert compiled.plan is not None
    assert compiled.peak_memory > 0
    assert compiled.compile_time > 0
    assert not compiled.degraded
    # "At the end of compilation, memory used in the process is freed"
    assert server.compile_clerk.used == 0
    assert server.pipeline.active == 0
    assert not server.pipeline.live_accounts


def test_compile_acquires_gateways_when_large(env):
    server = make_server()

    def run(env):
        yield from server.pipeline.compile(STAR_QUERY, "q1")

    server.env.process(run(server.env))
    server.env.run()
    small = server.governor.gateways[0]
    # the star query is past the small threshold
    assert small.stats.acquires >= 1
    assert small.active == 0  # released afterwards


def _hog_all_memory_mid_compile(server, label):
    """Helper process: once the traced compilation has allocated its
    first bytes, grab every remaining byte of physical memory so the
    next optimizer allocation must fail."""
    env = server.env
    while True:
        account = server.pipeline.live_accounts.get(label)
        if account is not None and account.used > 0:
            break
        yield env.timeout(0.05)
    hog = server.memory.clerk("hog")
    hog.allocate(server.memory.available)


def test_compile_oom_without_fallback_raises():
    """With best-plan-so-far disabled, running out of memory mid-
    optimization is a hard compile failure."""
    server = make_server()
    server.pipeline.best_plan_so_far = False

    def run(env):
        try:
            yield from server.pipeline.compile(STAR_QUERY, "q1")
        except CompileOutOfMemoryError:
            return "oom"

    p = server.env.process(run(server.env))
    server.env.process(_hog_all_memory_mid_compile(server, "q1"))
    server.env.run()
    assert p.value == "oom"
    assert server.pipeline.oom_failures == 1
    assert server.compile_clerk.used == 0


def test_compile_oom_with_fallback_degrades():
    """With the extension on, memory exhaustion returns the best plan
    found so far instead of an error (once stage 0 has finished)."""
    server = make_server()

    def run(env):
        compiled = yield from server.pipeline.compile(STAR_QUERY, "q1")
        return compiled

    p = server.env.process(run(server.env))
    server.env.process(_hog_all_memory_mid_compile(server, "q1"))
    server.env.run()
    compiled = p.value
    assert compiled.degraded
    assert compiled.plan is not None
    assert server.pipeline.degraded_plans == 1


def test_soft_grant_denial_degrades_instead_of_oom():
    """Regression: the broker→compilation handshake.  A soft-grant
    denial must yield a degraded plan, never a compile_oom error."""
    server = make_server()
    denials = []

    def deny_growth(clerk, nbytes):
        # simulate broker pressure: refuse any optimizer growth once
        # the task got past stage 0 (the star query peaks ~1.5 MiB)
        if clerk.used > 1 * MiB:
            denials.append(nbytes)
            return False
        return True

    server.compile_clerk.advisor = deny_growth

    def run(env):
        compiled = yield from server.pipeline.compile(STAR_QUERY, "q1")
        return compiled

    p = server.env.process(run(server.env))
    server.env.run()
    compiled = p.value
    assert denials, "advisor never consulted"
    assert compiled.degraded
    assert compiled.plan is not None
    assert server.pipeline.soft_denials >= 1
    assert server.pipeline.oom_failures == 0
    assert server.compile_clerk.used == 0


def test_essential_allocation_waits_for_memory():
    """An OOM before any fallback plan exists must wait for memory to
    be freed and retry instead of failing the compilation."""
    server = make_server()
    env = server.env
    hog = server.memory.clerk("hog")
    hog.allocate(server.memory.available)  # nothing free at t=0

    def run(env):
        compiled = yield from server.pipeline.compile(STAR_QUERY, "q1")
        return compiled

    def release_later(env):
        yield env.timeout(30.0)
        hog.free_all()

    p = env.process(run(env))
    env.process(release_later(env))
    env.run()
    compiled = p.value
    assert compiled.plan is not None
    assert server.pipeline.oom_waits > 0
    assert server.pipeline.oom_failures == 0


def test_search_replay_reproduces_compile():
    """A re-compiled text replays the recorded optimizer search with an
    identical outcome."""
    server = make_server()
    outcomes = []

    def run(env, label):
        compiled = yield from server.pipeline.compile(STAR_QUERY, label)
        outcomes.append(compiled)

    # three sequential compiles of the same text: the first marks the
    # text as seen, the second records, the third replays
    for i in range(3):
        server.env.process(run(server.env, f"q{i}"))
        server.env.run()
    assert server.pipeline.search_replays == 1
    costs = {c.estimated_cost for c in outcomes}
    peaks = {c.peak_memory for c in outcomes}
    assert len(costs) == 1 and len(peaks) == 1


def test_live_accounts_visible_during_compilation():
    server = make_server()
    seen = []

    def run(env):
        yield from server.pipeline.compile(STAR_QUERY, "traced")

    def watcher(env):
        while server.pipeline.active == 0:
            yield env.timeout(0.1)
        account = server.pipeline.live_accounts.get("traced")
        seen.append(account.used if account else None)

    server.env.process(run(server.env))
    server.env.process(watcher(server.env))
    server.env.run()
    assert seen and seen[0] is not None


def test_parse_error_propagates():
    server = make_server()

    def run(env):
        try:
            yield from server.pipeline.compile("SELEKT broken", "bad")
        except Exception as exc:
            return type(exc).__name__

    p = server.env.process(run(server.env))
    server.env.run()
    assert p.value == "SqlSyntaxError"
    assert server.pipeline.active == 0
    assert server.compile_clerk.used == 0


def test_a_crash_in_a_suspended_search_is_not_a_compile_oom(monkeypatch):
    """A replay that runs past its recording's prefix resumes the
    suspended search; a host bug there surfaces as itself, never as a
    simulated out-of-memory failure."""
    server = make_server()
    pipeline = server.pipeline
    pipeline.record_all_searches = True
    outcomes = []

    def run(env, label):
        try:
            outcomes.append((yield from pipeline.compile(STAR_QUERY, label)))
        except Exception as exc:
            outcomes.append(exc)

    # growth past stage 0 is denied: the first compile takes its best
    # plan so far and leaves the rest of its search suspended
    server.compile_clerk.advisor = lambda clerk, nbytes: clerk.used <= MiB
    server.env.process(run(server.env, "first"))
    server.env.run()
    assert outcomes[0].degraded
    recording = pipeline._search_cache[STAR_QUERY]
    assert recording._iter is not None

    def crash(self, task, root_gid, stage):
        raise ZeroDivisionError("host bug in an implementation pass")

    monkeypatch.setattr(CostBasedSelection, "implement", crash)
    server.compile_clerk.advisor = None
    server.env.process(run(server.env, "replay"))
    server.env.run()
    assert pipeline.search_replays == 1
    assert isinstance(outcomes[1], ZeroDivisionError)
    assert pipeline.oom_failures == 0
    # the crashed tail is forgotten, not replayed as a dead end
    assert not recording.usable()
    assert pipeline.active == 0 and server.compile_clerk.used == 0
