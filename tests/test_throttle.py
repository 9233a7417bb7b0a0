"""Tests for gateways and the compilation governor (paper §4)."""

import pytest

from repro.config import GatewayConfig, ThrottleConfig, default_gateways
from repro.errors import ConfigurationError, GatewayTimeoutError
from repro.sim import Environment
from repro.throttle import CompilationGovernor, Gateway, ThrottleTicket
from repro.units import KiB, MiB


# ------------------------------------------------------------------ gateway
def test_gateway_admits_up_to_capacity(env):
    gw = Gateway(env, "small", capacity=2, timeout=100)
    granted = []

    def worker(env, name):
        req = yield from gw.acquire()
        granted.append((name, env.now))
        yield env.timeout(10)
        gw.release(req)

    for name in ("a", "b", "c"):
        env.process(worker(env, name))
    env.run()
    assert [g[0] for g in granted] == ["a", "b", "c"]
    assert granted[2][1] == pytest.approx(10.0)
    assert gw.stats.acquires == 3
    assert gw.stats.total_wait == pytest.approx(10.0)


def test_gateway_timeout_raises(env):
    gw = Gateway(env, "big", capacity=1, timeout=5)

    def holder(env):
        req = yield from gw.acquire()
        yield env.timeout(100)
        gw.release(req)

    def victim(env):
        try:
            yield from gw.acquire()
        except GatewayTimeoutError as exc:
            return (env.now, exc.gateway_name)

    env.process(holder(env))
    p = env.process(victim(env))
    env.run()
    assert p.value == (5.0, "big")
    assert gw.stats.timeouts == 1


# ----------------------------------------------------------------- governor
def make_governor(env, enabled=True, dynamic=True, cpus=2):
    config = ThrottleConfig(enabled=enabled, dynamic_thresholds=dynamic)
    return CompilationGovernor(env, config, cpus=cpus)


def test_required_level_follows_thresholds(env):
    governor = make_governor(env)
    t0, t1, t2 = governor.thresholds
    assert governor.required_level(0) == 0
    assert governor.required_level(t0) == 0
    assert governor.required_level(t0 + 1) == 1
    assert governor.required_level(t1 + 1) == 2
    assert governor.required_level(t2 + 1) == 3


def test_capacities_follow_paper_ladder(env):
    governor = make_governor(env, cpus=8)
    assert [g.capacity for g in governor.gateways] == [32, 8, 1]


def test_ensure_acquires_in_order_and_release_reverses(env):
    governor = make_governor(env)
    ticket = ThrottleTicket("q")

    def compile_task(env):
        yield from governor.ensure(ticket, 50 * MiB)  # small + medium
        assert ticket.level == 2
        assert governor.gateways[0].active == 1
        assert governor.gateways[1].active == 1
        yield from governor.ensure(ticket, 200 * MiB)  # + big
        assert ticket.level == 3
        governor.release(ticket)
        assert ticket.level == 0
        assert all(g.active == 0 for g in governor.gateways)

    env.process(compile_task(env))
    env.run()


def test_disabled_governor_never_blocks(env):
    governor = make_governor(env, enabled=False)
    ticket = ThrottleTicket("q")

    def task(env):
        yield from governor.ensure(ticket, 500 * MiB)
        return ticket.level

    p = env.process(task(env))
    env.run()
    assert p.value == 0


def test_big_gateway_serializes(env):
    governor = make_governor(env, cpus=2)
    order = []

    def big_task(env, name, hold):
        ticket = ThrottleTicket(name)
        yield from governor.ensure(ticket, 200 * MiB)
        order.append((name, env.now))
        yield env.timeout(hold)
        governor.release(ticket)

    env.process(big_task(env, "q1", 10))
    env.process(big_task(env, "q2", 10))
    env.run()
    assert order[0][1] == 0.0
    assert order[1][1] == pytest.approx(10.0)


def test_census_counts_categories(env):
    governor = make_governor(env, cpus=4)

    def task(env, nbytes):
        ticket = ThrottleTicket()
        yield from governor.ensure(ticket, nbytes)
        yield env.timeout(100)
        governor.release(ticket)

    env.process(task(env, 10 * MiB))    # small
    env.process(task(env, 10 * MiB))    # small
    env.process(task(env, 100 * MiB))   # medium
    env.process(task(env, 300 * MiB))   # big
    env.run(until=1)
    census = governor.census()
    assert census == [2, 1, 1]


def test_dynamic_thresholds_formula(env):
    """threshold_medium = target * F_small / S_small (paper §4.1)."""
    governor = make_governor(env, cpus=4)

    def task(env, nbytes):
        ticket = ThrottleTicket()
        yield from governor.ensure(ticket, nbytes)
        yield env.timeout(100)
        governor.release(ticket)

    for _ in range(3):
        env.process(task(env, 10 * MiB))  # three small compilations
    env.run(until=1)
    # small target, so the formula is not clamped by the static ladder
    target = 200 * MiB
    governor.set_compile_target(target)
    expected_medium = int(target * governor.config.small_fraction / 3)
    assert governor.thresholds[1] == expected_medium
    assert governor.recomputations == 1


def test_dynamic_thresholds_only_tighten(env):
    governor = make_governor(env, cpus=2)
    governor.set_compile_target(100 * 1024 * MiB)  # absurdly large target
    assert governor.thresholds[1] <= governor.static_thresholds[1]
    assert governor.thresholds[2] <= governor.static_thresholds[2]


def test_dynamic_thresholds_respect_floor_and_order(env):
    governor = make_governor(env, cpus=2)
    governor.set_compile_target(1)  # absurdly small target
    t = governor.thresholds
    assert t[0] < t[1] < t[2]
    assert t[1] >= governor.config.min_dynamic_threshold


def test_none_target_restores_static_ladder(env):
    governor = make_governor(env, cpus=2)
    governor.set_compile_target(100 * MiB)
    governor.set_compile_target(None)
    assert governor.thresholds == list(governor.static_thresholds)


def test_dynamic_disabled_keeps_static(env):
    governor = make_governor(env, dynamic=False)
    governor.set_compile_target(10 * MiB)
    assert governor.thresholds == list(governor.static_thresholds)


def test_describe_mentions_all_gateways(env):
    governor = make_governor(env)
    text = governor.describe()
    for name in ("small", "medium", "big"):
        assert name in text


def test_threshold_order_validated():
    bad = (GatewayConfig(name="a", threshold=10 * MiB),
           GatewayConfig(name="b", threshold=5 * MiB))
    with pytest.raises(ConfigurationError):
        ThrottleConfig(gateways=bad)


def test_default_gateways_shape():
    gws = default_gateways()
    assert [g.name for g in gws] == ["small", "medium", "big"]
    assert gws[0].timeout < gws[1].timeout < gws[2].timeout
    assert gws[0].threshold < gws[1].threshold < gws[2].threshold
