"""Tests for the cooperative CPU scheduler."""

import pytest

from repro.config import HardwareConfig
from repro.server.scheduler import CpuScheduler
from tests.conftest import drain


def make_scheduler(env, cpus=2, speed=1.0):
    hw = HardwareConfig(cpus=cpus, cpu_speed=speed)
    return CpuScheduler(env, hw)


def test_single_task_runs_at_full_speed(env):
    sched = make_scheduler(env, cpus=1)

    def worker(env):
        yield from sched.consume(5.0)
        return env.now

    p = env.process(worker(env))
    assert drain(env, p) == pytest.approx(5.0)
    assert sched.stats.busy_time == pytest.approx(5.0)


def test_contention_stretches_elapsed_time(env):
    sched = make_scheduler(env, cpus=1)
    finish = {}

    def worker(env, name):
        yield from sched.consume(3.0)
        finish[name] = env.now

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    # two tasks share one CPU: both take about twice as long
    assert max(finish.values()) == pytest.approx(6.0)
    assert min(finish.values()) >= 5.0


def test_parallel_cpus_no_contention(env):
    sched = make_scheduler(env, cpus=2)
    finish = []

    def worker(env):
        yield from sched.consume(3.0)
        finish.append(env.now)

    env.process(worker(env))
    env.process(worker(env))
    env.run()
    assert finish == [pytest.approx(3.0), pytest.approx(3.0)]


def test_cpu_speed_scales_work(env):
    sched = make_scheduler(env, cpus=1, speed=2.0)

    def worker(env):
        yield from sched.consume(10.0)
        return env.now

    p = env.process(worker(env))
    assert drain(env, p) == pytest.approx(5.0)


def test_zero_work_is_instant(env):
    sched = make_scheduler(env)

    def worker(env):
        yield from sched.consume(0.0)
        return env.now

    p = env.process(worker(env))
    assert drain(env, p) == 0.0


def test_runnable_counts_queued_tasks(env):
    sched = make_scheduler(env, cpus=1)
    seen = []

    def worker(env):
        yield from sched.consume(2.0)

    def observer(env):
        yield env.timeout(0.5)
        seen.append(sched.runnable)

    for _ in range(3):
        env.process(worker(env))
    env.process(observer(env))
    env.run()
    assert seen[0] >= 1
