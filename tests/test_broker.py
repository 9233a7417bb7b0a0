"""Tests for the Memory Broker (paper §3)."""

import random
from types import SimpleNamespace

import pytest

from repro.broker import (BrokerNotification, BrokerSignal, MemoryBroker,
                          TrendEstimator)
from repro.config import BrokerConfig
from repro.memory import MemoryManager
from repro.sim import Environment
from repro.units import GiB, MiB


def make_broker(env, physical=1000 * MiB, **overrides):
    manager = MemoryManager(physical)
    config = BrokerConfig(**overrides)
    broker = MemoryBroker(env, manager, config)
    return manager, broker


def test_no_action_when_memory_plentiful(env):
    manager, broker = make_broker(env)
    clerk = manager.clerk("buffer_pool")
    clerk.allocate(100 * MiB)
    notes = []
    broker.subscribe("buffer_pool", notes.append)
    broker.sweep()
    assert not broker.under_pressure
    # first sweep sends one GROW (component state unknown before)
    assert all(n.signal is BrokerSignal.GROW for n in notes)
    broker.sweep()
    assert len(notes) == 1  # no repeated GROW chatter


def test_pressure_detected_from_trend(env):
    """Usage growing toward the limit triggers pressure *before* the
    machine is actually full (the broker predicts)."""
    manager, broker = make_broker(env, horizon=5.0, interval=1.0)
    clerk = manager.clerk("compilation")
    for step in range(6):
        clerk.allocate(120 * MiB)     # 120 MiB/s growth
        env.run(until=env.now + 1.0)
        broker.sweep()
        if broker.under_pressure:
            break
    assert broker.under_pressure
    assert manager.used < manager.physical_memory


def test_shrink_notification_for_cache_over_target(env):
    manager, broker = make_broker(env)
    pool = manager.clerk("buffer_pool")
    compile_clerk = manager.clerk("compilation")
    workspace = manager.clerk("workspace")
    pool.allocate(600 * MiB)
    compile_clerk.allocate(230 * MiB)
    workspace.allocate(150 * MiB)  # unshrinkable consumer
    notes = []
    broker.subscribe("buffer_pool", notes.append)
    broker.sweep()
    assert broker.under_pressure
    assert notes
    last = notes[-1]
    assert last.signal is BrokerSignal.SHRINK
    assert last.target < pool.used


def test_compilation_capped_at_its_fraction(env):
    manager, broker = make_broker(env, compile_target_fraction=0.25)
    compile_clerk = manager.clerk("compilation")
    pool = manager.clerk("buffer_pool")
    compile_clerk.allocate(620 * MiB)
    pool.allocate(370 * MiB)
    notes = []
    broker.subscribe("compilation", notes.append)
    broker.sweep()
    assert notes
    assert notes[-1].signal is BrokerSignal.SHRINK
    assert notes[-1].target <= broker.compile_target()


def test_buffer_pool_floor_respected(env):
    manager, broker = make_broker(env, buffer_pool_floor_fraction=0.2)
    pool = manager.clerk("buffer_pool")
    hog = manager.clerk("workspace")
    pool.allocate(300 * MiB)
    hog.allocate(680 * MiB)
    notes = []
    broker.subscribe("buffer_pool", notes.append)
    broker.sweep()
    assert notes
    floor = int(manager.physical_memory * 0.2)
    assert notes[-1].target >= floor


def test_grow_restored_after_pressure_clears(env):
    manager, broker = make_broker(env)
    pool = manager.clerk("buffer_pool")
    compile_clerk = manager.clerk("compilation")
    workspace = manager.clerk("workspace")
    pool.allocate(600 * MiB)
    compile_clerk.allocate(230 * MiB)
    workspace.allocate(150 * MiB)
    notes = []
    broker.subscribe("buffer_pool", notes.append)
    broker.sweep()
    assert notes[-1].signal is BrokerSignal.SHRINK
    compile_clerk.free(230 * MiB)
    workspace.free(150 * MiB)
    pool.free(400 * MiB)
    for _ in range(12):  # wash the trend window clean
        env.run(until=env.now + 1.0)
        broker.sweep()
    assert notes[-1].signal is BrokerSignal.GROW


def _started_server(env, **broker):
    from repro.catalog import Catalog
    from repro.config import ServerConfig
    from repro.server import DatabaseServer

    server = DatabaseServer(ServerConfig(broker=BrokerConfig(**broker)),
                            Catalog(), env=env)
    server.start()
    return server


def test_periodic_process_sweeps(env):
    server = _started_server(env, interval=2.0)
    env.run(until=11.0)
    assert server.broker.sweeps == 5


def test_disabled_broker_never_starts(env):
    server = _started_server(env, enabled=False)
    env.run(until=10.0)
    assert server.broker.sweeps == 0


def test_pressure_limit_includes_headroom(env):
    manager, broker = make_broker(env, headroom_fraction=0.1)
    assert broker.pressure_limit == int(manager.physical_memory * 0.9)


def test_advise_compile_grant_passes_without_pressure(env):
    manager, broker = make_broker(env)
    clerk = manager.clerk("compilation")
    assert broker.advise_compile_grant(clerk, 500 * MiB)


def test_advise_compile_grant_denies_imminent_oom(env):
    """Under pressure, a grant that would not fit even after full cache
    reclamation is declined before any physical allocation happens."""
    manager, broker = make_broker(env, buffer_pool_floor_fraction=0.2)
    pool = manager.clerk("buffer_pool")
    pool.allocate(500 * MiB)
    grants = manager.clerk("workspace")
    grants.allocate(400 * MiB)
    clerk = manager.clerk("compilation")
    broker.under_pressure = True
    # available = 100 MiB; pool reclaimable = 500 - 200 (floor) = 300
    # MiB, rounded down to whole 32 MiB eviction chunks -> 288 MiB
    assert broker.reclaimable_bytes() == 288 * MiB
    assert broker.advise_compile_grant(clerk, 350 * MiB)
    assert not broker.advise_compile_grant(clerk, 389 * MiB)


def test_advise_compile_grant_disabled_broker_always_grants(env):
    manager, broker = make_broker(env, enabled=False)
    clerk = manager.clerk("compilation")
    broker.under_pressure = True
    assert broker.advise_compile_grant(clerk, manager.physical_memory * 2)


# -- the quiet rule against a refit-everything reference -------------------
def _usage_sequence(rng, physical, sweeps):
    """Seeded per-sweep usage targets for four clerks (``workspace``
    appears mid-run).  Stretches hold usage still (repeated
    snapshots), ramp the compilation clerk over the pressure limit
    and back down at varying steepness, creep up far below it, or
    wander just below it."""
    low = {"buffer_pool": physical // 4, "plan_cache": physical // 32,
           "compilation": physical // 64}
    usages, current = [], dict(low)
    arrival = rng.randint(10, sweeps // 2)
    while len(usages) < sweeps:
        kind = rng.choice(("hold", "hold", "ramp", "drop", "creep",
                           "near"))
        length = rng.randint(2, 14)
        for step in range(length):
            if len(usages) == arrival:
                current["workspace"] = physical // 16
            others = sum(v for k, v in current.items()
                         if k != "compilation")
            room = physical - others
            current["compilation"] = min(current["compilation"], room)
            if kind == "ramp":
                rate = room // rng.choice((4, 8, 16, 64))
                current["compilation"] = min(
                    room, current["compilation"] + rate)
            elif kind == "creep":
                current["compilation"] = min(
                    room, current["compilation"] + physical // 512)
            elif kind == "drop":
                current["compilation"] = low["compilation"]
            elif kind == "near":
                current["compilation"] = room - rng.randint(
                    physical // 20, physical // 8)
            usages.append(dict(current))
    return usages[:sweeps]


def _reference(config, physical, usages, times):
    """Pressure flags and notifications of a sweep that refits every
    clerk with its own :class:`TrendEstimator` and always walks the
    grow loop.  The split of memory under pressure is the broker's
    policy, borrowed from a broker that is never swept."""
    policy = MemoryBroker(SimpleNamespace(now=0.0),
                          MemoryManager(physical), config)
    limit = policy.pressure_limit
    trends, signals, flags, notes = {}, {}, [], []
    for now, usage in zip(times, usages):
        predicted = {}
        for name, used in usage.items():
            trend = trends.setdefault(name, TrendEstimator(config.window))
            trend.add(now, used)
            predicted[name] = int(trend.predict(config.horizon))
        pressure = sum(predicted.values()) > limit
        flags.append(pressure)
        if pressure:
            targets = policy._compute_targets(usage, predicted, limit)
            sent = []
            for name, used in usage.items():
                target = targets.get(name, predicted[name])
                sent.append(BrokerNotification(
                    name, MemoryBroker._signal_for(
                        used, predicted[name], target),
                    used, predicted[name], target, now))
        else:
            sent = [BrokerNotification(name, BrokerSignal.GROW, used,
                                       predicted[name], physical, now)
                    for name, used in usage.items()
                    if signals.get(name) is not BrokerSignal.GROW]
        for note in sent:
            signals[note.clerk] = note.signal
        notes += sent
    return flags, notes


def _drive(config, physical, usages, times):
    """The broker under test on a real memory manager, handed the
    previous snapshot object whenever usage is unchanged (as the
    server's tick does).  Returns its pressure flags, notifications
    and how many sweeps fitted and sampled."""
    env = SimpleNamespace(now=0.0)
    manager = MemoryManager(physical)
    broker = MemoryBroker(env, manager, config)
    notes, counts = [], {"_predict": 0, "_sample": 0}
    for name in usages[-1]:
        broker.subscribe(name, notes.append)
    for method in counts:
        def counting(*args, _original=getattr(broker, method),
                     _name=method):
            counts[_name] += 1
            return _original(*args)

        setattr(broker, method, counting)
    flags, last = [], None
    for now, target in zip(times, usages):
        env.now = now
        for name, used in target.items():  # frees first, then growth
            clerk = manager.clerk(name)
            if used < clerk.used:
                clerk.free(clerk.used - used)
        for name, used in target.items():
            clerk = manager.clerk(name)
            if used > clerk.used:
                clerk.allocate(used - clerk.used)
        usage = manager.usage_by_clerk()
        if usage == last:
            usage = last
        broker.sweep(usage)
        last = usage
        flags.append(broker.under_pressure)
    return flags, notes, counts


@pytest.mark.parametrize("seed", range(12))
def test_quiet_rule_matches_refitting_every_clerk(seed):
    rng = random.Random(seed)
    config = BrokerConfig(window=rng.choice((3, 5, 10)),
                          horizon=rng.choice((5.0, 2.0)))
    physical = rng.choice((1 * GiB, 4 * GiB)) + rng.randint(0, MiB)
    usages = _usage_sequence(rng, physical, 150)
    times = [float(i + 1) for i in range(len(usages))]
    expected_flags, expected_notes = _reference(config, physical, usages,
                                                times)
    flags, notes, counts = _drive(config, physical, usages, times)
    assert flags == expected_flags
    assert notes == expected_notes
    # the sequence crosses the limit both ways and takes every path
    crossings = set(zip(flags, flags[1:]))
    assert (False, True) in crossings and (True, False) in crossings
    assert counts["_predict"] < counts["_sample"] < len(times)


def test_quiet_rule_sees_a_step_peak_inside_the_window():
    """A step up in one clerk's usage peaks in the projection about
    half a window later, at nearly ``hi + (hi - lo)`` for a window of
    10 and a horizon of 5, well above what the step's last sample
    alone suggests.  The limit here sits just below that peak: the
    sweeps before it are quiet, and the peak must still be seen."""
    config = BrokerConfig(window=10, horizon=5.0)
    physical = 4 * GiB
    limit = int(physical * (1.0 - config.headroom_fraction))
    base = GiB
    step = int((limit - base) / 1.96)
    usages = [{"buffer_pool": base, "compilation": used}
              for used in [0] * 12 + [step] * 12]
    times = [float(i + 1) for i in range(len(usages))]
    expected_flags, expected_notes = _reference(config, physical, usages,
                                                times)
    flags, notes, counts = _drive(config, physical, usages, times)
    assert flags == expected_flags
    assert notes == expected_notes
    assert flags.index(True) == 12 + 5  # the sixth sample of the step
    assert not any(flags[:17])
