"""Tests for the Memory Broker (paper §3)."""

import pytest

from repro.broker import BrokerSignal, MemoryBroker
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
