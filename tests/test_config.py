"""Tests for configuration validation and derived settings."""

import pytest

from repro.config import (
    BrokerConfig,
    GatewayConfig,
    HardwareConfig,
    ServerConfig,
    ThrottleConfig,
    paper_server_config,
)
from repro.errors import ConfigurationError
from repro.units import GiB, MiB


def test_paper_defaults_match_testbed():
    config = paper_server_config()
    assert config.hardware.cpus == 8
    assert config.hardware.physical_memory == 4 * GiB
    assert config.hardware.disks == 8
    assert config.throttle.enabled
    assert len(config.throttle.gateways) == 3


def test_with_throttling_toggle():
    config = paper_server_config(throttling=False)
    assert not config.throttle.enabled
    again = config.with_throttling(True)
    assert again.throttle.enabled
    assert not config.throttle.enabled  # original untouched


def test_fast_trades_effort_for_bytes():
    config = ServerConfig().fast(4.0)
    assert config.optimizer_effort == pytest.approx(0.25)
    assert config.optimizer_memory_multiplier == pytest.approx(4.0)
    with pytest.raises(ConfigurationError):
        ServerConfig().fast(0)


def test_hardware_validation():
    with pytest.raises(ConfigurationError):
        HardwareConfig(cpus=0)
    with pytest.raises(ConfigurationError):
        HardwareConfig(physical_memory=0)
    with pytest.raises(ConfigurationError):
        HardwareConfig(disks=0)
    with pytest.raises(ConfigurationError):
        HardwareConfig(cpu_speed=0)


def test_total_disk_bandwidth():
    hw = HardwareConfig(disks=4, disk_bandwidth=50 * MiB)
    assert hw.total_disk_bandwidth == 200 * MiB


def test_gateway_capacity_rules():
    per_cpu = GatewayConfig(per_cpu=4, absolute=None)
    assert per_cpu.capacity(8) == 32
    absolute = GatewayConfig(per_cpu=None, absolute=1)
    assert absolute.capacity(8) == 1
    neither = GatewayConfig(per_cpu=None, absolute=None)
    with pytest.raises(ConfigurationError):
        neither.capacity(8)


def test_throttle_fraction_validation():
    with pytest.raises(ConfigurationError):
        ThrottleConfig(small_fraction=0.0)
    with pytest.raises(ConfigurationError):
        ThrottleConfig(medium_fraction=1.5)


@pytest.mark.parametrize("field, value, match", [
    ("interval", 0, "interval"),
    ("interval", -1.0, "interval"),
    ("window", 1, "at least 2"),
    ("horizon", -0.5, "horizon"),
    ("headroom_fraction", 1.0, "headroom_fraction"),
    ("headroom_fraction", -0.1, "headroom_fraction"),
    ("compile_target_fraction", 1.5, "compile_target_fraction"),
    ("buffer_pool_floor_fraction", 1.0, "buffer_pool_floor_fraction"),
])
def test_broker_validation(field, value, match):
    # a zero interval would make the server tick yield timeout(0) forever
    with pytest.raises(ConfigurationError, match=match):
        BrokerConfig(**{field: value})


def test_broker_edge_values_are_valid():
    BrokerConfig(interval=0.01, window=2, horizon=0.0,
                 headroom_fraction=0.0, compile_target_fraction=0.0,
                 buffer_pool_floor_fraction=0.0)


def test_configs_are_immutable():
    config = paper_server_config()
    with pytest.raises(Exception):
        config.seed = 1
