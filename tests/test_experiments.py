"""Tests for the experiment harness (runner, figures).

These run miniature configurations — the full reproductions live in
``benchmarks/``.
"""

import pytest

from repro.config import paper_server_config
from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    PRESETS,
    figure1_monitors,
    run_experiment,
)
from repro.experiments.runner import make_workload


def test_presets_sane():
    for preset in PRESETS.values():
        assert preset.warmup > 0
        assert preset.measure > 0
        assert preset.bucket > 0


def test_make_workload_by_name():
    assert make_workload("sales").name == "sales"
    assert make_workload("tpch").name == "tpch"
    assert make_workload("oltp").name == "oltp"
    assert make_workload("mixed", tpch_fraction=0.5).name == "mixed"
    with pytest.raises(ConfigurationError) as excinfo:
        make_workload("nope")
    # the error teaches the valid names instead of a bare KeyError
    assert "sales" in str(excinfo.value)
    with pytest.raises(ConfigurationError) as excinfo:
        make_workload("tpch", bogus_param=1)
    assert "tpch" in str(excinfo.value)


def test_unknown_preset_is_a_configuration_error():
    from repro.experiments.runner import get_preset

    with pytest.raises(ConfigurationError) as excinfo:
        get_preset("warp-speed")
    assert "smoke" in str(excinfo.value)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(preset="warp-speed").build_server_config()


def test_build_server_config_applies_preset_and_throttle():
    config = ExperimentConfig(preset="smoke", throttling=False)
    server_config = config.build_server_config()
    assert not server_config.throttle.enabled
    assert server_config.optimizer_effort < 1.0
    assert server_config.optimizer_memory_multiplier > 1.0


def test_figure1_renders_both_modes():
    text = figure1_monitors(True)
    assert "small" in text and "big" in text


@pytest.mark.slow
def test_run_experiment_oltp_smoke():
    """A tiny end-to-end run through the harness."""
    workload = make_workload("oltp")
    result = run_experiment(ExperimentConfig(
        workload="oltp", clients=3, throttling=True, preset="smoke",
        seed=1, think_time=5.0), workload=workload)
    assert result.completed > 0
    assert result.throughput, "empty throughput series"
    assert result.wall_seconds > 0
    assert "compilation" in result.memory_by_clerk
    assert result.config.clients == 3


@pytest.mark.slow
def test_run_experiment_reports_paper_time_axis():
    """Series timestamps are reported in paper seconds starting at the
    warm-up boundary."""
    workload = make_workload("oltp")
    preset = PRESETS["smoke"]
    result = run_experiment(ExperimentConfig(
        workload="oltp", clients=2, preset="smoke", seed=2),
        workload=workload)
    times = [t for t, _ in result.throughput]
    assert times[0] == pytest.approx(preset.warmup)
    assert times[-1] < preset.warmup + preset.measure
