"""Tests for the experiment harness (runner, figures, ablations).

These run miniature configurations — the full reproductions live in
``benchmarks/``.
"""

import json
import os

import pytest

from repro.config import paper_server_config
from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    PRESETS,
    figure1_monitors,
    run_experiment,
)
from repro.experiments.ablations import (
    ablation_suite_jobs,
    config_with_gateways,
    gateway_ladder,
)
from repro.experiments.engine import (
    ExperimentEngine,
    ExperimentJob,
    figure_suite_jobs,
    run_jobs,
    write_artifact,
)
from repro.experiments.runner import make_workload


def tiny_config(**overrides) -> ExperimentConfig:
    """The cheapest meaningful run for engine tests."""
    defaults = dict(workload="oltp", clients=2, throttling=True,
                    preset="smoke", seed=1, think_time=5.0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


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


def test_gateway_ladder_slicing():
    assert len(gateway_ladder(0)) == 0
    assert len(gateway_ladder(2)) == 2
    with pytest.raises(ValueError):
        gateway_ladder(4)
    assert not config_with_gateways(0).throttle.enabled
    assert config_with_gateways(2).throttle.enabled


def test_engine_duplicate_job_names_rejected():
    jobs = [ExperimentJob("a", tiny_config()),
            ExperimentJob("a", tiny_config(seed=2))]
    with pytest.raises(ValueError):
        ExperimentEngine().run(jobs)


def test_suite_builders_produce_unique_jobs():
    for jobs in (figure_suite_jobs(), ablation_suite_jobs()):
        names = [j.name for j in jobs]
        assert len(set(names)) == len(names)
        assert all(j.config.preset == "smoke" for j in jobs)
    assert len(figure_suite_jobs()) == 6


@pytest.mark.slow
def test_engine_serial_batch_and_error_accounting():
    """A failing job is accounted, the rest of the batch completes, and
    aggregation order matches submission order."""
    jobs = [
        ExperimentJob("ok_1", tiny_config(seed=1)),
        ExperimentJob("broken", tiny_config(workload="nope")),
        ExperimentJob("ok_2", tiny_config(seed=2)),
    ]
    batch = run_jobs(jobs, workers=1)
    assert not batch.ok
    assert set(batch.results) == {"ok_1", "ok_2"}
    assert "ConfigurationError" in batch.errors["broken"]
    # ordered keeps one slot per job, with a hole for the failure
    assert len(batch.ordered) == 3
    assert batch.ordered[0] is batch.results["ok_1"]
    assert batch.ordered[1] is None
    assert batch.ordered[2] is batch.results["ok_2"]
    assert batch.results["ok_1"].completed > 0


@pytest.mark.slow
def test_engine_parallel_matches_serial(tmp_path):
    """Workers must not change results: same configs, same numbers —
    and the artifact round-trips through JSON."""
    jobs = [ExperimentJob("a", tiny_config(seed=5)),
            ExperimentJob("b", tiny_config(seed=6))]
    serial = run_jobs(jobs, workers=1)
    parallel = run_jobs(jobs, workers=2)
    assert parallel.ok and serial.ok
    for name in ("a", "b"):
        assert (parallel.results[name].completed
                == serial.results[name].completed)
        assert (parallel.results[name].error_counts
                == serial.results[name].error_counts)

    path = write_artifact(str(tmp_path), "unit", parallel)
    assert os.path.basename(path) == "BENCH_unit.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    from repro.experiments.engine import ARTIFACT_SCHEMA

    assert doc["schema"] == ARTIFACT_SCHEMA
    assert set(doc["results"]) == {"a", "b"}
    assert doc["results"]["a"]["completed"] == serial.results["a"].completed
    assert doc["errors"] == {}


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
