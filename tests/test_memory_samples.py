"""The memory sampler: run-length snapshots, exact means, conservation.

``MetricsCollector.sample_memory`` keeps one list of sample times and
the snapshots as runs (one entry per change, counted).  The per-clerk
traces are views built from the runs, and ``memory_means`` reads the
runs directly with integer sums; it must equal ``GaugeSeries.mean``
over the same samples bit for bit.  The runs of real cells also carry
the first conservation invariant: no clerk holds negative bytes and
the clerks never hold more than the machine has.
"""

import random

import pytest

from repro.experiments.runner import get_preset, run_experiment
from repro.metrics.collector import MetricsCollector
from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.facade import jobs_for_scenario
from repro.units import GiB


def _gauge_means(collector, t_from, t_to):
    return {clerk: trace.mean(t_from, t_to)
            for clerk, trace in collector.memory.items()}


def _seeded_collector(seed):
    """Samples at whole and fractional times: snapshots held for a
    while (the same object), changed, or rebuilt equal (a new object);
    a clerk that registers mid-run; byte counts up to 4 GiB."""
    rng = random.Random(seed)
    collector = MetricsCollector()
    usage = {"buffer_pool": rng.randint(0, 4 * GiB),
             "compilation": rng.randint(0, GiB)}
    late = rng.randint(5, 150)
    t = 0.0
    for index in range(200):
        t += rng.choice((1.0, 0.5, 0.1))
        if index == late:
            usage = dict(usage, workspace=rng.randint(0, GiB))
        roll = rng.random()
        if roll < 0.2:
            usage = {clerk: rng.randint(0, 4 * GiB) for clerk in usage}
        elif roll < 0.3:
            usage = dict(usage)
        collector.sample_memory(t, usage)
    return collector


@pytest.mark.parametrize("seed", range(8))
def test_run_length_means_equal_the_trace_means(seed):
    collector = _seeded_collector(seed)
    times = collector.memory_times
    assert len(collector.memory_runs) < len(times)
    ranges = [(times[0], times[-1] + 1.0),       # everything
              (times[20], times[120]),           # [warm, duration) edges
              (times[20] + 1e-9, times[120] - 1e-9),
              (times[50], times[50]),            # empty
              (times[-1] + 1.0, times[-1] + 5.0),  # after the last sample
              (0.0, times[0])]                   # before the first
    for t_from, t_to in ranges:
        means = collector.memory_means(t_from, t_to)
        expected = _gauge_means(collector, t_from, t_to)
        assert list(means.items()) == list(expected.items())
    # the late clerk's trace starts where it registered
    late = collector.memory["workspace"]
    assert len(late) < len(times)
    assert list(late.times) == times[len(times) - len(late):]


def test_empty_collector_has_no_means():
    collector = MetricsCollector()
    assert collector.memory_means(0.0, 10.0) == {}
    assert collector.memory == {}
    assert len(collector.total_memory) == 0


def _oltp_2c():
    spec = ScenarioSpec(scenario_id="oltp-2c", title="Two-client OLTP cell",
                        family="harness", workload="oltp", clients=2,
                        preset="smoke")
    return jobs_for_scenario(spec)[0].config


def _fig3_throttled():
    jobs = jobs_for_scenario(get_scenario("fig3").customized(seed=3))
    return next(job.config for job in jobs if job.name == "throttled")


@pytest.mark.parametrize("config", [_oltp_2c, _fig3_throttled],
                         ids=["oltp-2c", "fig3-throttled"])
def test_cell_snapshots_conserve_memory(config, monkeypatch):
    """Every snapshot a cell sampled: no clerk below zero bytes, and
    no more bytes held than the machine has.  The cell's per-clerk
    means are the trace means."""
    from repro.experiments import runner

    config = config()
    collectors = []

    class Keeping(MetricsCollector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            collectors.append(self)

    monkeypatch.setattr(runner, "MetricsCollector", Keeping)
    result = run_experiment(config)
    (collector,) = collectors
    physical = config.build_server_config().hardware.physical_memory
    runs = collector.memory_runs
    assert sum(count for _usage, count in runs) == \
        len(collector.memory_times) > 0
    # most ticks see the usage of the tick before
    assert len(runs) < len(collector.memory_times)
    for usage, _count in runs:
        assert all(used >= 0 for used in usage.values())
        assert sum(usage.values()) <= physical
    preset = get_preset(config.preset)
    warm = preset.warmup
    duration = preset.warmup + preset.measure
    assert result.memory_by_clerk == _gauge_means(collector, warm, duration)
