"""ABL-DYN — §4.1 extension (a): dynamic gateway thresholds derived
from the broker target "allow the system to throttle some workloads
more aggressively when other subcomponents are heavily using memory".
"""

import pytest

from repro.metrics.report import render_table
from repro.scenarios import dynamic_ablation_scenario
from repro.units import MiB
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def results(scenario):
    return scenario(dynamic_ablation_scenario(clients=35)).batch.results


def test_ablation_dynamic_thresholds(benchmark, results):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    print_banner("ABL-DYN: static vs dynamic thresholds (35 clients)")
    rows = [(label, r.completed, r.failed,
             r.memory_by_clerk.get("compilation", 0) / MiB)
            for label, r in results.items()]
    print(render_table(
        ("variant", "completed", "errors", "compile MiB (mean)"), rows))

    static = results["static"]
    dynamic = results["dynamic"]
    # dynamic thresholds bound compilation memory at least as tightly
    assert (dynamic.memory_by_clerk["compilation"]
            <= static.memory_by_clerk["compilation"] * 1.15)
    # and do not lose meaningful throughput doing so
    assert dynamic.completed >= static.completed * 0.85
