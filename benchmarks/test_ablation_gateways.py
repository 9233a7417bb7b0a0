"""ABL-GATES — §4.1: "dividing query compilations into four memory
usage categories gives the best balance".

Sweeps the number of monitors (0 = un-throttled, 3 = the paper's
ladder) and prints completions and errors per variant.
"""

import pytest

from repro.metrics.report import render_table
from repro.scenarios import gateway_ablation_scenario
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def results(scenario):
    return scenario(gateway_ablation_scenario(clients=30)).batch.results


def test_ablation_gateway_count(benchmark, results):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    print_banner("ABL-GATES: monitor-count ablation (30 clients)")
    rows = [(label, r.completed, r.failed)
            for label, r in results.items()]
    print(render_table(("variant", "completed", "errors"), rows))

    completions = {label: r.completed for label, r in results.items()}
    errors = {label: r.failed for label, r in results.items()}
    # any throttling beats none
    best_throttled = max(completions[k] for k in completions
                         if k != "0_monitors")
    assert best_throttled > completions["0_monitors"]
    # the full ladder keeps errors lowest (or tied)
    assert errors["3_monitors"] <= min(errors["0_monitors"],
                                       errors["1_monitors"])
