"""FIG5 — Figure 5 "Throughput - 40 clients".

The heaviest overload case: "throttling still improves throughput for
a given number of clients" (paper §5.2.1).
"""

import pytest

from repro.scenarios import throughput_scenario
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def figure(scenario):
    return scenario(throughput_scenario(40))


def test_fig5_throughput_40_clients(benchmark, figure):
    benchmark.pedantic(lambda: figure, rounds=1, iterations=1)
    print_banner("Figure 5: Successful Queries/Time (40 clients)")
    print(figure.body)

    results = figure.batch.results
    assert figure.scenario_metrics["improvement"] > 0.05
    assert results["throttled"].failed < results["unthrottled"].failed
