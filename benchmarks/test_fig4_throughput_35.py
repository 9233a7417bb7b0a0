"""FIG4 — Figure 4 "Throughput - 35 clients".

Beyond saturation the server is oversubscribed; throttling still
improves throughput for the same client load (paper §5.2.1).
"""

import pytest

from repro.scenarios import throughput_scenario
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def figure(scenario):
    return scenario(throughput_scenario(35))


def test_fig4_throughput_35_clients(benchmark, figure):
    benchmark.pedantic(lambda: figure, rounds=1, iterations=1)
    print_banner("Figure 4: Successful Queries/Time (35 clients)")
    print(figure.body)

    results = figure.batch.results
    assert figure.scenario_metrics["improvement"] > 0.05
    assert results["throttled"].failed < results["unthrottled"].failed
